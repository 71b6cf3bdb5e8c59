// Online SoCL: stateful slot-to-slot provisioning (feature ① of the paper —
// one-shot decisions that continuously respond to real-time user
// distributions without prior knowledge of future arrivals).
//
// Instead of re-running the full pipeline every slot, the online solver
// warm-starts from the previous slot's placement: it re-routes onto it,
// repairs feasibility (budget/storage/coverage), and runs the screened
// local-search refinement — falling back to a full SoCL solve when the
// demand shifted too much (placement badly mismatched) or on the first
// slot. This trades a bounded optimality loss for a large latency win in
// the control loop, and avoids instance churn between slots (each migration
// is a cold start in a real deployment).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/socl.h"

namespace socl::core {

struct OnlineParams {
  SoCLParams socl;
  /// Re-solve from scratch when the warm-started objective exceeds the
  /// fresh estimate by this factor (1.15 = 15% staleness tolerance). The
  /// comparison is strict: a warm objective exactly equal to the fresh one
  /// (times the threshold) keeps the warm-started placement — ties never
  /// churn instances. Values <= 1.0 disable the staleness guard entirely.
  double resolve_threshold = 1.15;
  /// Force a full re-solve every N slots regardless. 0 means never: no
  /// periodic full re-solve AND no periodic staleness comparison (which
  /// would itself run a fresh solve every guard slot) — the controller then
  /// only falls back to a full solve when the warm-start repair fails.
  int full_resolve_period = 12;
};

/// Per-slot bookkeeping of the online controller.
struct OnlineStepStats {
  bool warm_start_used = false;
  bool full_resolve = false;
  /// Instances added + removed relative to the previous slot's placement
  /// (deployment churn). The cold starts this churn causes are measured by
  /// the serverless runtime (src/serverless/): pass the previous placement
  /// as `carried` to ServerlessRuntime::run and the added instances pay
  /// real boot latency.
  int churn = 0;
};

class OnlineSoCL {
 public:
  explicit OnlineSoCL(OnlineParams params = {}) : params_(std::move(params)) {}

  /// Provisioning decision for the current slot's scenario. Node ids and
  /// the catalog must stay fixed across calls; links and capacities may
  /// degrade (Scenario::set_network — the chaos lane and bench_resilience
  /// warm-start across node and link failures), and requests may change
  /// arbitrarily (mobility, fresh chains).
  Solution step(const Scenario& scenario, OnlineStepStats* stats = nullptr);

  /// Forgets the carried placement (e.g. after a topology change).
  void reset() { previous_.reset(); slot_ = 0; }

  /// Adopts `placement` as the carried slot-to-slot state, as if `slots_taken`
  /// steps had already produced it: the next step() warm-starts from it with
  /// the periodic-resolve cadence counted from that point. The sharded
  /// serving seam (src/serve/ + src/shard/) re-seeds each shard's online
  /// rung from the coordinator's accepted per-shard placement after every
  /// full priced solve, so incremental rungs continue exactly where the
  /// coordinated solve left off.
  void adopt(Placement placement, int slots_taken = 1) {
    previous_ = std::move(placement);
    slot_ = slots_taken;
  }

  const OnlineParams& params() const { return params_; }

 private:
  OnlineParams params_;
  std::optional<Placement> previous_;
  int slot_ = 0;
};

/// Instance churn between two placements (|symmetric difference|).
int placement_churn(const Placement& a, const Placement& b);

/// The symmetric difference split by direction: instances `next` deploys
/// that `prev` lacked (these boot cold at rollout) and instances torn down.
struct PlacementDelta {
  std::vector<std::pair<MsId, NodeId>> added;
  std::vector<std::pair<MsId, NodeId>> removed;
};
PlacementDelta placement_delta(const Placement& prev, const Placement& next);

}  // namespace socl::core
