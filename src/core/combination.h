// Algorithms 3 & 4: Multi-scale Combination.
//
// Starting from the pre-provisioning P^t, instances of the same microservice
// are merged to trade deployment cost against latency:
//   - large-scale stage (parallel): while the budget (Eq. 5) is violated,
//     compute the latency-loss list ζ (Algorithm 4), select the ω-fraction
//     of instances with the smallest ζ, drop dependency-conflicted picks
//     (keep the smaller ζ of any pair adjacent in some user chain), and
//     combine them in one parallel sweep;
//   - small-scale stage (serial): remove instances one at a time by minimum
//     ζ while the objective gradient δ = Q' − Q'' + Θ stays positive, running
//     storage planning (Algorithm 5) after every move and rolling back moves
//     that violate a user deadline (Eq. 4).
//
// Internally users connect to instances with the paper's connection-update
// rule (same group, then maximum channel speed); the cheap ψ latency model
// drives ζ and Q. The final placement is re-routed exactly by ChainRouter
// when SoCL assembles its solution.
#pragma once

#include "core/evaluator.h"
#include "core/preprovision.h"
#include "core/routing_engine.h"
#include "util/thread_pool.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::core {

struct CombinationConfig {
  /// Fraction of the latency-loss list combined per parallel round (ω).
  double omega = 0.2;
  /// The parallel stage runs while cost >= parallel_slack · K^max; the
  /// remaining budget overshoot is closed by the serial stage, whose exact
  /// per-move scoring picks far better final merges than the batched ζ
  /// heuristic. 1.0 reproduces the paper's literal loop condition.
  double parallel_slack = 1.6;
  /// Disturbance factor Θ: tolerated objective rise per serial move.
  double theta = 25.0;
  /// Worker threads for the parallel stage and candidate scoring
  /// (0 = hardware concurrency). 1 scores serially; scores are written by
  /// candidate index and each is a pure function of the route cache, so the
  /// thread count changes wall time, never results (test_routing_engine
  /// enforces it).
  int threads = 0;
  /// Score classes through the SoA kernel (DESIGN.md §4h): a lane-batched
  /// chain DP over contiguous buffers that evaluates all first-layer
  /// conditionings at once. false keeps the legacy per-conditioning
  /// ChainRouter path; results are bit-identical either way (enforced by
  /// the differential harness's kernel lane and `bench_scale --check`),
  /// only the wall time differs.
  bool use_score_kernel = true;
  bool use_parallel_stage = true;   // ablation switches
  bool use_storage_planning = true;
  bool use_rollback = true;
  /// Post-descent relocation polish: hill-climb single-instance migrations
  /// (same mechanics as Algorithm 5's moves, but objective-driven). An
  /// implementation extension documented in DESIGN.md; ablated in the
  /// bench_ablation harness.
  bool use_relocation = true;
  int relocation_sweeps = 3;
  /// Multi-start: additionally descend from the dense placement (every
  /// demand node hosts its services) with the screened move engine and keep
  /// the better basin. Costs roughly one extra descent; still far cheaper
  /// than GC-OG's exhaustive per-move scans.
  bool use_multi_start = true;
  /// Observability sink: stage spans (`combination.*`, `storage_planning`),
  /// ζ-list spans, and the `socl.combination.*` counters are emitted here;
  /// also forwarded to the routing engine. SoCL::solve copies its own sink
  /// in when this is null; null disables instrumentation (DESIGN.md §4e).
  obs::ObsSink* sink = nullptr;
};

struct CombinationStats {
  int parallel_rounds = 0;
  int parallel_removals = 0;
  int serial_removals = 0;
  int rollbacks = 0;
  /// Wall time per combination stage (seconds).
  double parallel_stage_seconds = 0.0;
  double serial_stage_seconds = 0.0;
  double polish_seconds = 0.0;
  double multi_start_seconds = 0.0;
  /// Routing-engine counters accumulated across the whole run.
  RoutingCounters routing;
};

/// One latency-loss entry ζ_{i,k} (Definition 8) with its objective
/// gradient: the objective change of removing the instance,
/// (1-λ)·w·ζ − λ·κ(m_i). Lists are ordered by ascending gradient so the
/// front entries are the most profitable merges.
struct LatencyLoss {
  MsId service = workload::kInvalidMs;
  NodeId node = net::kInvalidNode;
  double zeta = 0.0;
  double gradient = 0.0;
};

class Combiner {
 public:
  Combiner(const Scenario& scenario, const Partitioning& partitioning,
           const CombinationConfig& config);

  /// Runs both stages on a copy of the pre-provisioned placement.
  Placement run(const Preprovisioning& pre, CombinationStats* stats = nullptr);

  /// Algorithm 4 on an arbitrary placement: latency losses of every
  /// removable instance (microservices at one instance are skipped),
  /// ascending by ζ. Exposed for tests and the GC-OG baseline.
  std::vector<LatencyLoss> latency_losses(const Placement& placement) const;

  /// The connection-update rule: best serving node for (user, m) under
  /// `placement`, preferring the user's group, maximising channel speed.
  /// kInvalidNode when m has no instance at all.
  NodeId best_connection(int user, MsId m, const Placement& placement) const;

  /// Cheap completion-time estimate D̃_h under the connection map implied by
  /// `placement` (upper-bounds the exact router's D_h).
  double estimated_completion(const workload::UserRequest& request,
                              const Placement& placement) const;

  /// Σ_h D̃_h plus cost, combined into the objective (the Q of Algorithm 3).
  double estimated_objective(const Placement& placement) const;

  /// Objective used by the serial stage's Q'/Q'': the exact evaluation when
  /// the instance is small enough to route exactly per move, otherwise the
  /// connection-rule estimate. Exposed for tests.
  double serial_objective(const Placement& placement) const;

  /// The incremental routing engine backing all exact scoring. Exposed so
  /// SoCL::solve can reuse its cache/counters for the final routing pass.
  RoutingEngine& engine() const { return engine_; }

  /// Algorithm 3 line 4: among selected instances of chain-adjacent
  /// microservices, keep the smaller ζ (gradient, then ids as tiebreaks).
  /// Returns the discard mask. Exposed for the regression tests.
  std::vector<bool> dependency_conflict_filter(
      const std::vector<LatencyLoss>& omega_set) const;

  /// Screened best-move local search over {remove, add, relocate} moves,
  /// wrapped with iterated perturbation kicks. Public so the online solver
  /// can refine warm-started placements.
  void polish(Placement& placement) const;
  /// One descent pass of the polish (no kicks).
  void polish_descend(Placement& placement) const;
  /// Budget-forced screened removals: drives an over-budget placement to
  /// the budget with estimate-screened, exactly-verified merges.
  void descend_to_budget(Placement& placement) const;

 private:
  /// Per-microservice work shared by every removable instance of m in one
  /// latency_losses pass: the classes whose chains use m, bucketed by their
  /// connection under the scored placement. Hoisting this out of
  /// zeta_for_instance turns Algorithm 4's ζ sweep from
  /// O(instances · classes) connection scans into O(classes) per
  /// microservice, with bit-identical sums (same contributing classes,
  /// same order).
  struct ZetaPrep {
    /// served[k]: ids of the classes whose connection is node k (ascending,
    /// so per-instance sums keep the class-major order). Lets the ζ
    /// evaluation touch only the classes the instance actually serves.
    std::vector<std::vector<int>> served;
  };
  double zeta_for_instance(MsId m, NodeId k, const Placement& placement,
                           const ZetaPrep& prep) const;
  bool violates_deadline(const Placement& placement) const;
  bool use_exact_eval() const;

  const Scenario* scenario_;
  const Partitioning* partitioning_;
  CombinationConfig config_;
  Evaluator evaluator_;
  /// Incremental route cache + scratch buffers + candidate fan-out.
  mutable RoutingEngine engine_;
  /// group_index_[m][k]: group of node k for microservice m, or -1.
  std::vector<std::vector<int>> group_index_;
  /// Microservice pairs adjacent in some user chain (dependency conflicts).
  std::vector<std::vector<bool>> dependency_adjacent_;
};

}  // namespace socl::core
