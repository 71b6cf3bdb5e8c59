// Online serving loop: the control plane that fuses the solver, the
// request-class machinery, and the serverless runtime into one "day in the
// life" at production scale (DESIGN.md §4i).
//
// Each slot the loop (1) advances the workload — mobility churn, template
// drift, and a diurnal + bursty Alibaba-style arrival intensity
// (workload::request_volume_series, the Fig. 4 shape) — then (2) re-solves
// *incrementally*: the per-class route cache is keyed on the exact Eq. 2
// demand tuple (fingerprint-bucketed, exact-equality verified), so only the
// classes whose tuple actually moved are re-routed. Three tiers:
//
//   carried      no tuple moved: placement, routes, and assignment carry
//                over untouched (with the Scenario epoch fix, the slot costs
//                no reindex and no cache rebuild at all);
//   incremental  a small weight fraction moved: the placement is carried and
//                only the moved classes run the chain DP — O(moved classes)
//                control work, bit-identical to a full re-route because
//                carried routes were computed under the same placement;
//   replan       drift crossed the threshold (or the periodic floor): the
//                warm-start online controller (core::online) or the sharded
//                coordinator produces a new placement; every class re-routes.
//
// One function, route_classes, builds the class route cache on every rung,
// with the evaluator's latency formula (DESIGN.md §4i).
//
// (3) The slot's placement then serves a DES window (src/serverless/):
// instances churned by a replan pay real cold starts unless the pre-warm
// lookahead predicted them — the loop snapshots SoCLPrewarmPolicy's Alg. 2
// quotas each slot and treats quota instances as pre-warmed one slot ahead,
// modelling a controller that issues warm-up commands for the next slot's
// placement before rollout. Per-slot and cumulative SLO attainment (DES
// end-to-end latency vs D_h^max), cold-start rate, and placement-churn cost
// come back as SlotReport/ServingReport plus `socl.serve.*` metrics
// (docs/METRICS.md) and a CSV series.
//
// Determinism: every field of SlotReport except the wall-clock control
// latency is a pure function of (config, seed) — identical across runs and
// thread counts (the DES and routing determinism contracts carry through;
// test_serving pins it). The optional cross-check lane forces a full
// re-route every slot, asserts it equals the incremental assignment, and
// runs the independent constraint validator (DESIGN.md §4f) — incremental
// serving can never drift from what a from-scratch route would do.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/online.h"
#include "core/routing.h"
#include "net/multi_metro.h"
#include "serve/chaos.h"
#include "serverless/runtime.h"
#include "shard/sharded_solver.h"
#include "util/rng.h"
#include "workload/mobility.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::serve {

/// How the slot's placement decision was produced.
enum class SlotMode {
  kCarried,      ///< no class moved: placement + every route carried over
  kIncremental,  ///< placement carried, only moved classes re-routed
  kReplan,       ///< warm-start (or full) solve via core::online
};

const char* slot_mode_name(SlotMode mode);

struct ServingConfig {
  /// Substrate + template workload. `scenario.num_users` is the template
  /// count; the served population is `population` replicated users.
  core::ScenarioConfig scenario;
  /// Multi-metro mode: when > 0 the substrate is a stitched multi-metro
  /// topology (net::make_multi_metro) instead of `scenario.topology` —
  /// `metros` metros of `scenario.num_nodes` nodes each, generated from
  /// `scenario.topology` per metro, stitched per `multi_metro.backhaul`.
  /// Catalog, request generation, and constants still come from `scenario`.
  int metros = 0;
  /// Spacing/backhaul parameters of the stitched substrate (its `metros`
  /// and `metro` fields are overridden as described above).
  net::MultiMetroConfig multi_metro;
  /// Per-user per-slot probability of re-homing to a different metro
  /// (weighted hotspot attachment inside the target metro) — the churn
  /// process that moves users *between shards* through the dense per-shard
  /// user remap. Requires metros > 1.
  double cross_metro_prob = 0.0;
  /// Route replan slots through shard::ShardedSoCL::step instead of the
  /// single-address-space OnlineSoCL: per-metro warm rungs at the frozen
  /// budget price, global re-price only on budget drift, per-metro DES
  /// windows. Requires metros >= 1. With one metro the day is byte-identical
  /// to the unsharded loop (test_serving pins it via CSV diff).
  bool sharded = false;
  /// Coordinator knobs for sharded mode. `online` and `sink` are
  /// overridden from this config (single source of truth).
  shard::ShardedParams shard;
  /// Aggregated users actually served (replicate_requests over the template
  /// workload; 0 keeps the template count). Request-class aggregation keeps
  /// the control plane O(templates × nodes) however large this is.
  int population = 0;
  int slots = 24;
  /// Slots per simulated hour (feeds the diurnal intensity series).
  int slots_per_hour = 1;
  /// DES window simulated per slot, in seconds.
  double slot_horizon_s = 60.0;
  workload::MobilityConfig mobility;
  /// Per-user per-slot probability of workload drift: the user swaps to a
  /// different request template (chain, data volumes, deadline), keeping its
  /// id and attach node. Bounded template pool ⇒ bounded class count.
  double drift_prob = 0.0;
  /// Warm-start controller parameters for replan slots.
  core::OnlineParams online;
  /// Replan when the moved-class weight fraction exceeds this; below it the
  /// placement is carried and only moved classes are re-routed.
  double replan_weight_threshold = 0.05;
  /// Force a replan every N slots (0 = only on drift / coverage loss).
  int full_replan_period = 8;
  serverless::ServerlessConfig runtime;
  /// Arrival process template: `mean_rate` is the per-user base rate, scaled
  /// per slot by the diurnal + bursty day profile; `horizon_s` is overridden
  /// by `slot_horizon_s`.
  serverless::ArrivalConfig arrivals;
  /// Scales the day profile's deviation from flat (0 = homogeneous slots).
  double diurnal_amplitude = 1.0;
  /// Forced-full-resolve lane: every slot, re-route the whole workload from
  /// scratch, require bit-equality with the incremental assignment, and run
  /// the independent constraint validator. Results land in
  /// SlotReport::{full_reroute_matches, validator_violations}.
  bool cross_check = false;
  /// Chaos lane (DESIGN.md §4l): seed-keyed failure/repair/flash-crowd
  /// schedule injected into the day. Disabled by default; with
  /// `chaos.enabled == false` the day — including its CSV — is byte-for-byte
  /// the healthy day. `chaos.first_slot` is clamped to >= 2 so slot 1 always
  /// builds the baseline plan on the full substrate.
  ChaosConfig chaos;
  std::uint64_t seed = 1;
  /// `socl.serve.*` metrics per slot (docs/METRICS.md); forwarded to the
  /// DES windows when `runtime.sink` is null and to the unsharded replan's
  /// solver when `online.socl.sink` is null. nullptr disables.
  obs::ObsSink* sink = nullptr;
  /// Test hook: mutate the slot's requests after mobility/drift and before
  /// the scenario ingests them (e.g. move exactly one user). Runs from slot
  /// 2 onwards. Empty = disabled.
  std::function<void(int slot, std::vector<workload::UserRequest>&)>
      workload_hook;
};

/// One slot of the serving loop. Every field except `control_s` is
/// deterministic in (config, seed).
struct SlotReport {
  int slot = 0;  ///< 1-based
  SlotMode mode = SlotMode::kReplan;
  int classes = 0;
  /// Classes whose demand tuple moved and therefore ran the chain DP this
  /// slot (== `classes` on replan slots, where the solver re-routes all).
  int classes_recomputed = 0;
  int classes_carried = 0;
  /// Σ weight of moved classes / total weight (the replan trigger input).
  double moved_weight_fraction = 0.0;
  double objective = 0.0;
  double deployment_cost = 0.0;
  double mean_latency_s = 0.0;  ///< weighted Eq. 2 mean over classes
  /// Instances added + removed vs the previous slot's placement.
  int placement_churn = 0;
  /// Σ κ(m) over instances *added* this slot (the rollout cost churn pays).
  double churn_cost = 0.0;
  /// Added instances that opened warm because the previous slot's quota
  /// snapshot predicted them (the pre-warm lookahead's hits).
  int prewarm_ahead_hits = 0;
  /// Per-stage container invocations (chain length × requests, roughly).
  std::int64_t invocations = 0;
  /// End-to-end requests that completed inside the DES window.
  std::int64_t requests_completed = 0;
  std::int64_t slo_met = 0;      ///< completed requests with total <= D_h^max
  std::int64_t cold_serves = 0;  ///< invocations that waited on a boot
  double slo_attainment = 1.0;   ///< slo_met / requests (1.0 when idle)
  double cold_start_rate = 0.0;  ///< cold_serves / invocations
  /// Diurnal + burst intensity multiplier applied to the arrival rate.
  double arrival_intensity = 1.0;
  /// FNV-1a over the slot's demand (decision-independent trace identity).
  std::uint64_t demand_fingerprint = 0;
  /// Cross-check lane results; -1 / true when the lane is disabled.
  int validator_violations = -1;
  bool full_reroute_matches = true;
  /// Sharded-mode bookkeeping (0 / false outside sharded replans). Excluded
  /// from the CSV so sharded and unsharded series stay column-comparable.
  int shards_resolved = 0;
  bool repriced = false;
  /// Chaos-lane state of the slot (all neutral when chaos is disabled;
  /// the CSV grows these columns only when chaos is enabled, keeping the
  /// healthy day's CSV byte-identical to the pre-chaos one).
  int failed_nodes = 0;       ///< nodes down during the slot (cumulative)
  int failed_links = 0;       ///< explicitly failed links during the slot
  int users_rehomed = 0;      ///< users moved off dead/isolated stations
  double flash_multiplier = 1.0;
  bool substrate_changed = false;  ///< failures/repairs landed this slot
  /// Wall-clock control-plane latency (workload ingest → assignment ready).
  /// The one non-deterministic field; excluded from the CSV series.
  double control_s = 0.0;
};

/// Whole-day accounting plus the CSV/summary exports.
struct ServingReport {
  std::vector<SlotReport> slots;

  std::int64_t invocations = 0;
  std::int64_t requests_completed = 0;
  std::int64_t slo_met = 0;
  std::int64_t cold_serves = 0;
  std::int64_t classes_total = 0;
  std::int64_t classes_recomputed = 0;
  int carried_slots = 0;
  int incremental_slots = 0;
  int replans = 0;
  int churn_instances = 0;
  double churn_cost = 0.0;
  int prewarm_ahead_hits = 0;
  /// Sharded-mode totals (0 when unsharded).
  int shards_resolved = 0;
  int reprices = 0;
  double control_s_total = 0.0;
  /// Chaos-lane day totals (all zero with chaos disabled). `chaos` gates
  /// the extra CSV columns.
  bool chaos = false;
  int chaos_node_failures = 0;
  int chaos_link_failures = 0;
  int chaos_repairs = 0;
  int chaos_users_rehomed = 0;
  int chaos_degraded_slots = 0;
  int chaos_flash_slots = 0;
  /// SLO accounting restricted to degraded slots — the availability story:
  /// how much service quality survives while failures are outstanding.
  std::int64_t degraded_requests = 0;
  std::int64_t degraded_slo_met = 0;

  double slo_attainment() const;
  double cold_start_rate() const;
  /// SLO attainment over degraded slots only (1.0 when the day never
  /// degraded — vacuous availability).
  double degraded_slo_attainment() const;
  /// Σ recomputed / Σ classes — how much of the day's routing work the
  /// incremental path actually performed (1.0 = every slot replanned).
  double recompute_fraction() const;

  /// Per-slot CSV series (deterministic columns only — no wall-clock).
  void write_csv(const std::string& path) const;
  std::string summary() const;
};

/// The controller. Owns its scenario; step() advances one slot, run()
/// finishes the configured day.
class ServingLoop {
 public:
  explicit ServingLoop(ServingConfig config);

  /// Advances one slot: workload → placement decision → DES window.
  /// Throws std::runtime_error if the slot is unroutable even after a
  /// replan, and std::logic_error when the cross-check lane finds the
  /// incremental assignment diverging from a full re-route.
  SlotReport step();

  /// Runs the remaining slots up to config().slots.
  ServingReport run();

  int slot() const { return slot_; }
  const ServingConfig& config() const { return config_; }
  const core::Scenario& scenario() const { return scenario_; }
  const core::Placement& placement() const { return placement_; }
  /// metro_of[node]; empty in single-substrate (metros == 0) mode.
  const std::vector<int>& metro_of() const { return metro_of_; }

 private:
  struct CacheEntry {
    workload::UserRequest rep;  ///< exact tuple identity (not just the hash)
    std::vector<net::NodeId> route;
    double latency = 0.0;
  };

  /// The class diff's verdict, handed to the routing stages.
  struct RungChoice {
    bool replan = false;
    bool periodic = false;  ///< the periodic floor fired: force every shard
    bool carry = false;     ///< workload unchanged, no replan: route nothing
    /// Per class, the cached entry of its demand tuple (null = moved).
    std::vector<const CacheEntry*> hits;
    int moved = 0;
  };

  // The stages of step(), in slot order.
  SlotReport open_slot();  ///< chaos state, substrate swap, sharded rebuild
  /// Returns the number of users re-homed off dead/isolated stations
  /// (always 0 outside degraded chaos slots).
  int advance_workload();
  RungChoice choose_rung(SlotReport& report);
  /// Produces placement_ only; throws when the solver leaves the slot
  /// unroutable.
  void replan(SlotReport& report, bool periodic);
  /// The one builder of the class route cache, in class order: a class with
  /// a hit reuses it, any other is routed under placement_ with latency
  /// completion_time(rep, route). Expands the per-user assignment. Returns
  /// false on the first unroutable class; empty `hits` routes every class.
  bool route_classes(std::span<const CacheEntry* const> hits);
  /// Economics and churn; returns the delta against the previous placement.
  core::PlacementDelta account(SlotReport& report) const;
  void cross_check(SlotReport& report) const;
  /// Arrivals, the DES window(s) and the pre-warm snapshot.
  void serve_window(SlotReport& report, const core::PlacementDelta& delta);
  /// Carries the slot's state forward, emits metrics, totals into report_.
  void close_slot(const SlotReport& report);

  /// (Re)creates the sharded coordinator against the current scenario —
  /// used at construction and on every substrate change.
  void rebuild_sharded();
  /// Fingerprint-bucketed exact lookup into the previous slot's cache.
  const CacheEntry* find_cached(const workload::UserRequest& rep) const;
  const SlotChaos* slot_chaos() const;  ///< null when chaos is disabled
  void emit_metrics(const SlotReport& report, const SlotChaos* chaos_slot);
  double slot_intensity(int slot) const;

  ServingConfig config_;
  /// metro_of[node] of the stitched substrate; filled before scenario_ in
  /// the init list (declaration order matters) and empty when metros == 0.
  std::vector<int> metro_of_;
  core::Scenario scenario_;
  std::vector<workload::UserRequest> templates_;
  std::vector<double> weights_;      ///< hotspot attachment weights
  std::vector<double> day_profile_;  ///< per-slot intensity multipliers
  /// Per-metro node lists and hotspot weights (cross-metro re-homing picks
  /// a weighted attach node inside the target metro). Empty when metros <= 1.
  std::vector<std::vector<net::NodeId>> metro_nodes_;
  std::vector<std::vector<double>> metro_weights_;
  util::Rng mobility_rng_;
  util::Rng drift_rng_;
  util::Rng cross_metro_rng_;
  core::OnlineSoCL online_;
  /// Sharded replan engine (null unless config.sharded). Recreated on every
  /// substrate change: a fresh coordinator's first step runs an implicit
  /// full solve with repriced = true — the required re-price on substrate
  /// change.
  std::unique_ptr<shard::ShardedSoCL> sharded_;
  core::RouteScratch scratch_;

  /// Chaos lane (both null when chaos is disabled). `healthy_network_` is
  /// the pristine substrate: full repair restores it by copy rather than
  /// via apply_failures(empty plan), which would drop base_bandwidth /
  /// channel_gain of the links.
  std::unique_ptr<net::EdgeNetwork> healthy_network_;
  std::unique_ptr<ChaosSchedule> chaos_;
  std::uint64_t last_substrate_epoch_ = 0;

  int slot_ = 0;
  /// Epoch of the workload the carried routes/assignment were built for; a
  /// slot whose set_requests() no-ops (same tuples) keeps it and skips even
  /// the assignment re-expansion.
  std::uint64_t last_epoch_ = 0;
  core::Placement placement_;
  core::Placement previous_placement_;
  bool have_previous_ = false;
  core::Assignment assignment_;
  /// Current slot's per-class entries (class-index order) and the
  /// fingerprint index over them, matched against next slot's classes.
  std::vector<CacheEntry> entries_;
  std::unordered_map<std::uint64_t, std::vector<int>> cache_index_;
  std::vector<CacheEntry> prev_entries_;
  std::unordered_map<std::uint64_t, std::vector<int>> prev_index_;
  /// Alg. 2 quota snapshot from the previous slot (ms × nodes), the
  /// pre-warm lookahead's prediction of where demand concentrates next.
  std::vector<std::uint8_t> prewarm_snapshot_;

  ServingReport report_;
};

}  // namespace socl::serve
