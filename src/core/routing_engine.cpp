#include "core/routing_engine.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "obs/sink.h"
#include "util/timer.h"

namespace socl::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void RoutingCounters::merge(const RoutingCounters& other) {
  routes_computed += other.routes_computed;
  cache_hits += other.cache_hits;
  reroutes_avoided += other.reroutes_avoided;
  candidates_scored += other.candidates_scored;
  cache_refreshes += other.cache_refreshes;
  refresh_seconds += other.refresh_seconds;
  score_seconds += other.score_seconds;
  kernel.merge(other.kernel);
}

RoutingEngine::RoutingEngine(const Scenario& scenario, int threads,
                             bool use_kernel)
    : scenario_(&scenario),
      router_(scenario),
      kernel_(use_kernel ? std::make_unique<ScoreKernel>(scenario) : nullptr),
      threads_(threads) {
  rebuild_class_index();
}

void RoutingEngine::rebuild_class_index() {
  classes_of_.assign(static_cast<std::size_t>(scenario_->num_microservices()),
                     {});
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& request = scenario_->request(classes[c].representative);
    for (const MsId m : request.chain) {
      auto& entries = classes_of_[static_cast<std::size_t>(m)];
      // Chain positions are visited in order, so a repeated microservice in
      // one chain would land adjacently — dedupe against the tail.
      if (entries.empty() || entries.back() != static_cast<int>(c)) {
        entries.push_back(static_cast<int>(c));
      }
    }
  }
  workload_epoch_seen_ = scenario_->workload_epoch();
}

RoutingEngine::SlotLease::SlotLease(RoutingEngine& engine) : engine_(&engine) {
  std::lock_guard<std::mutex> lock(engine.mutex_);
  for (auto& slot : engine.serial_slots_) {
    if (!slot->in_use) {
      slot->in_use = true;
      slot_ = slot.get();
      break;
    }
  }
  if (slot_ == nullptr) {
    engine.serial_slots_.push_back(std::make_unique<SerialSlot>());
    slot_ = engine.serial_slots_.back().get();
    slot_->in_use = true;
  }
}

RoutingEngine::SlotLease::~SlotLease() {
  std::lock_guard<std::mutex> lock(engine_->mutex_);
  slot_->in_use = false;
  engine_->counters_.merge(local_);
}

void RoutingEngine::merge_counters(const RoutingCounters& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.merge(local);
}

double RoutingEngine::class_cost(int c, const Placement& placement,
                                 ScoreContext& ctx) const {
  if (kernel_) return kernel_->class_cost(c, ctx.arena, ctx.counters.kernel);
  const auto& cls = scenario_->classes().cls(c);
  const auto& request = scenario_->request(cls.representative);
  return router_.route_cost(request, placement, ctx.scratch);
}

bool RoutingEngine::class_route(int c, const Placement& placement,
                                ScoreContext& ctx, RouteResult& out) const {
  if (kernel_) {
    return kernel_->class_route(c, ctx.arena, ctx.counters.kernel, out);
  }
  const auto& cls = scenario_->classes().cls(c);
  const auto& request = scenario_->request(cls.representative);
  return router_.route_into(request, placement, ctx.scratch, out);
}

util::ThreadPool& RoutingEngine::pool() {
  if (!pool_) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(threads_ > 0 ? threads_ : 0));
  }
  // Re-check the per-worker slots on every call: ThreadPool(0) resolves its
  // width to hardware concurrency only at construction, so `threads_` alone
  // cannot size the slots, and sizing only at first construction left them
  // permanently undersized for any later, wider pool.
  if (scratches_.size() < pool_->size()) scratches_.resize(pool_->size());
  if (arenas_.size() < pool_->size()) arenas_.resize(pool_->size());
  return *pool_;
}

double RoutingEngine::combine(double cost, double total_latency) const {
  const auto& constants = scenario_->constants();
  return constants.lambda * cost +
         (1.0 - constants.lambda) * constants.latency_weight * total_latency;
}

void RoutingEngine::refresh(const Placement& placement) {
  const obs::ScopedSpan span(sink_, obs::Phase::kRouting, "routing.refresh");
  util::WallTimer timer;
  // A mutated workload (regenerate_chains, mobility reattach) invalidates
  // the class partition, the per-microservice index, and the kernel's SoA
  // buffers; re-derive them here so no caller can score against a stale view.
  if (workload_epoch_seen_ != scenario_->workload_epoch()) {
    rebuild_class_index();
  }
  if (kernel_ && kernel_->sync()) ++counters_.kernel.rebuilds;
  const auto& classes = scenario_->classes().classes();
  const std::size_t n = classes.size();
  cached_latency_.assign(n, kInf);
  cached_routes_.resize(n);

  const bool fan_out = n >= 64 && (threads_ == 0 || threads_ > 1);
  // One bind generation for the whole refresh: every worker binds its arena
  // to `placement` once and fast-paths on every later class it routes.
  const std::uint64_t gen = next_bind_gen();
  if (!fan_out) {
    SlotLease lease(*this);
    ScoreContext ctx = lease.context();
    if (kernel_) kernel_->bind(ctx.arena, placement, gen);
    RouteResult route;
    for (std::size_t c = 0; c < n; ++c) {
      const bool ok = class_route(static_cast<int>(c), placement, ctx, route);
      ++ctx.counters.routes_computed;
      cached_latency_[c] = ok ? route.total() : kInf;
      auto& cached = cached_routes_[c];
      if (ok) {
        cached.assign(route.nodes.begin(), route.nodes.end());
      } else {
        cached.clear();
      }
    }
  } else {
    util::ThreadPool& workers = pool();
    std::vector<RoutingCounters> worker_counters(workers.size());
    std::vector<RouteResult> worker_routes(workers.size());
    workers.parallel_for_workers(n, [&](std::size_t worker, std::size_t i) {
      assert(worker < scratches_.size() && worker < arenas_.size());
      ScoreContext ctx{scratches_[worker], worker_counters[worker],
                       arenas_[worker]};
      if (kernel_) kernel_->bind(ctx.arena, placement, gen);
      RouteResult& route = worker_routes[worker];
      const bool ok = class_route(static_cast<int>(i), placement, ctx, route);
      ++ctx.counters.routes_computed;
      cached_latency_[i] = ok ? route.total() : kInf;
      auto& cached = cached_routes_[i];
      if (ok) {
        cached.assign(route.nodes.begin(), route.nodes.end());
      } else {
        cached.clear();
      }
    });
    for (const auto& wc : worker_counters) merge_counters(wc);
  }
  // Fixed-order serial reduction: each class's latency is a pure function of
  // (class, placement), so summing by ascending class index makes the total
  // bit-identical to the serial loop at any thread count.
  cached_latency_sum_ = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    cached_latency_sum_ += classes[c].weight * cached_latency_[c];
  }
  ++epoch_;
  ++counters_.cache_refreshes;
  counters_.refresh_seconds += timer.elapsed_seconds();
}

double RoutingEngine::objective_without(MsId m, NodeId k,
                                        const Placement& trial,
                                        ScoreContext& ctx) const {
  // An unroutable cached placement scores +inf for every neighbour reachable
  // by a removal; bail before the per-class deltas can turn inf into NaN.
  if (!std::isfinite(cached_latency_sum_)) return kInf;
  if (kernel_) kernel_->bind(ctx.arena, trial, next_bind_gen());
  // Removing (m, k) can only affect classes whose current optimal route
  // sends some occurrence of m to k — everyone else's optimum is still
  // available in the smaller feasible set. This cuts removal scans by
  // roughly the replica count.
  double latency = cached_latency_sum_;
  for (const int c : classes_of_[static_cast<std::size_t>(m)]) {
    const auto& cls = scenario_->classes().cls(c);
    const auto& request = scenario_->request(cls.representative);
    const auto& route = cached_routes_[static_cast<std::size_t>(c)];
    bool affected = route.empty();
    if (!affected) {
      // Scan every chain position: a chain may visit m more than once, and
      // any occurrence routed to k invalidates the cached latency.
      for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
        if (request.chain[pos] == m && route[pos] == k) {
          affected = true;
          break;
        }
      }
    }
    if (!affected) {
      ++ctx.counters.reroutes_avoided;
      ++ctx.counters.cache_hits;
      continue;
    }
    const double rerouted = class_cost(c, trial, ctx);
    ++ctx.counters.routes_computed;
    if (rerouted == kInf) return kInf;
    latency +=
        cls.weight * (rerouted - cached_latency_[static_cast<std::size_t>(c)]);
  }
  return combine(trial.deployment_cost(scenario_->catalog()), latency);
}

double RoutingEngine::objective_without(MsId m, NodeId k,
                                        const Placement& trial) {
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  return objective_without(m, k, trial, ctx);
}

double RoutingEngine::objective_with_change(const Placement& trial,
                                            MsId changed,
                                            ScoreContext& ctx) const {
  if (!std::isfinite(cached_latency_sum_)) return kInf;
  if (kernel_) kernel_->bind(ctx.arena, trial, next_bind_gen());
  double latency = cached_latency_sum_;
  for (const int c : classes_of_[static_cast<std::size_t>(changed)]) {
    const auto& cls = scenario_->classes().cls(c);
    const double rerouted = class_cost(c, trial, ctx);
    ++ctx.counters.routes_computed;
    if (rerouted == kInf) return kInf;
    latency +=
        cls.weight * (rerouted - cached_latency_[static_cast<std::size_t>(c)]);
  }
  return combine(trial.deployment_cost(scenario_->catalog()), latency);
}

double RoutingEngine::objective_with_change(const Placement& trial,
                                            MsId changed) {
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  return objective_with_change(trial, changed, ctx);
}

double RoutingEngine::full_objective(const Placement& placement,
                                     ScoreContext& ctx) const {
  if (kernel_) kernel_->bind(ctx.arena, placement, next_bind_gen());
  double latency = 0.0;
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const double d = class_cost(static_cast<int>(c), placement, ctx);
    ++ctx.counters.routes_computed;
    if (d == kInf) return kInf;
    latency += classes[c].weight * d;
  }
  return combine(placement.deployment_cost(scenario_->catalog()), latency);
}

double RoutingEngine::full_objective(const Placement& placement) {
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  return full_objective(placement, ctx);
}

bool RoutingEngine::any_deadline_violation(const Placement& placement) {
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  if (kernel_) kernel_->bind(ctx.arena, placement, next_bind_gen());
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& request =
        scenario_->request(classes[c].representative);
    const double d = class_cost(static_cast<int>(c), placement, ctx);
    ++ctx.counters.routes_computed;
    // route_cost is +inf for unroutable classes, which trips the deadline.
    if (d > request.deadline + 1e-9) return true;
  }
  return false;
}

std::vector<double> RoutingEngine::score_candidates(
    std::size_t n,
    const std::function<double(std::size_t, ScoreContext&)>& score) {
  const obs::ScopedSpan span(sink_, obs::Phase::kRouting,
                             "routing.score_candidates");
  util::WallTimer timer;
  std::vector<double> results(n, kInf);
  RoutingCounters local;
  local.candidates_scored = static_cast<std::int64_t>(n);

  // Small batches are not worth the dispatch; the serial path leases a
  // checkout slot like the convenience entry points, so it never aliases a
  // fan-out worker's scratch even when called concurrently.
  const bool fan_out = n >= 8 && (threads_ == 0 || threads_ > 1);
  if (!fan_out) {
    {
      SlotLease lease(*this);
      ScoreContext ctx = lease.context();
      for (std::size_t i = 0; i < n; ++i) results[i] = score(i, ctx);
    }
    local.score_seconds = timer.elapsed_seconds();
    merge_counters(local);
    return results;
  }

  util::ThreadPool& workers = pool();
  std::vector<RoutingCounters> worker_counters(workers.size());
  workers.parallel_for_workers(n, [&](std::size_t worker, std::size_t i) {
    assert(worker < scratches_.size() && worker < arenas_.size());
    ScoreContext ctx{scratches_[worker], worker_counters[worker],
                     arenas_[worker]};
    results[i] = score(i, ctx);
  });
  // Integer counters are summed, so the merge order cannot change totals.
  for (const auto& wc : worker_counters) local.merge(wc);
  local.score_seconds = timer.elapsed_seconds();
  merge_counters(local);
  return results;
}

std::optional<Assignment> RoutingEngine::route_all(
    const Placement& placement) {
  const obs::ScopedSpan span(sink_, obs::Phase::kRouting, "routing.route_all");
  Assignment assignment(*scenario_);
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  if (kernel_) kernel_->bind(ctx.arena, placement, next_bind_gen());
  RouteResult routed;
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const bool ok = class_route(static_cast<int>(c), placement, ctx, routed);
    ++ctx.counters.routes_computed;
    if (!ok) return std::nullopt;
    for (const int member : classes[c].members) {
      assignment.set_user_route(member, routed.nodes);
    }
  }
  return assignment;
}

}  // namespace socl::core
