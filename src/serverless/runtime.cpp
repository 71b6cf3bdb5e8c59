#include "serverless/runtime.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "obs/sink.h"
#include "serverless/event_queue.h"
#include "util/rng.h"

namespace socl::serverless {
namespace {

enum class EventKind : std::uint8_t {
  kArrival = 0,
  kStageArrive = 1,
  kStageDone = 2,
  kContainerReady = 3,
  kContainerExpire = 4,
  kPolicyTick = 5,
  kRequestDone = 6,
};

/// What an event does; its time and push order live in the queue's key.
struct Event {
  int a = -1;
  int b = -1;
  int c = -1;
  EventKind kind = EventKind::kArrival;
};

/// Counter-keyed stream derivation (SplitMix64 finishes the mixing inside
/// the Rng constructor): pure in (seed, a, b, c), so draws do not depend on
/// event-processing history.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0) {
  std::uint64_t h = seed;
  h ^= 0x9E3779B97F4A7C15ULL * (a + 1);
  h ^= 0xBF58476D1CE4E5B9ULL * (b + 1);
  h ^= 0x94D049BB133111EBULL * (c + 1);
  return h;
}

/// Log-normal draw with the requested *mean* (not median).
double lognormal_mean(util::Rng& rng, double mean, double sigma) {
  if (mean <= 0.0) return 0.0;
  if (sigma <= 0.0) return mean;
  return std::exp(rng.normal(std::log(mean) - 0.5 * sigma * sigma, sigma));
}

enum class ContainerState : std::uint8_t { kStarting, kWarm, kExpired };

struct Container {
  double ready_at = 0.0;
  double cold_duration = 0.0;
  int busy = 0;
  /// Idle-period token: bumped whenever the container picks up work, which
  /// invalidates the expiry event scheduled for the previous idle period.
  int gen = 0;
  ContainerState state = ContainerState::kWarm;
};

struct Pending {
  int job = -1;
  double since = 0.0;
};

struct Pool {
  NodeId node = net::kInvalidNode;
  MsId ms = workload::kInvalidMs;
  std::vector<Container> containers;
  std::deque<Pending> queue;
  int live = 0;      ///< starting + warm containers
  int starting = 0;
  int busy_slots = 0;
  int boots = 0;  ///< boot counter, keys the cold-start RNG stream
};

/// One chain position of an arriving user's route (pure function of
/// scenario + assignment).
struct Stage {
  double transfer_in = 0.0;  ///< into this position (first: d_in)
  double proc_base = 0.0;    ///< q(m)/c(v_k) at the assigned node
  int pool = -1;
};

/// An arriving user's route: stages [first, first + len).
struct Route {
  std::size_t first = 0;
  std::size_t len = 0;
  double d_out = 0.0;
  double deadline = 0.0;  ///< D_h^max
};

struct Job {
  int user = -1;
  int seq = 0;
  int route = -1;
  std::size_t pos = 0;
  double arrival = 0.0;
  double queue_s = 0.0;
  double cold_s = 0.0;
  double transfer_s = 0.0;
  double proc_s = 0.0;
};

}  // namespace

double RuntimeMetrics::mean_latency_s() const {
  if (requests.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : requests) sum += r.total_s();
  return sum / static_cast<double>(requests.size());
}

double RuntimeMetrics::mean_cold_s() const {
  if (requests.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : requests) sum += r.cold_s;
  return sum / static_cast<double>(requests.size());
}

ServerlessRuntime::ServerlessRuntime(const core::Scenario& scenario,
                                     ServerlessConfig config)
    : scenario_(&scenario), config_(config) {
  if (config_.concurrency < 1 || config_.max_containers_per_pool < 1) {
    throw std::invalid_argument(
        "ServerlessRuntime: concurrency and pool capacity must be >= 1");
  }
  if (config_.cold_start_mean_s < 0.0 || config_.keep_alive_s < 0.0) {
    throw std::invalid_argument("ServerlessRuntime: negative parameter");
  }
}

RuntimeMetrics ServerlessRuntime::run(
    const core::Placement& placement, const core::Assignment& assignment,
    std::span<const Arrival> arrivals, const ScalingPolicy& policy,
    std::uint64_t seed, const core::Placement* carried,
    std::vector<EventRecord>* event_log) const {
  const obs::ScopedSpan run_span(config_.sink, obs::Phase::kServerless,
                                 "serverless.run");
  const auto& scenario = *scenario_;
  const auto& catalog = scenario.catalog();
  const auto& network = scenario.network();
  const auto& vlinks = scenario.vlinks();
  const int nodes = scenario.num_nodes();
  const int num_ms = scenario.num_microservices();
  const int cap = config_.max_containers_per_pool;
  const int concurrency = config_.concurrency;

  // ---- Pools for every deployed instance ----
  std::vector<int> pool_of(
      static_cast<std::size_t>(num_ms) * static_cast<std::size_t>(nodes), -1);
  std::vector<Pool> pools;
  for (MsId m = 0; m < num_ms; ++m) {
    for (NodeId k = 0; k < nodes; ++k) {
      if (!placement.deployed(m, k)) continue;
      pool_of[static_cast<std::size_t>(m) * static_cast<std::size_t>(nodes) +
              static_cast<std::size_t>(k)] = static_cast<int>(pools.size());
      Pool pool;
      pool.node = k;
      pool.ms = m;
      pools.push_back(std::move(pool));
    }
  }

  // ---- Every user's assignment must hit deployed instances ----
  const auto& requests = scenario.requests();
  for (const auto& request : requests) {
    const auto route = assignment.user_route(request.id);
    if (route.size() < request.chain.size()) {
      throw std::out_of_range("ServerlessRuntime: assignment route too short");
    }
    for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
      if (pool_of[static_cast<std::size_t>(request.chain[pos]) *
                      static_cast<std::size_t>(nodes) +
                  static_cast<std::size_t>(route[pos])] < 0) {
        throw std::invalid_argument(
            "ServerlessRuntime: assignment uses an undeployed instance");
      }
    }
  }

  // ---- Jobs (one per arrival) and route tables of the arriving users ----
  // A user's route is built the first time they arrive; users without
  // arrivals cost nothing beyond the check above.
  std::vector<int> route_of(requests.size(), -1);
  std::vector<Route> routes;
  std::vector<Stage> stages;
  const auto build_route = [&](const workload::UserRequest& request) {
    const auto nodes_of = assignment.user_route(request.id);
    Route route;
    route.first = stages.size();
    route.len = request.chain.size();
    route.deadline = request.deadline;
    NodeId prev = request.attach_node;
    for (std::size_t pos = 0; pos < route.len; ++pos) {
      const NodeId k = nodes_of[pos];
      const MsId m = request.chain[pos];
      Stage stage;
      stage.pool = pool_of[static_cast<std::size_t>(m) *
                               static_cast<std::size_t>(nodes) +
                           static_cast<std::size_t>(k)];
      const double data =
          pos == 0 ? request.data_in : request.edge_data[pos - 1];
      stage.transfer_in = vlinks.transfer_time(data, prev, k);
      stage.proc_base = catalog.microservice(m).compute_gflop /
                        network.node(k).compute_gflops;
      stages.push_back(stage);
      prev = k;
    }
    route.d_out = vlinks.transfer_time(request.data_out, prev, nodes_of[0]);
    routes.push_back(route);
  };
  const auto stage_at = [&](const Job& job, std::size_t pos) -> const Stage& {
    return stages[routes[static_cast<std::size_t>(job.route)].first + pos];
  };
  std::vector<Job> jobs;
  jobs.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& arrival = arrivals[i];
    if (arrival.user < 0 ||
        static_cast<std::size_t>(arrival.user) >= requests.size()) {
      throw std::invalid_argument("ServerlessRuntime: arrival user id");
    }
    if (i > 0 && arrival.time_s < arrivals[i - 1].time_s) {
      throw std::invalid_argument(
          "ServerlessRuntime: arrivals not sorted by time");
    }
    int& route = route_of[static_cast<std::size_t>(arrival.user)];
    if (route < 0) {
      route = static_cast<int>(routes.size());
      build_route(requests[static_cast<std::size_t>(arrival.user)]);
    }
    Job job;
    job.user = arrival.user;
    job.seq = arrival.seq;
    job.route = route;
    job.arrival = arrival.time_s;
    jobs.push_back(job);
  }

  RuntimeMetrics metrics;
  metrics.requests.reserve(arrivals.size());
  RuntimeTotals& totals = metrics.totals;

  // ---- Event queue ----
  EventQueue<Event> eq;
  const auto push = [&](double t, EventKind kind, int a = -1, int b = -1,
                        int c = -1) { eq.push(t, Event{a, b, c, kind}); };

  int live_total = 0;

  // ---- Container lifecycle helpers ----
  const auto schedule_expire = [&](int pi, int ci, double now) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    Container& c = pool.containers[static_cast<std::size_t>(ci)];
    double life = std::max(config_.keep_alive_s, 0.0);
    if (life > 0.0 && config_.keep_alive_sigma > 0.0) {
      util::Rng rng(mix(seed ^ 0x6B656570ULL, static_cast<std::uint64_t>(pi),
                        static_cast<std::uint64_t>(ci),
                        static_cast<std::uint64_t>(c.gen)));
      life = lognormal_mean(rng, config_.keep_alive_s, config_.keep_alive_sigma);
    }
    push(now + life, EventKind::kContainerExpire, pi, ci, c.gen);
  };

  const auto boot = [&](int pi, double now, bool prewarm) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    if (pool.live >= cap) return false;
    util::Rng rng(mix(seed ^ 0xC01D5A17ULL, static_cast<std::uint64_t>(pi),
                      static_cast<std::uint64_t>(pool.boots)));
    const double cold = lognormal_mean(rng, config_.cold_start_mean_s,
                                       config_.cold_start_sigma);
    ++pool.boots;
    const int ci = static_cast<int>(pool.containers.size());
    Container c;
    c.ready_at = now + cold;
    c.cold_duration = cold;
    c.state = ContainerState::kStarting;
    pool.containers.push_back(c);
    ++pool.live;
    ++pool.starting;
    ++live_total;
    totals.peak_live = std::max(totals.peak_live, live_total);
    ++(prewarm ? totals.prewarm_boots : totals.demand_boots);
    push(c.ready_at, EventKind::kContainerReady, pi, ci);
    return true;
  };

  const auto add_warm = [&](int pi) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    if (pool.live >= cap) return;
    const int ci = static_cast<int>(pool.containers.size());
    pool.containers.push_back(Container{});
    ++pool.live;
    ++live_total;
    totals.peak_live = std::max(totals.peak_live, live_total);
    ++totals.initial_warm;
    schedule_expire(pi, ci, 0.0);
  };

  const auto start_service = [&](int pi, int ci, int ji, double now,
                                 double since, bool immediate) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    Container& c = pool.containers[static_cast<std::size_t>(ci)];
    if (c.busy == 0) ++c.gen;  // cancel the idle-period expiry
    ++c.busy;
    ++pool.busy_slots;
    Job& job = jobs[static_cast<std::size_t>(ji)];
    ++totals.invocations;
    if (immediate) {
      ++totals.warm_hits;
    } else {
      const double wait = now - since;
      const double cold_part =
          c.ready_at > since ? std::min(wait, c.ready_at - since) : 0.0;
      job.cold_s += cold_part;
      job.queue_s += wait - cold_part;
      ++(cold_part > 0.0 ? totals.cold_serves : totals.queue_serves);
    }
    double proc = stage_at(job, job.pos).proc_base;
    if (config_.proc_jitter_sigma > 0.0) {
      util::Rng rng(mix(seed ^ 0x9D0C3551ULL,
                        static_cast<std::uint64_t>(job.user),
                        static_cast<std::uint64_t>(job.seq),
                        static_cast<std::uint64_t>(job.pos)));
      proc *= lognormal_mean(rng, 1.0, config_.proc_jitter_sigma);
    }
    job.proc_s += proc;
    push(now + proc, EventKind::kStageDone, ji, pi, ci);
  };

  const auto find_free = [&](const Pool& pool) {
    for (std::size_t ci = 0; ci < pool.containers.size(); ++ci) {
      const Container& c = pool.containers[ci];
      if (c.state == ContainerState::kWarm && c.busy < concurrency) {
        return static_cast<int>(ci);
      }
    }
    return -1;
  };

  const auto drain = [&](int pi, int ci, double now) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    Container& c = pool.containers[static_cast<std::size_t>(ci)];
    while (!pool.queue.empty() && c.state == ContainerState::kWarm &&
           c.busy < concurrency) {
      const Pending pending = pool.queue.front();
      pool.queue.pop_front();
      start_service(pi, ci, pending.job, now, pending.since,
                    /*immediate=*/false);
    }
  };

  // ---- Initial pool state ----
  // Steady-state windows (carried == nullptr) open with the policy's warm
  // set for free. With a carried placement, only surviving instances keep a
  // warm container across the boundary; churned-in instances must boot at
  // rollout (paying real cold starts on the requests that hit them early).
  for (std::size_t pi = 0; pi < pools.size(); ++pi) {
    const Pool& pool = pools[pi];
    int want = std::clamp(
        policy.initial_warm(scenario, placement, pool.node, pool.ms), 0, cap);
    const bool carried_warm =
        carried == nullptr || (pool.ms < carried->num_microservices() &&
                               pool.node < carried->num_nodes() &&
                               carried->deployed(pool.ms, pool.node));
    if (carried_warm) {
      if (carried != nullptr) want = std::max(want, 1);
      for (int i = 0; i < want; ++i) add_warm(static_cast<int>(pi));
    } else {
      for (int i = 0; i < want; ++i) {
        if (!boot(static_cast<int>(pi), 0.0, /*prewarm=*/true)) break;
      }
    }
  }

  // ---- Seed events: arrivals and policy ticks ----
  // Arrivals are not queued: they take the next arrivals.size() push orders
  // and the loop merges the sorted stream with the queue by (time, order),
  // so every event is processed exactly where a queued arrival would be.
  const std::uint64_t arrival_order = eq.reserve_orders(arrivals.size());
  const double horizon =
      arrivals.empty() ? 0.0 : arrivals[arrivals.size() - 1].time_s;
  if (config_.policy_tick_s > 0.0) {
    for (double t = config_.policy_tick_s; t <= horizon;
         t += config_.policy_tick_s) {
      push(t, EventKind::kPolicyTick);
    }
  }

  // ---- Event loop ----
  std::size_t next_arrival = 0;
  for (;;) {
    double now;
    Event event;
    if (next_arrival < arrivals.size() &&
        (eq.empty() ||
         arrivals[next_arrival].time_s < eq.top_time() ||
         (arrivals[next_arrival].time_s == eq.top_time() &&
          arrival_order + next_arrival < eq.top_order()))) {
      now = arrivals[next_arrival].time_s;
      event.a = static_cast<int>(next_arrival++);
    } else if (!eq.empty()) {
      now = eq.top_time();
      event = eq.pop();
    } else {
      break;
    }
    if (event_log != nullptr) {
      event_log->push_back(EventRecord{now, static_cast<int>(event.kind),
                                       event.a, event.b, event.c});
    }

    switch (event.kind) {
      case EventKind::kArrival: {
        const int ji = event.a;
        Job& job = jobs[static_cast<std::size_t>(ji)];
        job.pos = 0;
        const double d_in = stage_at(job, 0).transfer_in;
        job.transfer_s += d_in;
        push(now + d_in, EventKind::kStageArrive, ji, 0);
        break;
      }
      case EventKind::kStageArrive: {
        const int ji = event.a;
        Job& job = jobs[static_cast<std::size_t>(ji)];
        job.pos = static_cast<std::size_t>(event.b);
        const int pi = stage_at(job, job.pos).pool;
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        const int ci = find_free(pool);
        if (ci >= 0) {
          start_service(pi, ci, ji, now, now, /*immediate=*/true);
        } else {
          pool.queue.push_back(Pending{ji, now});
          PoolView view;
          view.node = pool.node;
          view.ms = pool.ms;
          view.warm = pool.live - pool.starting;
          view.starting = pool.starting;
          view.busy_slots = pool.busy_slots;
          view.queue_len = static_cast<int>(pool.queue.size());
          view.concurrency = concurrency;
          view.capacity = cap;
          int want = policy.on_demand_miss(view);
          // Liveness: an empty pool with a queue-only policy would strand
          // the request forever; the platform always runs the function.
          if (want <= 0 && pool.live == 0) want = 1;
          for (int i = 0; i < want; ++i) {
            if (!boot(pi, now, /*prewarm=*/false)) break;
          }
        }
        break;
      }
      case EventKind::kStageDone: {
        const int ji = event.a;
        const int pi = event.b;
        const int ci = event.c;
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        Container& c = pool.containers[static_cast<std::size_t>(ci)];
        --c.busy;
        --pool.busy_slots;
        drain(pi, ci, now);
        if (c.busy == 0 && c.state == ContainerState::kWarm) {
          schedule_expire(pi, ci, now);
        }
        Job& job = jobs[static_cast<std::size_t>(ji)];
        const Route& route = routes[static_cast<std::size_t>(job.route)];
        if (job.pos + 1 < route.len) {
          const double tr = stage_at(job, job.pos + 1).transfer_in;
          job.transfer_s += tr;
          push(now + tr, EventKind::kStageArrive, ji,
               static_cast<int>(job.pos + 1));
        } else {
          job.transfer_s += route.d_out;
          push(now + route.d_out, EventKind::kRequestDone, ji);
        }
        break;
      }
      case EventKind::kContainerReady: {
        const int pi = event.a;
        const int ci = event.b;
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        Container& c = pool.containers[static_cast<std::size_t>(ci)];
        c.state = ContainerState::kWarm;
        --pool.starting;
        drain(pi, ci, now);
        if (c.busy == 0) schedule_expire(pi, ci, now);
        break;
      }
      case EventKind::kContainerExpire: {
        const int pi = event.a;
        const int ci = event.b;
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        Container& c = pool.containers[static_cast<std::size_t>(ci)];
        if (c.state == ContainerState::kWarm && c.busy == 0 &&
            c.gen == event.c) {
          c.state = ContainerState::kExpired;
          --pool.live;
          --live_total;
          ++totals.expirations;
        }
        break;
      }
      case EventKind::kPolicyTick: {
        for (std::size_t pi = 0; pi < pools.size(); ++pi) {
          const Pool& pool = pools[pi];
          const int floor =
              std::min(policy.warm_floor(scenario, pool.node, pool.ms), cap);
          for (int have = pool.live; have < floor; ++have) {
            if (!boot(static_cast<int>(pi), now, /*prewarm=*/true)) break;
          }
        }
        break;
      }
      case EventKind::kRequestDone: {
        const Job& job = jobs[static_cast<std::size_t>(event.a)];
        RequestOutcome outcome;
        outcome.user = job.user;
        outcome.seq = job.seq;
        outcome.arrival_s = job.arrival;
        outcome.finish_s = now;
        outcome.queue_s = job.queue_s;
        outcome.cold_s = job.cold_s;
        outcome.transfer_s = job.transfer_s;
        outcome.proc_s = job.proc_s;
        if (outcome.total_s() <=
            routes[static_cast<std::size_t>(job.route)].deadline) {
          ++totals.slo_met;
        }
        metrics.requests.push_back(outcome);
        break;
      }
    }
  }

  if (config_.sink != nullptr) {
    obs::ObsSink* const sink = config_.sink;
    sink->add_counter("socl.serverless.runs", 1);
    sink->add_counter("socl.serverless.invocations", totals.invocations);
    sink->add_counter("socl.serverless.warm_hits", totals.warm_hits);
    sink->add_counter("socl.serverless.cold_serves", totals.cold_serves);
    sink->add_counter("socl.serverless.queue_serves", totals.queue_serves);
    sink->add_counter("socl.serverless.demand_boots", totals.demand_boots);
    sink->add_counter("socl.serverless.prewarm_boots", totals.prewarm_boots);
    sink->add_counter("socl.serverless.expirations", totals.expirations);
    sink->set_gauge("socl.serverless.peak_live",
                    static_cast<double>(totals.peak_live));
    for (const RequestOutcome& outcome : metrics.requests) {
      sink->observe("socl.serverless.request_total_s", outcome.total_s());
      sink->observe("socl.serverless.request_queue_s", outcome.queue_s);
      sink->observe("socl.serverless.request_cold_s", outcome.cold_s);
    }
  }
  return metrics;
}

}  // namespace socl::serverless
