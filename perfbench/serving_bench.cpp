// Serving-day benchmark driver: serves one cell of a named workload and
// prints its raw figures as one JSON line; perfbench/run.py runs the cells
// of a run and turns their figures into the benchmark's metrics.
//
//   serving_bench --workload steady|rush|storm --seed N --cell I
//                 --trace 0|1 --scratch DIR
//
// A workload is a fleet of independent edge sites ("cells"). Cell I is one
// ServingLoop day whose ServingConfig::seed is derived from --seed and I, so
// the same (seed, cell) always serves the same inputs. The untraced day is
// timed (construction, Σ step(), per-slot control latency) and its process
// peak RSS is recorded. With --trace 1 the same day is then served again
// with an obs::Recorder attached through ServingConfig::sink and
// online.socl.sink; after every traced step() the driver replays public
// layer calls (the probes) on copies of the slot state the loop exposes,
// outside the step timing.
//
// Correctness checks (any failure is listed under "checks" and makes the
// exit code 1):
//   - no step() throws; with the cross-check lane on, the full re-route
//     matches and the validator reports zero violations on every slot;
//   - traced runs: the traced day writes the same serving CSV, byte for
//     byte, as the untraced one (neither tracing nor probes perturb
//     decisions); DES counters are conserved (invocations == warm + cold +
//     queued); Σ slot requests equals socl.serve.requests and Σ slot
//     invocations equals socl.serverless.invocations; the DES completes
//     every generated arrival; the probe re-route and validator agree with
//     the cross-check lane.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/routing.h"
#include "core/scenario.h"
#include "obs/recorder.h"
#include "serve/serving_loop.h"
#include "serverless/arrivals.h"
#include "util/rng.h"
#include "util/timer.h"
#include "validate/validator.h"
#include "workload/mobility.h"
#include "workload/request_gen.h"

namespace {

using socl::serve::ServingConfig;
using socl::serve::ServingLoop;
using socl::serve::ServingReport;
using socl::serve::SlotReport;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  ServingConfig (*make)(std::uint64_t seed);
};

/// ServingConfig::seed of one cell (SplitMix64 finaliser over the run seed
/// and the cell index).
std::uint64_t cell_seed(std::uint64_t seed, int cell) {
  std::uint64_t z =
      seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(cell + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Makes every priced coordinator solve run the same number of dual
/// iterations: no early stop on the slackness gap (a feasible first iterate
/// at price 0 still stops it, which a binding budget rules out, and so does
/// a bracket resolved to 1e-3, which six iterations do not reach). With the
/// default tolerance a re-price runs 1 to 18 iterations depending on where
/// the frozen price lands, so per-slot control latency is spread over a
/// 20x range and its median and tail swing from seed to seed;
/// shard.iterations_per_solve still shows the iteration count.
void fixed_price_search(ServingConfig& c) {
  c.shard.max_iterations = 6;
  c.shard.gap_tolerance = 0.0;
}

/// One substrate, unsharded, dense population, sparse arrivals on
/// scale-to-zero pools (1 s keep-alive): nearly every slot is carried or
/// incremental, so the O(users) per-slot floor dominates.
ServingConfig steady_config(std::uint64_t seed) {
  ServingConfig c;
  c.scenario.num_nodes = 16;
  c.scenario.num_users = 100;  // templates
  c.population = 50'000;
  c.slots = 12;
  c.slot_horizon_s = 30.0;
  c.arrivals.mean_rate = 1e-3;
  c.runtime.keep_alive_s = 1.0;
  c.mobility.move_prob = 0.3;
  c.drift_prob = 0.02;
  c.full_replan_period = 0;
  c.seed = seed;
  return c;
}

/// Four sharded metros with cross-metro commuters at near-saturation
/// arrival rates (~150 requests/s per node): the DES event loop dominates.
ServingConfig rush_config(std::uint64_t seed) {
  ServingConfig c;
  c.metros = 4;
  c.sharded = true;
  c.scenario.num_nodes = 4;  // per metro
  // 40 templates make each priced opening solve ~40-100 ms: long enough
  // that a host stall of a few ms does not decide the tail.
  c.scenario.num_users = 40;
  // A budget that binds on every instance, so the opening solve of every
  // cell is a priced solve of fixed length (fixed_price_search): the
  // cells' slot-1 solves form the control-latency tail, a structural slot
  // class rather than the top of the ~5 ms incremental slots, where one
  // host stall decides the percentile.
  c.scenario.constants.budget = 6500.0 * 1.5;
  fixed_price_search(c);
  c.population = 8'000;
  c.slots = 8;
  c.slot_horizon_s = 10.0;
  c.arrivals.mean_rate = 0.3;
  c.mobility.move_prob = 0.3;
  c.drift_prob = 0.02;
  c.cross_metro_prob = 0.05;
  // Demand drift is absorbed by the incremental rung: only slot 1 solves.
  c.replan_weight_threshold = 0.5;
  c.full_replan_period = 0;
  c.seed = seed;
  return c;
}

/// Four small sharded metros under the chaos lane with the cross-check lane
/// on: every slot after the first changes the substrate, which forces a
/// coordinator rebuild and a global re-price, so shard.solve dominates; each
/// slot also runs the full re-route and the validator. Short days (three
/// slots) keep many independent instances in a run.
ServingConfig storm_config(std::uint64_t seed) {
  ServingConfig c;
  c.metros = 4;
  c.sharded = true;
  c.scenario.num_nodes = 4;  // per metro
  // Three times the default node storage, so that a metro which loses
  // nodes to the chaos lane can still host its microservices. A price
  // search that ends without a feasible iterate falls back to quotas, and
  // the quota re-solve can overspend the budget (Eq. 5) or overflow a
  // node's storage (Eq. 6); ample storage and six iterations keep the
  // search from ending there.
  c.scenario.topology.storage_min_units = 12.0;
  c.scenario.topology.storage_max_units = 24.0;
  c.scenario.num_users = 10;
  // A budget that binds on every instance once the chaos lane has changed
  // the substrate, so every re-price runs the whole price search
  // (fixed_price_search); the opening solve still fits it at price 0. With
  // a looser budget it binds on some instances and not others, and the
  // per-slot cost swings tenfold from seed to seed.
  c.scenario.constants.budget = 6500.0 * 3;
  fixed_price_search(c);
  c.population = 5'000;
  c.slots = 3;
  c.slot_horizon_s = 10.0;
  c.arrivals.mean_rate = 0.2;
  c.mobility.move_prob = 0.3;
  c.drift_prob = 0.02;
  c.cross_metro_prob = 0.05;
  c.full_replan_period = 0;
  c.cross_check = true;
  c.chaos.enabled = true;
  // Link failures and repairs land on nearly every slot, so almost every
  // slot rebuilds the coordinator.
  c.chaos.node_failure_rate = 0.06;
  c.chaos.link_failure_rate = 0.2;
  c.chaos.repair_median_slots = 1.5;
  c.chaos.repair_sigma = 0.5;
  // No flash crowds: one would triple a cell's invocations, so the pooled
  // cold-start rate of a run would follow the few cells that drew one.
  c.chaos.flash_crowd_rate = 0.0;
  c.seed = seed;
  return c;
}

const Workload kWorkloads[] = {
    {"steady", steady_config},
    {"rush", rush_config},
    {"storm", storm_config},
};

// ------------------------------------------------------------------ helpers

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string slurp_and_remove(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    text = out.str();
  }
  std::remove(path.c_str());
  return text;
}

/// Collects check failures; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ------------------------------------------------------------ one day

/// Per-slot replays of public layer calls on copies of the slot state
/// (traced days only). Times are summed over the day, in milliseconds.
struct Probes {
  double mobility_ms = 0.0;
  double set_requests_ms = 0.0;
  double set_network_ms = 0.0;
  double route_all_ms = 0.0;
  double validate_ms = 0.0;
  double arrivals_ms = 0.0;
  std::int64_t arrivals = 0;
  std::int64_t validate_violations = 0;
  int substrate_changes = 0;
  int converged_solves = 0;
  double peak_live = 0.0;
};

struct Day {
  double setup_s = 0.0;
  double steps_s = 0.0;  ///< Σ wall time of step()
  std::vector<double> control_ms;
  int slots_attempted = 0;
  int slots_failed = 0;
  std::optional<ServingReport> report;  ///< set when every slot ran
  std::string csv;
  Usage usage;  ///< rusage accumulated across step() calls
  Probes probes;
};

/// Runs one whole day. With `recorder` non-null the day is traced: the
/// recorder is attached through the public sink fields and the probes run
/// after every step.
Day run_day(const ServingConfig& base, socl::obs::Recorder* recorder,
            const std::string& csv_path, Checks& checks) {
  ServingConfig config = base;
  if (recorder != nullptr) {
    config.sink = recorder;
    config.online.socl.sink = recorder;
  }
  Day day;
  socl::util::WallTimer setup_timer;
  ServingLoop loop(config);
  day.setup_s = setup_timer.elapsed_seconds();

  // Probe state: a shadow Scenario that trails the loop's by one slot, the
  // mobility model's attachment weights (public generator, same seed
  // derivation as the loop), and a private mobility stream.
  std::unique_ptr<socl::core::Scenario> shadow;
  std::vector<double> weights;
  socl::util::Rng probe_rng(config.seed ^ 0x9b0be5ULL);
  std::int64_t prev_shard_solves = 0;
  if (recorder != nullptr) {
    socl::util::Rng weight_rng(config.seed ^ 0xabcdULL);
    weights = socl::workload::attachment_weights(
        static_cast<std::size_t>(loop.scenario().num_nodes()),
        config.scenario.requests, weight_rng);
  }

  for (int s = 0; s < config.slots; ++s) {
    std::vector<socl::workload::UserRequest> before;
    if (recorder != nullptr) before = loop.scenario().requests();

    ++day.slots_attempted;
    const Usage u0 = usage_now();
    socl::util::WallTimer step_timer;
    SlotReport slot;
    try {
      slot = loop.step();
    } catch (const std::exception& e) {
      day.steps_s += step_timer.elapsed_seconds();
      ++day.slots_failed;
      checks.require(false, "slot " + std::to_string(s + 1) +
                                " threw: " + e.what());
      return day;
    }
    day.steps_s += step_timer.elapsed_seconds();
    const Usage u1 = usage_now();
    day.usage.user_s += u1.user_s - u0.user_s;
    day.usage.sys_s += u1.sys_s - u0.sys_s;
    day.control_ms.push_back(slot.control_s * 1e3);
    if (config.cross_check &&
        (!slot.full_reroute_matches || slot.validator_violations != 0)) {
      ++day.slots_failed;
      checks.require(false, "slot " + std::to_string(slot.slot) +
                                " cross-check: " +
                                std::to_string(slot.validator_violations) +
                                " violations, re-route " +
                                (slot.full_reroute_matches ? "matches"
                                                           : "differs"));
    }
    if (recorder == nullptr) continue;

    // ---- probes (outside the step timing, on copies) ----
    Probes& p = day.probes;
    const socl::core::Scenario& scenario = loop.scenario();
    {
      socl::util::WallTimer t;
      socl::workload::mobility_step(scenario.network(), before, weights,
                                    config.mobility, probe_rng);
      p.mobility_ms += t.elapsed_ms();
    }
    if (shadow == nullptr) {
      shadow = std::make_unique<socl::core::Scenario>(
          scenario.network(), scenario.catalog(), scenario.requests(),
          scenario.constants());
    } else {
      if (slot.substrate_changed) {
        ++p.substrate_changes;
        socl::net::EdgeNetwork network = scenario.network();
        socl::util::WallTimer t;
        shadow->set_network(std::move(network));
        p.set_network_ms += t.elapsed_ms();
      }
      std::vector<socl::workload::UserRequest> requests =
          scenario.requests();
      socl::util::WallTimer t;
      shadow->set_requests(std::move(requests));
      p.set_requests_ms += t.elapsed_ms();
      checks.require(shadow->classes().num_classes() == slot.classes,
                     "probe set_requests: class count differs at slot " +
                         std::to_string(slot.slot));
    }
    if (config.cross_check) {
      // Replays the cross-check lane's work: a full re-route and the
      // validator (per-user DPs, too costly to replay on the other lanes).
      std::optional<socl::core::Assignment> full;
      {
        socl::util::WallTimer t;
        full = socl::core::ChainRouter(scenario).route_all(loop.placement());
        p.route_all_ms += t.elapsed_ms();
      }
      checks.require(full.has_value(),
                     "probe route_all: unroutable at slot " +
                         std::to_string(slot.slot));
      if (full) {
        socl::util::WallTimer t;
        const auto validation =
            socl::validate::SolutionValidator(scenario).validate(
                loop.placement(), *full);
        p.validate_ms += t.elapsed_ms();
        p.validate_violations +=
            static_cast<std::int64_t>(validation.violations.size());
        for (const auto& v : validation.violations) {
          checks.require(false, "slot " + std::to_string(slot.slot) +
                                    " probe validator: " + v.describe());
        }
      }
    }
    {
      // The slot's arrival stream, derived exactly as the loop derives it.
      socl::serverless::ArrivalConfig arrivals = config.arrivals;
      arrivals.horizon_s = config.slot_horizon_s;
      arrivals.mean_rate = config.arrivals.mean_rate * slot.arrival_intensity;
      arrivals.seed = config.seed ^ (0x9E3779B97F4A7C15ULL *
                                     static_cast<std::uint64_t>(slot.slot));
      socl::util::WallTimer t;
      const auto stream =
          socl::serverless::generate_arrivals(scenario.num_users(), arrivals);
      p.arrivals_ms += t.elapsed_ms();
      p.arrivals += static_cast<std::int64_t>(stream.size());
      checks.require(
          static_cast<std::int64_t>(stream.size()) == slot.requests_completed,
          "slot " + std::to_string(slot.slot) + ": DES completed " +
              std::to_string(slot.requests_completed) + " of " +
              std::to_string(stream.size()) + " arrivals");
    }
    const auto snapshot = recorder->metrics().snapshot();
    if (const auto* e = snapshot.find("socl.serverless.peak_live")) {
      p.peak_live = std::max(p.peak_live, e->gauge);
    }
    if (const auto* e = snapshot.find("socl.shard.solves")) {
      if (e->counter > prev_shard_solves) {
        prev_shard_solves = e->counter;
        const auto* converged = snapshot.find("socl.shard.converged");
        if (converged != nullptr && converged->gauge > 0.5) {
          ++p.converged_solves;
        }
      }
    }
  }

  day.report = loop.run();  // every slot ran: returns the day's report
  day.report->write_csv(csv_path);
  day.csv = slurp_and_remove(csv_path);
  checks.require(!day.csv.empty(), "serving CSV is empty");
  return day;
}

// ------------------------------------------------------------ trace reading

std::int64_t counter(const socl::obs::MetricsSnapshot& s, const char* name) {
  const auto* e = s.find(name);
  return e != nullptr ? e->counter : 0;
}

/// Span sums over a traced run, in microseconds.
struct SpanTotals {
  std::map<std::string, double> by_name;
  double slot_us = 0.0;     ///< Σ serve.slot
  double covered_us = 0.0;  ///< Σ union of spans inside each serve.slot
};

SpanTotals span_totals(const std::vector<socl::obs::TraceEvent>& events) {
  SpanTotals totals;
  std::vector<const socl::obs::TraceEvent*> slots;
  for (const auto& e : events) {
    totals.by_name[e.name] += e.dur_us;
    if (std::string(e.name) == "serve.slot") slots.push_back(&e);
  }
  totals.slot_us = totals.by_name["serve.slot"];
  for (const auto* slot : slots) {
    const double lo = slot->start_us;
    const double hi = slot->start_us + slot->dur_us;
    std::vector<std::pair<double, double>> inside;
    for (const auto& e : events) {
      if (&e == slot || std::string(e.name) == "serve.slot") continue;
      const double a = std::max(lo, e.start_us);
      const double b = std::min(hi, e.start_us + e.dur_us);
      if (b > a) inside.emplace_back(a, b);
    }
    std::sort(inside.begin(), inside.end());
    double end = lo;
    for (const auto& [a, b] : inside) {
      const double from = std::max(a, end);
      if (b > from) {
        totals.covered_us += b - from;
        end = b;
      }
    }
  }
  return totals;
}

// ------------------------------------------------------------ output

/// Minimal JSON object writer for the one result line.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    std::ostringstream out;
    if (std::isfinite(v)) {
      out << std::setprecision(17) << v;
    } else {
      out << "null";
    }
    return raw(key, out.str());
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::ostringstream out;
      out << std::setprecision(17) << v[i];
      text += (i ? ", " : "") + out.str();
    }
    return raw(key, text + "]");
  }
  Json& strs(const std::string& key, const std::vector<std::string>& v) {
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      text += (i ? ", " : "") + quote(v[i]);
    }
    return raw(key, text + "]");
  }
  Json& obj(const std::string& key, const Json& v) {
    return raw(key, v.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + value;
    return *this;
  }
  static std::string quote(const std::string& v) {
    std::string out = "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch == '\n' ? ' ' : ch;
    }
    return out + "\"";
  }
  std::string body_;
};

/// Raw per-layer figures of one traced day (the driver script turns them
/// into the per-layer metrics).
Json traced_json(const Day& day, const socl::obs::Recorder& recorder) {
  const SpanTotals spans = span_totals(recorder.trace().events());
  Json span_ms;
  for (const auto& [name, us] : spans.by_name) span_ms.num(name, us / 1e3);
  Json counters;
  Json hist_sum;
  Json hist_count;
  for (const auto& e : recorder.metrics().snapshot().entries) {
    if (e.kind == socl::obs::MetricKind::kCounter) {
      counters.num(e.name, static_cast<double>(e.counter));
    } else if (e.kind == socl::obs::MetricKind::kHistogram) {
      hist_sum.num(e.name, e.histogram.sum);
      hist_count.num(e.name, static_cast<double>(e.histogram.count));
    }
  }
  const Probes& p = day.probes;
  Json probes;
  probes.num("mobility_ms", p.mobility_ms)
      .num("set_requests_ms", p.set_requests_ms)
      .num("set_network_ms", p.set_network_ms)
      .num("route_all_ms", p.route_all_ms)
      .num("validate_ms", p.validate_ms)
      .num("arrivals_ms", p.arrivals_ms)
      .num("validate_violations", static_cast<double>(p.validate_violations))
      .num("substrate_changes", p.substrate_changes)
      .num("converged_solves", p.converged_solves)
      .num("peak_live", p.peak_live);
  Json out;
  out.num("steps_s", day.steps_s)
      .num("user_s", day.usage.user_s)
      .num("sys_s", day.usage.sys_s)
      .num("slot_ms", spans.slot_us / 1e3)
      .num("covered_ms", spans.covered_us / 1e3)
      .obj("span_ms", span_ms)
      .obj("counters", counters)
      .obj("hist_sum", hist_sum)
      .obj("hist_count", hist_count)
      .obj("probes", probes);
  return out;
}

int usage_error(const std::string& message) {
  std::cerr << "serving_bench: " << message
            << "\nusage: serving_bench --workload steady|rush|storm --seed N "
               "--cell I --trace 0|1 --scratch DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage_error("bad argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage_error("odd argument count");
  for (const char* key : {"workload", "seed", "cell", "trace", "scratch"}) {
    if (args.count(key) == 0) {
      return usage_error(std::string("missing --") + key);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return usage_error("unknown workload " + args["workload"]);
  }
  std::uint64_t seed = 0;
  int cell = 0;
  bool trace = false;
  try {
    seed = std::stoull(args["seed"]);
    cell = std::stoi(args["cell"]);
    trace = std::stoi(args["trace"]) != 0;
  } catch (const std::exception&) {
    return usage_error("non-numeric --seed, --cell or --trace");
  }
  if (cell < 0) return usage_error("--cell must be non-negative");

  const std::uint64_t config_seed = cell_seed(seed, cell);
  ServingConfig config = workload->make(config_seed);
  // The solver runs on one thread. Its default fan-out (one worker per shard,
  // each scoring on hardware-concurrency threads: 16 threads on 4 vCPUs)
  // waits at every dual iteration for its slowest thread, so on a shared
  // host the solve slots took 2-7x longer whenever a neighbour loaded the
  // machine, against 1-3x on one thread, and the control-latency tails
  // swung by 0.45-0.58 of their median between seeds.
  config.online.socl.combination.threads = 1;
  config.shard.threads = 1;
  config.shard.shard_threads = 1;
  const std::string csv_base = args["scratch"] + "/" + workload->name + "_" +
                               std::to_string(config_seed);
  Checks checks;
  // Set-up is cheap and noisy: time a few extra constructions.
  std::vector<double> setups;
  for (int i = 0; i < 4; ++i) {
    socl::util::WallTimer t;
    auto loop = std::make_unique<ServingLoop>(config);
    setups.push_back(t.elapsed_seconds());
  }
  const Day day = run_day(config, nullptr, csv_base + "_untraced.csv", checks);
  setups.push_back(day.setup_s);
  const double rss_mb = peak_rss_mb();  // the untraced day's peak

  Json out;
  out.str("workload", workload->name)
      .num("cell", cell)
      .str("config_seed", std::to_string(config_seed))
      .nums("setup_s", setups)
      .num("steps_s", day.steps_s)
      .nums("control_ms", day.control_ms)
      .num("peak_rss_mb", rss_mb);

  int attempted = day.slots_attempted;
  int failed = day.slots_failed;
  if (day.report) {
    const ServingReport& r = *day.report;
    double objective_sum = 0.0;
    for (const SlotReport& slot : r.slots) objective_sum += slot.objective;
    // The day opens on an empty edge: slot 1 adds every instance of the
    // opening placement, later slots add their churn.
    out.num("requests", static_cast<double>(r.requests_completed))
        .num("slo_met", static_cast<double>(r.slo_met))
        .num("invocations", static_cast<double>(r.invocations))
        .num("cold_serves", static_cast<double>(r.cold_serves))
        .num("objective_sum", objective_sum)
        .num("slots", static_cast<double>(r.slots.size()))
        .num("added_cost", r.slots.front().deployment_cost + r.churn_cost)
        .str("summary", r.summary());
  } else {
    checks.require(false, "the day did not finish");
  }

  if (trace) {
    socl::obs::Recorder recorder;
    const Day traced =
        run_day(config, &recorder, csv_base + "_traced.csv", checks);
    attempted += traced.slots_attempted;
    failed += traced.slots_failed;
    checks.require(traced.report.has_value() && traced.csv == day.csv,
                   "traced serving CSV differs from the untraced one");
    if (traced.report) {
      const auto snap = recorder.metrics().snapshot();
      const std::int64_t invocations =
          counter(snap, "socl.serverless.invocations");
      checks.require(
          invocations == counter(snap, "socl.serverless.warm_hits") +
                             counter(snap, "socl.serverless.cold_serves") +
                             counter(snap, "socl.serverless.queue_serves"),
          "DES counters not conserved");
      checks.require(invocations == traced.report->invocations,
                     "Σ slot invocations != socl.serverless.invocations");
      checks.require(counter(snap, "socl.serve.requests") ==
                         traced.report->requests_completed,
                     "Σ slot requests != socl.serve.requests");
      checks.require(
          traced.probes.arrivals == traced.report->requests_completed,
          "DES did not complete every arrival");
    }
    out.obj("traced", traced_json(traced, recorder));
  }
  out.num("attempted", attempted).num("failed", failed).strs("checks",
                                                             checks.failures);
  std::cout << out.text() << std::endl;
  return checks.failures.empty() ? 0 : 1;
}
