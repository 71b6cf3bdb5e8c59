#include "serve/serving_loop.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "net/failures.h"
#include "obs/sink.h"
#include "serverless/arrivals.h"
#include "util/table.h"
#include "util/timer.h"
#include "validate/validator.h"
#include "workload/request_gen.h"
#include "workload/trace.h"

namespace socl::serve {
namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  h ^= value;
  h *= 0x100000001B3ULL;
}

std::uint64_t bits(double value) {
  std::uint64_t out;
  static_assert(sizeof(out) == sizeof(value));
  __builtin_memcpy(&out, &value, sizeof(out));
  return out;
}

/// FNV-1a over everything the control plane sees as demand: a pure function
/// of the request set, so it identifies the trace independently of the
/// decisions taken on it.
std::uint64_t demand_fingerprint(
    const std::vector<workload::UserRequest>& requests) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& request : requests) {
    fnv_mix(h, static_cast<std::uint64_t>(request.attach_node));
    fnv_mix(h, request.chain.size());
    for (const workload::MsId m : request.chain) {
      fnv_mix(h, static_cast<std::uint64_t>(m));
    }
    for (const double d : request.edge_data) fnv_mix(h, bits(d));
    fnv_mix(h, bits(request.data_in));
    fnv_mix(h, bits(request.data_out));
    fnv_mix(h, bits(request.deadline));
  }
  return h;
}

/// Scenario factory for the serving loop: the single-substrate path defers
/// to core::make_scenario verbatim; metros > 0 swaps the substrate for a
/// stitched multi-metro topology (same per-metro generator parameters, same
/// request-generation seed schedule) and reports the metro membership map.
core::Scenario make_serving_scenario(const ServingConfig& config,
                                     std::vector<int>& metro_of) {
  if (config.metros <= 0) {
    return core::make_scenario(config.scenario, config.seed);
  }
  net::MultiMetroConfig mm = config.multi_metro;
  mm.metros = config.metros;
  mm.metro = config.scenario.topology;
  mm.metro.num_nodes = config.scenario.num_nodes;
  net::MultiMetroTopology topo = net::make_multi_metro(mm, config.seed);
  metro_of = topo.metro_of;

  const auto& catalog =
      config.scenario.catalog != nullptr
          ? *config.scenario.catalog
          : (config.scenario.use_tiny_catalog ? workload::tiny_catalog()
                                              : workload::eshop_catalog());
  workload::RequestGenConfig reqs = config.scenario.requests;
  reqs.num_users = config.scenario.num_users;
  auto requests = workload::generate_requests(topo.network, catalog, reqs,
                                              config.seed ^ 0x5eedULL);
  return core::Scenario(std::move(topo.network), catalog, std::move(requests),
                        config.scenario.constants);
}

/// The serving sink reaches every layer that traces inside a slot — the DES
/// windows and the unsharded replan's solver — unless the caller gave that
/// layer a sink of its own.
ServingConfig forward_sink(ServingConfig config) {
  if (config.runtime.sink == nullptr) config.runtime.sink = config.sink;
  if (config.online.socl.sink == nullptr) {
    config.online.socl.sink = config.sink;
  }
  return config;
}

}  // namespace

const char* slot_mode_name(SlotMode mode) {
  switch (mode) {
    case SlotMode::kCarried: return "carried";
    case SlotMode::kIncremental: return "incremental";
    case SlotMode::kReplan: return "replan";
  }
  return "replan";
}

double ServingReport::slo_attainment() const {
  return requests_completed > 0 ? static_cast<double>(slo_met) /
                                      static_cast<double>(requests_completed)
                                : 1.0;
}

double ServingReport::cold_start_rate() const {
  return invocations > 0 ? static_cast<double>(cold_serves) /
                               static_cast<double>(invocations)
                         : 0.0;
}

double ServingReport::recompute_fraction() const {
  return classes_total > 0 ? static_cast<double>(classes_recomputed) /
                                 static_cast<double>(classes_total)
                           : 0.0;
}

double ServingReport::degraded_slo_attainment() const {
  return degraded_requests > 0 ? static_cast<double>(degraded_slo_met) /
                                     static_cast<double>(degraded_requests)
                               : 1.0;
}

void ServingReport::write_csv(const std::string& path) const {
  // The chaos columns are appended only on chaotic days: with chaos
  // disabled the CSV stays byte-identical to the pre-chaos serving CSV
  // (the no-chaos identity gate in bench_chaos pins this).
  std::vector<std::string> columns = {
      "slot", "mode", "classes", "recomputed", "carried",
      "moved_weight_frac", "objective", "deploy_cost",
      "mean_latency_s", "churn", "churn_cost", "prewarm_hits",
      "invocations", "requests", "slo_met", "cold_serves",
      "slo_attainment",
      "cold_start_rate", "intensity", "demand_fingerprint",
      "validator_violations", "full_reroute_matches"};
  if (chaos) {
    columns.insert(columns.end(),
                   {"failed_nodes", "failed_links", "users_rehomed",
                    "flash_multiplier", "substrate_changed"});
  }
  util::Table table(columns);
  for (const SlotReport& s : slots) {
    util::Table& row = table.row();
    row.integer(s.slot)
        .cell(slot_mode_name(s.mode))
        .integer(s.classes)
        .integer(s.classes_recomputed)
        .integer(s.classes_carried)
        .num(s.moved_weight_fraction, 6)
        .num(s.objective, 6)
        .num(s.deployment_cost, 3)
        .num(s.mean_latency_s, 6)
        .integer(s.placement_churn)
        .num(s.churn_cost, 3)
        .integer(s.prewarm_ahead_hits)
        .integer(s.invocations)
        .integer(s.requests_completed)
        .integer(s.slo_met)
        .integer(s.cold_serves)
        .num(s.slo_attainment, 6)
        .num(s.cold_start_rate, 6)
        .num(s.arrival_intensity, 6)
        .cell(std::to_string(s.demand_fingerprint))
        .integer(s.validator_violations)
        .integer(s.full_reroute_matches ? 1 : 0);
    if (chaos) {
      row.integer(s.failed_nodes)
          .integer(s.failed_links)
          .integer(s.users_rehomed)
          .num(s.flash_multiplier, 3)
          .integer(s.substrate_changed ? 1 : 0);
    }
  }
  table.write_csv(path);
}

std::string ServingReport::summary() const {
  std::ostringstream out;
  out << "slots=" << slots.size() << " (replan=" << replans
      << " incremental=" << incremental_slots << " carried=" << carried_slots
      << ")"
      << " classes=" << classes_total << " recomputed=" << classes_recomputed
      << " (fraction=" << recompute_fraction() << ")"
      << " invocations=" << invocations
      << " requests=" << requests_completed << " slo=" << slo_attainment()
      << " cold_rate=" << cold_start_rate() << " churn=" << churn_instances
      << " churn_cost=" << churn_cost
      << " prewarm_hits=" << prewarm_ahead_hits;
  if (shards_resolved > 0 || reprices > 0) {
    out << " shards_resolved=" << shards_resolved
        << " reprices=" << reprices;
  }
  if (chaos) {
    out << " | chaos: node_failures=" << chaos_node_failures
        << " link_failures=" << chaos_link_failures
        << " repairs=" << chaos_repairs
        << " rehomed=" << chaos_users_rehomed
        << " degraded_slots=" << chaos_degraded_slots
        << " flash_slots=" << chaos_flash_slots
        << " degraded_slo=" << degraded_slo_attainment();
  }
  return out.str();
}

ServingLoop::ServingLoop(ServingConfig config)
    : config_(forward_sink(std::move(config))),
      scenario_(make_serving_scenario(config_, metro_of_)),
      mobility_rng_(config_.seed ^ 0x6d0b111e57a75ULL),
      drift_rng_(config_.seed ^ 0xd21f7a57e5ULL),
      cross_metro_rng_(config_.seed ^ 0xc2055e7a11edULL),
      online_(config_.online),
      placement_(scenario_),
      previous_placement_(scenario_),
      assignment_(scenario_) {
  if (config_.cross_metro_prob > 0.0 && config_.metros <= 1) {
    throw std::invalid_argument(
        "ServingLoop: cross_metro_prob needs metros > 1");
  }
  if (config_.sharded && config_.metros < 1) {
    throw std::invalid_argument("ServingLoop: sharded mode needs metros >= 1");
  }
  templates_ = scenario_.requests();
  if (templates_.empty()) {
    throw std::invalid_argument("ServingLoop: empty template workload");
  }
  if (config_.population > 0 &&
      config_.population != static_cast<int>(templates_.size())) {
    scenario_.set_requests(
        workload::replicate_requests(templates_, config_.population));
    assignment_ = core::Assignment(scenario_);
  }

  if (config_.sharded) rebuild_sharded();

  // The mobility model keeps the generator's hotspot bias.
  util::Rng weight_rng(config_.seed ^ 0xabcdULL);
  weights_ = workload::attachment_weights(scenario_.network().num_nodes(),
                                          config_.scenario.requests,
                                          weight_rng);

  if (config_.metros > 1) {
    // Per-metro views of the hotspot weights: the cross-metro re-homing
    // process picks its target attach node from the destination metro's
    // slice of the same weight vector the intra-metro mobility uses.
    metro_nodes_.resize(static_cast<std::size_t>(config_.metros));
    metro_weights_.resize(static_cast<std::size_t>(config_.metros));
    for (net::NodeId k = 0; k < scenario_.num_nodes(); ++k) {
      const auto m = static_cast<std::size_t>(
          metro_of_[static_cast<std::size_t>(k)]);
      metro_nodes_[m].push_back(k);
      metro_weights_[m].push_back(weights_[static_cast<std::size_t>(k)]);
    }
  }

  // Diurnal + bursty day profile, normalised to mean 1 over the configured
  // slots so diurnal_amplitude scales deviation without changing the day's
  // total volume.
  const int per_hour = std::max(1, config_.slots_per_hour);
  const int hours = std::max(1, (config_.slots + per_hour - 1) / per_hour);
  auto series = workload::request_volume_series(hours, per_hour, 1.0,
                                                config_.seed ^ 0xda11ULL);
  const int n = std::min<int>(static_cast<int>(series.size()),
                              std::max(1, config_.slots));
  double mean = 0.0;
  for (int i = 0; i < n; ++i) mean += series[static_cast<std::size_t>(i)];
  mean = mean > 0.0 ? mean / n : 1.0;
  day_profile_.resize(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double rel = series[i] / mean - 1.0;
    day_profile_[i] = std::max(0.05, 1.0 + config_.diurnal_amplitude * rel);
  }

  const std::size_t cells =
      static_cast<std::size_t>(scenario_.num_microservices()) *
      static_cast<std::size_t>(scenario_.num_nodes());
  prewarm_snapshot_.assign(cells, 0);

  if (config_.chaos.enabled) {
    // Slot 1 must open healthy: the initial workload was generated on the
    // full substrate and advance_workload (which re-homes displaced users)
    // only runs from slot 2.
    config_.chaos.first_slot = std::max(2, config_.chaos.first_slot);
    healthy_network_ = std::make_unique<net::EdgeNetwork>(scenario_.network());
    chaos_ = std::make_unique<ChaosSchedule>(
        *healthy_network_, config_.chaos, config_.slots,
        config_.seed ^ 0xc4a05daaULL,
        metro_of_.empty() ? nullptr : &metro_of_);
    report_.chaos = true;
  }
  last_substrate_epoch_ = scenario_.substrate_epoch();
}

void ServingLoop::rebuild_sharded() {
  // One shard per metro, coordinated through the global Eq. 5 budget.
  // The per-shard solver and warm-rung parameters mirror the legacy
  // OnlineSoCL configuration exactly, so the one-metro sharded day is
  // the unsharded day run through the shard machinery. A freshly built
  // coordinator's first step runs an implicit full solve with
  // repriced = true — the re-price the chaos lane requires on every
  // substrate change.
  shard::ShardedParams sp = config_.shard;
  sp.online = config_.online;
  sp.sink = config_.sink;
  sharded_ = std::make_unique<shard::ShardedSoCL>(
      scenario_, shard::plan_from_metros(metro_of_, config_.metros), sp);
}

double ServingLoop::slot_intensity(int slot) const {
  if (day_profile_.empty()) return 1.0;
  return day_profile_[static_cast<std::size_t>(slot - 1) %
                      day_profile_.size()];
}

int ServingLoop::advance_workload() {
  auto requests = scenario_.requests();
  workload::mobility_step(scenario_.network(), requests, weights_,
                          config_.mobility, mobility_rng_);
  if (config_.cross_metro_prob > 0.0 && config_.metros > 1) {
    // Cross-metro re-homing: a commuter leaves its metro entirely and
    // re-attaches at a hotspot-weighted node of a uniformly-picked *other*
    // metro — the churn that moves users between shards. Every user
    // consumes the same RNG draws regardless of outcome (determinism, as
    // in the drift loop below).
    for (auto& request : requests) {
      const bool moves = cross_metro_rng_.bernoulli(config_.cross_metro_prob);
      const auto hop = static_cast<int>(cross_metro_rng_.index(
          static_cast<std::size_t>(config_.metros - 1)));
      const int current =
          metro_of_[static_cast<std::size_t>(request.attach_node)];
      const int target = hop >= current ? hop + 1 : hop;
      const std::size_t local = cross_metro_rng_.weighted_index(
          metro_weights_[static_cast<std::size_t>(target)]);
      if (!moves) continue;
      request.attach_node =
          metro_nodes_[static_cast<std::size_t>(target)][local];
    }
  }
  if (config_.drift_prob > 0.0 && templates_.size() > 1) {
    // Workload drift: a drifting user swaps to another template's demand
    // tuple but keeps its id and attachment, so the class count stays
    // bounded by templates × nodes however large the population. Every user
    // consumes the same RNG draws regardless of outcome (determinism).
    for (auto& request : requests) {
      const bool drifts = drift_rng_.bernoulli(config_.drift_prob);
      const std::size_t pick = drift_rng_.index(templates_.size());
      if (!drifts) continue;
      const workload::UserRequest& tmpl = templates_[pick];
      request.chain = tmpl.chain;
      request.edge_data = tmpl.edge_data;
      request.data_in = tmpl.data_in;
      request.data_out = tmpl.data_out;
      request.deadline = tmpl.deadline;
    }
  }
  if (config_.workload_hook) config_.workload_hook(slot_, requests);
  int rehomed = 0;
  if (chaos_ != nullptr) {
    // Re-home every degraded slot, not only on substrate changes: the
    // mobility/drift processes above can push users back onto a dead or
    // link-isolated station mid-outage. scenario_.network() is already the
    // slot's degraded substrate (the swap happens before advance_workload).
    const SlotChaos& slot_chaos = chaos_->slot(slot_);
    if (slot_chaos.degraded()) {
      rehomed = workload::reattach_users(
          scenario_.network(), slot_chaos.plan.failed_nodes, requests);
    }
  }
  scenario_.set_requests(std::move(requests));
  return rehomed;
}

const ServingLoop::CacheEntry* ServingLoop::find_cached(
    const workload::UserRequest& rep) const {
  const auto it = prev_index_.find(workload::request_fingerprint(rep));
  if (it == prev_index_.end()) return nullptr;
  for (const int i : it->second) {
    const CacheEntry& entry = prev_entries_[static_cast<std::size_t>(i)];
    if (workload::same_request_class(rep, entry.rep)) return &entry;
  }
  return nullptr;
}

bool ServingLoop::route_classes(std::span<const CacheEntry* const> hits) {
  const workload::RequestClasses& classes = scenario_.classes();
  const core::ChainRouter router(scenario_);
  entries_.clear();
  cache_index_.clear();
  for (int c = 0; c < classes.num_classes(); ++c) {
    const workload::RequestClass& cls = classes.cls(c);
    const workload::UserRequest& rep = scenario_.request(cls.representative);
    const CacheEntry* hit =
        hits.empty() ? nullptr : hits[static_cast<std::size_t>(c)];
    CacheEntry& entry = entries_.emplace_back();
    entry.rep = rep;
    if (hit != nullptr) {
      entry.route = hit->route;
      entry.latency = hit->latency;
    } else {
      auto routed = router.route(rep, placement_, scratch_);
      if (!routed) return false;
      // The formula Evaluator::evaluate applies to an assignment, so the
      // slot economics are the evaluator's on every rung.
      entry.latency = router.completion_time(rep, routed->nodes);
      entry.route = std::move(routed->nodes);
    }
    cache_index_[cls.fingerprint].push_back(c);
  }
  assignment_ = core::Assignment(scenario_);
  for (int c = 0; c < classes.num_classes(); ++c) {
    for (const int member : classes.cls(c).members) {
      assignment_.set_user_route(member,
                                 entries_[static_cast<std::size_t>(c)].route);
    }
  }
  return true;
}

const SlotChaos* ServingLoop::slot_chaos() const {
  return chaos_ != nullptr ? &chaos_->slot(slot_) : nullptr;
}

SlotReport ServingLoop::step() {
  const obs::ScopedSpan span(config_.sink, obs::Phase::kSim, "serve.slot");
  util::WallTimer control_timer;
  SlotReport report = open_slot();
  if (slot_ > 1) report.users_rehomed = advance_workload();

  const RungChoice rung = choose_rung(report);
  if (rung.carry) {
    report.mode = SlotMode::kCarried;
  } else if (!rung.replan && route_classes(rung.hits)) {
    report.mode =
        rung.moved == 0 ? SlotMode::kCarried : SlotMode::kIncremental;
    report.classes_recomputed = rung.moved;
  } else {
    // A replan, or an incremental slot that lost coverage under the
    // carried placement.
    replan(report, rung.periodic);
    if (!route_classes({})) {
      throw std::runtime_error(
          "ServingLoop: replanned placement unroutable (slot " +
          std::to_string(slot_) + ")");
    }
    report.mode = SlotMode::kReplan;
    report.classes_recomputed = report.classes;
  }
  report.classes_carried = report.classes - report.classes_recomputed;

  const core::PlacementDelta delta = account(report);
  report.control_s = control_timer.elapsed_seconds();
  if (config_.cross_check) cross_check(report);
  serve_window(report, delta);
  close_slot(report);
  return report;
}

SlotReport ServingLoop::open_slot() {
  ++slot_;
  SlotReport report;
  report.slot = slot_;
  report.arrival_intensity = slot_intensity(slot_);

  const SlotChaos* chaos_slot = slot_chaos();
  if (chaos_slot == nullptr) return report;
  report.failed_nodes = static_cast<int>(chaos_slot->plan.failed_nodes.size());
  report.failed_links = static_cast<int>(chaos_slot->plan.failed_links.size());
  report.flash_multiplier = chaos_slot->flash_multiplier;
  // Flash crowds fold into the slot's arrival intensity: the DES window
  // draws its rate from this multiplier.
  report.arrival_intensity *= chaos_slot->flash_multiplier;
  if (chaos_slot->changed) {
    // Failures/repairs landed this slot: swap the substrate before the
    // workload advances, so mobility walks the degraded graph and the
    // re-homing sees the links that actually exist. A full repair restores
    // the pristine network by copy — apply_failures with an empty plan
    // would drop the links' base parameters.
    scenario_.set_network(chaos_slot->plan.empty()
                              ? *healthy_network_
                              : net::apply_failures(*healthy_network_,
                                                    chaos_slot->plan));
    report.substrate_changed = true;
    // The sharded coordinator priced its shards on the old substrate;
    // rebuilding it forces a global re-price (repriced = true) on the new
    // one — a backhaul cut isolates a metro and its shard's budget share
    // must be re-negotiated.
    if (sharded_ != nullptr) rebuild_sharded();
  }
  return report;
}

ServingLoop::RungChoice ServingLoop::choose_rung(SlotReport& report) {
  const workload::RequestClasses& classes = scenario_.classes();
  report.classes = classes.num_classes();
  report.demand_fingerprint = demand_fingerprint(scenario_.requests());

  // A substrate change always forces the replan rung: carried and
  // incremental routes embed paths computed on the old network, and the
  // tuple cache cannot see a link that vanished under an unchanged demand
  // tuple.
  RungChoice rung;
  rung.replan = !have_previous_ ||
                scenario_.substrate_epoch() != last_substrate_epoch_;
  if (config_.full_replan_period > 0 && slot_ > 1 &&
      (slot_ - 1) % config_.full_replan_period == 0) {
    rung.replan = true;
    rung.periodic = true;
  }
  if (!have_previous_) {
    report.moved_weight_fraction = 1.0;
    return rung;
  }
  if (scenario_.workload_epoch() == last_epoch_) {
    // Pure carry: set_requests no-opped (identical tuples), so placement,
    // per-class routes, and the expanded assignment are all still exact.
    rung.carry = !rung.replan;
    return rung;
  }

  // Diff this slot's classes against the carried route cache: a class whose
  // exact demand tuple is cached needs no routing work at all; everything
  // else "moved" and is the incremental rung's work list.
  prev_entries_.swap(entries_);
  prev_index_.swap(cache_index_);
  rung.hits.resize(static_cast<std::size_t>(classes.num_classes()));
  const double total_weight = std::max(1.0, classes.total_weight());
  double moved_weight = 0.0;
  for (int c = 0; c < classes.num_classes(); ++c) {
    const workload::RequestClass& cls = classes.cls(c);
    const CacheEntry* hit = find_cached(scenario_.request(cls.representative));
    rung.hits[static_cast<std::size_t>(c)] = hit;
    if (hit == nullptr) {
      ++rung.moved;
      moved_weight += cls.weight;
    }
  }
  report.moved_weight_fraction = moved_weight / total_weight;
  if (moved_weight > config_.replan_weight_threshold * total_weight) {
    rung.replan = true;
  }
  return rung;
}

void ServingLoop::replan(SlotReport& report, bool periodic) {
  if (sharded_ == nullptr) {
    // The solver's assignment is dropped: the cross-check lane proves it
    // equals the route_classes pass that follows.
    core::Solution solution = online_.step(scenario_);
    if (!solution.assignment) {
      throw std::runtime_error(
          "ServingLoop: slot unroutable even after a replan (slot " +
          std::to_string(slot_) + ")");
    }
    placement_ = std::move(solution.placement);
    return;
  }
  // Sharded replan: feed the slot's workload delta to the coordinator —
  // only the shards whose sub-workload (or membership) moved re-run their
  // warm rung at the frozen budget price; a global re-price happens only on
  // budget drift or breach. Periodic replans force every rung so each shard
  // keeps the legacy staleness-check cadence. Only the merged *placement*
  // is adopted: the global route_classes pass finds a route across the
  // backhaul when it wins.
  shard::ShardedSoCL::StepReport shard_step =
      sharded_->step(scenario_.requests(), periodic);
  report.shards_resolved = shard_step.shards_resolved;
  report.repriced = shard_step.repriced;
  if (!shard_step.solution.assignment) {
    throw std::runtime_error(
        "ServingLoop: sharded replan left the slot unroutable (slot " +
        std::to_string(slot_) + ")");
  }
  placement_ = std::move(shard_step.solution.placement);
}

core::PlacementDelta ServingLoop::account(SlotReport& report) const {
  // Slot economics from the class cache, uniform across rungs.
  const workload::RequestClasses& classes = scenario_.classes();
  report.deployment_cost = placement_.deployment_cost(scenario_.catalog());
  double total_latency = 0.0;
  for (int c = 0; c < classes.num_classes(); ++c) {
    total_latency +=
        entries_[static_cast<std::size_t>(c)].latency * classes.cls(c).weight;
  }
  report.mean_latency_s =
      total_latency / std::max(1.0, classes.total_weight());
  const core::Evaluator evaluator(scenario_);
  report.objective = evaluator.combine(report.deployment_cost, total_latency);

  core::PlacementDelta delta;
  if (have_previous_) {
    report.placement_churn =
        core::placement_churn(previous_placement_, placement_);
    delta = core::placement_delta(previous_placement_, placement_);
    for (const auto& added : delta.added) {
      report.churn_cost +=
          scenario_.catalog().microservice(added.first).deploy_cost;
    }
  }
  return delta;
}

void ServingLoop::cross_check(SlotReport& report) const {
  // Forced-full-resolve lane: a from-scratch route of the whole workload
  // must agree bit-for-bit with the incrementally maintained assignment,
  // and the independent validator must find no constraint violation.
  const core::ChainRouter router(scenario_);
  const auto full = router.route_all(placement_);
  bool matches = full.has_value();
  if (matches) {
    for (int h = 0; h < scenario_.num_users() && matches; ++h) {
      const auto a = assignment_.user_route(h);
      const auto b = full->user_route(h);
      matches = std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
  }
  report.full_reroute_matches = matches;
  if (!matches) {
    throw std::logic_error(
        "ServingLoop: incremental assignment diverged from full re-route "
        "(slot " +
        std::to_string(slot_) + ")");
  }
  const validate::SolutionValidator validator(scenario_);
  report.validator_violations = static_cast<int>(
      validator.validate(placement_, assignment_).violations.size());
}

void ServingLoop::serve_window(SlotReport& report,
                               const core::PlacementDelta& delta) {
  // Data plane: one DES window under the slot's placement. Instances the
  // replan added boot cold unless the previous slot's quota snapshot
  // predicted them (prewarm-ahead): those join the carried set and open
  // warm, modelling warm-up commands issued before rollout.
  const serverless::SoCLPrewarmPolicy policy(scenario_);
  serverless::ArrivalConfig arrival_config = config_.arrivals;
  arrival_config.horizon_s = config_.slot_horizon_s;
  arrival_config.mean_rate =
      config_.arrivals.mean_rate * report.arrival_intensity;
  arrival_config.seed =
      config_.seed ^
      (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(slot_)));
  std::vector<serverless::Arrival> arrivals;
  {
    const obs::ScopedSpan arrivals_span(
        config_.sink, obs::Phase::kServerless, "serverless.arrivals");
    arrivals =
        serverless::generate_arrivals(scenario_.num_users(), arrival_config);
  }

  const serverless::ServerlessRuntime runtime(scenario_, config_.runtime);

  core::Placement carried = previous_placement_;
  if (have_previous_) {
    const auto nodes = static_cast<std::size_t>(scenario_.num_nodes());
    for (const auto& [m, k] : delta.added) {
      const std::size_t idx =
          static_cast<std::size_t>(m) * nodes + static_cast<std::size_t>(k);
      if (prewarm_snapshot_[idx] != 0) {
        carried.deploy(m, k);
        ++report.prewarm_ahead_hits;
      }
    }
  }
  const SlotChaos* chaos_slot = slot_chaos();
  if (chaos_slot != nullptr && chaos_slot->degraded()) {
    // Container pools drain on dead nodes: nothing carried on a
    // currently-failed node may open warm (and a repaired node's pool
    // restarts cold naturally — the previous slot's placement could not
    // host anything there while it was a husk).
    for (const net::NodeId k : chaos_slot->plan.failed_nodes) {
      for (workload::MsId m = 0; m < scenario_.num_microservices(); ++m) {
        if (carried.deployed(m, k)) carried.remove(m, k);
      }
    }
  }
  // Per-metro serverless pools when sharded: each metro's control plane
  // simulates its own DES window over its residents' slice of the global
  // arrival stream (split preserves order and per-user streams, so the
  // one-metro split is the unsharded stream verbatim). Unsharded, the
  // whole stream is one group. Group 0 runs under `des_seed` itself, which
  // the one-metro identity relies on. Pool state is per run — a rare
  // backhaul-crossing route invokes the remote instance under the caller
  // metro's pool, modelling per-region serverless scaling.
  std::vector<std::vector<serverless::Arrival>> groups;
  if (sharded_ != nullptr) {
    std::vector<int> user_metro(
        static_cast<std::size_t>(scenario_.num_users()), 0);
    for (int h = 0; h < scenario_.num_users(); ++h) {
      user_metro[static_cast<std::size_t>(h)] = metro_of_[
          static_cast<std::size_t>(scenario_.request(h).attach_node)];
    }
    groups = serverless::split_arrivals(arrivals, user_metro, config_.metros);
  } else {
    groups.push_back(std::move(arrivals));
  }
  const std::uint64_t des_seed = arrival_config.seed ^ 0x5E71E55ULL;
  for (std::size_t m = 0; m < groups.size(); ++m) {
    const std::uint64_t metro_seed =
        des_seed ^ (0xA24BAED4963EE407ULL * static_cast<std::uint64_t>(m));
    const auto metrics =
        runtime.run(placement_, assignment_, groups[m], policy, metro_seed,
                    have_previous_ ? &carried : nullptr);
    report.invocations += metrics.totals.invocations;
    report.cold_serves += metrics.totals.cold_serves;
    report.requests_completed +=
        static_cast<std::int64_t>(metrics.requests.size());
    report.slo_met += metrics.totals.slo_met;
    if (sharded_ != nullptr && config_.sink != nullptr &&
        metrics.totals.invocations > 0) {
      config_.sink->observe(
          "socl.serve.shard.metro_cold_rate",
          static_cast<double>(metrics.totals.cold_serves) /
              static_cast<double>(metrics.totals.invocations));
    }
  }
  report.slo_attainment =
      report.requests_completed > 0
          ? static_cast<double>(report.slo_met) /
                static_cast<double>(report.requests_completed)
          : 1.0;
  report.cold_start_rate =
      report.invocations > 0 ? static_cast<double>(report.cold_serves) /
                                   static_cast<double>(report.invocations)
                             : 0.0;

  // This slot's Alg. 2 quotas become next slot's pre-warm prediction.
  const auto nodes = static_cast<std::size_t>(scenario_.num_nodes());
  for (workload::MsId m = 0; m < scenario_.num_microservices(); ++m) {
    for (net::NodeId k = 0; k < scenario_.num_nodes(); ++k) {
      prewarm_snapshot_[static_cast<std::size_t>(m) * nodes +
                        static_cast<std::size_t>(k)] =
          policy.quota(m, k) > 0 ? 1 : 0;
    }
  }
}

void ServingLoop::close_slot(const SlotReport& report) {
  previous_placement_ = placement_;
  have_previous_ = true;
  last_epoch_ = scenario_.workload_epoch();
  last_substrate_epoch_ = scenario_.substrate_epoch();

  const SlotChaos* chaos_slot = slot_chaos();
  emit_metrics(report, chaos_slot);

  report_.slots.push_back(report);
  report_.invocations += report.invocations;
  report_.requests_completed += report.requests_completed;
  report_.slo_met += report.slo_met;
  report_.cold_serves += report.cold_serves;
  report_.classes_total += report.classes;
  report_.classes_recomputed += report.classes_recomputed;
  switch (report.mode) {
    case SlotMode::kCarried: ++report_.carried_slots; break;
    case SlotMode::kIncremental: ++report_.incremental_slots; break;
    case SlotMode::kReplan: ++report_.replans; break;
  }
  report_.churn_instances += report.placement_churn;
  report_.churn_cost += report.churn_cost;
  report_.prewarm_ahead_hits += report.prewarm_ahead_hits;
  report_.shards_resolved += report.shards_resolved;
  if (report.repriced) ++report_.reprices;
  report_.control_s_total += report.control_s;
  if (chaos_slot != nullptr) {
    report_.chaos_node_failures += chaos_slot->nodes_failed_now;
    report_.chaos_link_failures += chaos_slot->links_failed_now;
    report_.chaos_repairs +=
        chaos_slot->nodes_repaired_now + chaos_slot->links_repaired_now;
    report_.chaos_users_rehomed += report.users_rehomed;
    if (chaos_slot->flash_multiplier > 1.0) ++report_.chaos_flash_slots;
    if (chaos_slot->degraded()) {
      ++report_.chaos_degraded_slots;
      report_.degraded_requests += report.requests_completed;
      report_.degraded_slo_met += report.slo_met;
    }
  }
}

void ServingLoop::emit_metrics(const SlotReport& report,
                               const SlotChaos* chaos_slot) {
  obs::ObsSink* const sink = config_.sink;
  if (sink == nullptr) return;
  if (chaos_slot != nullptr) {
    sink->add_counter("socl.chaos.node_failures", chaos_slot->nodes_failed_now);
    sink->add_counter("socl.chaos.link_failures", chaos_slot->links_failed_now);
    sink->add_counter("socl.chaos.repairs", chaos_slot->nodes_repaired_now +
                                                chaos_slot->links_repaired_now);
    sink->add_counter("socl.chaos.users_rehomed", report.users_rehomed);
    sink->add_counter("socl.chaos.degraded_slots",
                      chaos_slot->degraded() ? 1 : 0);
    sink->add_counter("socl.chaos.flash_slots",
                      chaos_slot->flash_multiplier > 1.0 ? 1 : 0);
    sink->set_gauge("socl.chaos.failed_nodes", report.failed_nodes);
    sink->set_gauge("socl.chaos.failed_links", report.failed_links);
    if (chaos_slot->degraded()) {
      sink->set_gauge("socl.chaos.degraded_slo_attainment",
                      report.slo_attainment);
    }
  }
  sink->add_counter("socl.serve.slots", 1);
  switch (report.mode) {
    case SlotMode::kCarried:
      sink->add_counter("socl.serve.carried_slots", 1);
      break;
    case SlotMode::kIncremental:
      sink->add_counter("socl.serve.incremental_slots", 1);
      break;
    case SlotMode::kReplan:
      sink->add_counter("socl.serve.replans", 1);
      break;
  }
  sink->add_counter("socl.serve.classes_total", report.classes);
  sink->add_counter("socl.serve.classes_recomputed",
                    report.classes_recomputed);
  sink->add_counter("socl.serve.classes_carried", report.classes_carried);
  sink->add_counter("socl.serve.invocations", report.invocations);
  sink->add_counter("socl.serve.requests", report.requests_completed);
  sink->add_counter("socl.serve.slo_met", report.slo_met);
  sink->add_counter("socl.serve.churn_instances", report.placement_churn);
  sink->add_counter("socl.serve.prewarm_ahead_hits",
                    report.prewarm_ahead_hits);
  sink->set_gauge("socl.serve.slo_attainment", report.slo_attainment);
  sink->set_gauge("socl.serve.cold_start_rate", report.cold_start_rate);
  sink->set_gauge("socl.serve.churn_cost", report.churn_cost);
  sink->set_gauge("socl.serve.objective", report.objective);
  if (sharded_ != nullptr) {
    sink->add_counter("socl.serve.shard.moved_shards", report.shards_resolved);
    sink->add_counter("socl.serve.shard.reprices", report.repriced ? 1 : 0);
  }
  sink->observe("socl.serve.control_latency_s", report.control_s);
}

ServingReport ServingLoop::run() {
  while (slot_ < config_.slots) step();
  return report_;
}

}  // namespace socl::serve
