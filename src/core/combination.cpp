#include "core/combination.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "core/storage_planning.h"
#include "obs/sink.h"
#include "util/timer.h"

namespace socl::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Parallel-stage slack: the batched ζ-ordered merges run while cost >=
/// kParallelSlack · K^max, and the exact-scored serial stage closes the
/// remaining budget overshoot (suspending the δ stopping rule while over
/// budget). Batch merges near the budget boundary commit avoidable latency
/// damage that the serial stage's exact per-move scoring avoids. 1.0 would
/// reproduce the paper's literal loop condition.
constexpr double kParallelSlack = 1.6;

/// Relocation polish budget: at most 4 · |M| · kRelocationSweeps moves.
constexpr int kRelocationSweeps = 3;

}  // namespace

Combiner::Combiner(const Scenario& scenario, const Partitioning& partitioning,
                   const CombinationConfig& config)
    : scenario_(&scenario),
      partitioning_(&partitioning),
      config_(config),
      evaluator_(scenario),
      engine_(scenario, config.threads, config.use_score_kernel) {
  engine_.set_sink(config_.sink);
  const auto services = static_cast<std::size_t>(scenario.num_microservices());
  const auto nodes = static_cast<std::size_t>(scenario.num_nodes());

  group_index_.assign(services, std::vector<int>(nodes, -1));
  for (std::size_t m = 0; m < services; ++m) {
    const auto& groups = partitioning.per_ms[m].groups;
    for (std::size_t s = 0; s < groups.size(); ++s) {
      for (const NodeId k : groups[s]) {
        group_index_[m][static_cast<std::size_t>(k)] = static_cast<int>(s);
      }
    }
  }

  dependency_adjacent_.assign(services, std::vector<bool>(services, false));
  // Chain adjacency is a pure function of the class key, so one
  // representative per request class covers the whole workload.
  for (const auto& cls : scenario.classes().classes()) {
    const auto& request = scenario.request(cls.representative);
    for (std::size_t pos = 1; pos < request.chain.size(); ++pos) {
      const auto a = static_cast<std::size_t>(request.chain[pos - 1]);
      const auto b = static_cast<std::size_t>(request.chain[pos]);
      dependency_adjacent_[a][b] = dependency_adjacent_[b][a] = true;
    }
  }
}

NodeId Combiner::best_connection(int user, MsId m,
                                 const Placement& placement) const {
  const auto& request = scenario_->request(user);
  const auto& vlinks = scenario_->vlinks();
  const NodeId attach = request.attach_node;
  const int user_group =
      group_index_[static_cast<std::size_t>(m)][static_cast<std::size_t>(
          attach)];

  NodeId best_in_group = net::kInvalidNode;
  double best_group_rate = -1.0;
  NodeId best_global = net::kInvalidNode;
  double best_global_rate = -1.0;
  for (NodeId k = 0; k < scenario_->num_nodes(); ++k) {
    if (!placement.deployed(m, k)) continue;
    const double rate = vlinks.rate(attach, k);
    if (rate > best_global_rate) {
      best_global_rate = rate;
      best_global = k;
    }
    if (user_group >= 0 &&
        group_index_[static_cast<std::size_t>(m)]
                    [static_cast<std::size_t>(k)] == user_group &&
        rate > best_group_rate) {
      best_group_rate = rate;
      best_in_group = k;
    }
  }
  return best_in_group != net::kInvalidNode ? best_in_group : best_global;
}

double Combiner::estimated_completion(const workload::UserRequest& request,
                                      const Placement& placement) const {
  const auto& vlinks = scenario_->vlinks();
  const auto& network = scenario_->network();
  const auto& catalog = scenario_->catalog();

  NodeId prev = net::kInvalidNode;
  NodeId first = net::kInvalidNode;
  double total = 0.0;
  for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
    const MsId m = request.chain[pos];
    const NodeId k = best_connection(request.id, m, placement);
    if (k == net::kInvalidNode) return kInf;  // service failure
    if (pos == 0) {
      first = k;
      total += vlinks.transfer_time(request.data_in, request.attach_node, k);
    } else {
      total += vlinks.transfer_time(request.edge_data[pos - 1], prev, k);
    }
    total += catalog.microservice(m).compute_gflop /
             network.node(k).compute_gflops;
    prev = k;
  }
  total += vlinks.transfer_time(request.data_out, prev, first);
  return total;
}

double Combiner::estimated_objective(const Placement& placement) const {
  double latency = 0.0;
  for (const auto& cls : scenario_->classes().classes()) {
    const auto& request = scenario_->request(cls.representative);
    latency += cls.weight * estimated_completion(request, placement);
  }
  return evaluator_.combine(placement.deployment_cost(scenario_->catalog()),
                            latency);
}

double Combiner::zeta_for_instance(MsId m, NodeId k,
                                   const Placement& placement,
                                   const ZetaPrep& prep) const {
  // ζ_{i,k} = ψ(P''^t) − ψ(P'^t) where P'' excludes the instance at k and
  // every affected user reconnects by the connection-update rule. `prep`
  // buckets the classes using m by their connection under `placement`
  // (shared by all of m's instances this pass), so only the classes
  // actually served by (m, k) rescan — under `without` — here.
  const auto& vlinks = scenario_->vlinks();
  const auto& network = scenario_->network();
  const double compute_k =
      scenario_->catalog().microservice(m).compute_gflop /
      network.node(k).compute_gflops;

  Placement without = placement;
  without.remove(m, k);

  double before = 0.0;
  double after = 0.0;
  // Reconnections under `without` are also a pure function of (m, attach),
  // so served classes sharing an attachment share one rescan.
  std::vector<NodeId> requeue_of(
      static_cast<std::size_t>(scenario_->num_nodes()), net::kInvalidNode);
  std::vector<bool> have(requeue_of.size(), false);
  const auto& classes = scenario_->classes().classes();
  // Only the classes this instance serves contribute; the prep's served
  // bucket holds exactly those, ascending, so the accumulation order
  // matches the full filtered scan bit for bit.
  for (const int c : prep.served[static_cast<std::size_t>(k)]) {
    const auto& cls = classes[static_cast<std::size_t>(c)];
    const auto& request = scenario_->request(cls.representative);
    const double data = scenario_->request_inbound_data(request, m);
    before += cls.weight * (vlinks.transfer_time(data, request.attach_node, k) +
                            compute_k);
    const auto attach = static_cast<std::size_t>(request.attach_node);
    if (!have[attach]) {
      requeue_of[attach] = best_connection(request.id, m, without);
      have[attach] = true;
    }
    const NodeId q = requeue_of[attach];
    if (q == net::kInvalidNode) return kInf;  // would orphan the user
    after += cls.weight *
             (vlinks.transfer_time(data, request.attach_node, q) +
              scenario_->catalog().microservice(m).compute_gflop /
                  network.node(q).compute_gflops);
  }
  return after - before;
}

std::vector<LatencyLoss> Combiner::latency_losses(
    const Placement& placement) const {
  const obs::ScopedSpan span(config_.sink, obs::Phase::kCombination,
                             "combination.latency_losses");
  // Algorithm 4: skip microservices down to one instance (service
  // continuity), compute ζ per remaining instance, return ascending.
  std::vector<std::pair<MsId, NodeId>> instances;
  std::vector<std::size_t> prep_of;
  std::vector<ZetaPrep> preps;
  for (MsId m = 0; m < scenario_->num_microservices(); ++m) {
    if (placement.instance_count(m) <= 1) continue;
    // One connection scan per (m, attach node) serves every instance of m:
    // the scored placement is fixed for the whole pass and best_connection
    // reads nothing else of the user, so classes sharing an attachment share
    // the scan. The inverted chain index supplies exactly the classes using
    // m (ascending), replacing a full uses(m) sweep per microservice.
    ZetaPrep prep;
    const auto& users = scenario_->classes().classes_using(m);
    prep.served.resize(static_cast<std::size_t>(scenario_->num_nodes()));
    std::vector<NodeId> conn_of(
        static_cast<std::size_t>(scenario_->num_nodes()), net::kInvalidNode);
    std::vector<bool> have(conn_of.size(), false);
    for (int c : users) {
      const auto& request =
          scenario_->request(scenario_->classes().cls(c).representative);
      const auto attach = static_cast<std::size_t>(request.attach_node);
      if (!have[attach]) {
        conn_of[attach] = best_connection(request.id, m, placement);
        have[attach] = true;
      }
      const NodeId conn = conn_of[attach];
      if (conn != net::kInvalidNode) {
        prep.served[static_cast<std::size_t>(conn)].push_back(c);
      }
    }
    preps.push_back(std::move(prep));
    for (NodeId k = 0; k < scenario_->num_nodes(); ++k) {
      if (placement.deployed(m, k)) {
        instances.emplace_back(m, k);
        prep_of.push_back(preps.size() - 1);
      }
    }
  }
  const auto& constants = scenario_->constants();
  std::vector<LatencyLoss> losses(instances.size());
  auto fill = [&](std::size_t i) {
    const auto [m, k] = instances[i];
    const double zeta = zeta_for_instance(m, k, placement, preps[prep_of[i]]);
    const double gradient =
        (1.0 - constants.lambda) * constants.latency_weight * zeta -
        constants.lambda * scenario_->catalog().microservice(m).deploy_cost;
    losses[i] = {m, k, zeta, gradient};
  };
  if (config_.use_parallel_stage && instances.size() > 8) {
    // ζ evaluations are pure per-index writes, so the engine's shared pool
    // (no per-round thread spawning) keeps results order-independent.
    engine_.pool().parallel_for(instances.size(), fill);
  } else {
    for (std::size_t i = 0; i < instances.size(); ++i) fill(i);
  }
  std::sort(losses.begin(), losses.end(),
            [](const LatencyLoss& a, const LatencyLoss& b) {
              if (a.gradient != b.gradient) return a.gradient < b.gradient;
              if (a.service != b.service) return a.service < b.service;
              return a.node < b.node;
            });
  return losses;
}

bool Combiner::violates_deadline(const Placement& placement) const {
  // Members of a request class share chain, demand, and deadline, so the
  // representative's verdict covers the whole class.
  if (use_exact_eval()) {
    // Route the verdict through the engine so it shares the kernel scoring
    // hot path (and its scratch slots — the old local RouteScratch here
    // heap-allocated on every rollback check).
    return engine_.any_deadline_violation(placement);
  }
  for (const auto& cls : scenario_->classes().classes()) {
    const auto& request = scenario_->request(cls.representative);
    if (estimated_completion(request, placement) > request.deadline + 1e-9) {
      return true;
    }
  }
  return false;
}

bool Combiner::use_exact_eval() const {
  // Exact per-move routing costs ~C·V³·len̄ DP operations per evaluation;
  // keep it while that stays comfortably inside interactive budgets. The DP
  // count scales with classes, not users — which is how million-user
  // workloads at a few thousand classes keep exact scoring.
  const double classes =
      static_cast<double>(scenario_->classes().num_classes());
  const double nodes = static_cast<double>(scenario_->num_nodes());
  return classes * nodes * nodes * nodes * 5.0 <= 5e7;
}

double Combiner::serial_objective(const Placement& placement) const {
  if (!use_exact_eval()) return estimated_objective(placement);
  return engine_.full_objective(placement);
}

std::vector<bool> Combiner::dependency_conflict_filter(
    const std::vector<LatencyLoss>& omega_set) const {
  // Dependency-conflict filter (Algorithm 3 line 4): among selected
  // instances of chain-adjacent microservices, keep only the smaller ζ.
  // omega_set arrives gradient-ascending (latency_losses sorts by objective
  // gradient), and gradient order can disagree with ζ order when deploy
  // costs differ — so the discard decision compares ζ explicitly and only
  // falls back to gradient, then ids, to stay deterministic on ties.
  std::vector<bool> discard(omega_set.size(), false);
  for (std::size_t a = 0; a < omega_set.size(); ++a) {
    for (std::size_t b = a + 1; b < omega_set.size(); ++b) {
      if (discard[a] || discard[b]) continue;
      const auto ma = static_cast<std::size_t>(omega_set[a].service);
      const auto mb = static_cast<std::size_t>(omega_set[b].service);
      if (ma == mb || !dependency_adjacent_[ma][mb]) continue;
      const auto& la = omega_set[a];
      const auto& lb = omega_set[b];
      bool keep_a;
      if (la.zeta != lb.zeta) {
        keep_a = la.zeta < lb.zeta;
      } else if (la.gradient != lb.gradient) {
        keep_a = la.gradient < lb.gradient;
      } else {
        keep_a = true;  // identical scores: keep the earlier entry
      }
      discard[keep_a ? b : a] = true;
    }
  }
  return discard;
}

Placement Combiner::run(const Preprovisioning& pre, CombinationStats* stats) {
  Placement placement = pre.placement;
  CombinationStats local_stats;
  engine_.reset_counters();
  const double budget = scenario_->constants().budget;
  const auto& catalog = scenario_->catalog();
  util::WallTimer stage_timer;

  // ---- Large-scale (parallel) stage: lines 1-5 of Algorithm 3. ----
  if (config_.use_parallel_stage) {
    const obs::ScopedSpan span(config_.sink, obs::Phase::kCombination,
                               "combination.parallel_stage");
    const double parallel_target = budget * kParallelSlack;
    while (placement.deployment_cost(catalog) >= parallel_target) {
      auto losses = latency_losses(placement);
      if (losses.empty()) break;  // nothing combinable; budget unreachable
      const auto take = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::floor(
                 config_.omega * static_cast<double>(losses.size()))));
      std::vector<LatencyLoss> omega_set(losses.begin(),
                                         losses.begin() + static_cast<long>(
                                             std::min(take, losses.size())));

      const std::vector<bool> discard = dependency_conflict_filter(omega_set);

      // Apply the parallel combine, honouring per-service floors.
      std::vector<int> planned(
          static_cast<std::size_t>(scenario_->num_microservices()), 0);
      int removed = 0;
      for (std::size_t i = 0; i < omega_set.size(); ++i) {
        if (discard[i] || omega_set[i].zeta == kInf) continue;
        const MsId m = omega_set[i].service;
        auto& plan = planned[static_cast<std::size_t>(m)];
        if (placement.instance_count(m) - plan <= 1) continue;
        ++plan;
        placement.remove(m, omega_set[i].node);
        ++removed;
      }
      ++local_stats.parallel_rounds;
      local_stats.parallel_removals += removed;
      if (removed == 0) break;  // all picks blocked: avoid spinning
    }
  }
  local_stats.parallel_stage_seconds = stage_timer.elapsed_seconds();
  stage_timer.reset();

  // Establish storage feasibility before the serial descent: the parallel
  // stage merges without running Algorithm 5, and a pre-existing overload
  // would otherwise re-trigger the same migration cascade on every serial
  // candidate, poisoning the Q'' comparison.
  if (config_.use_storage_planning) {
    plan_storage(*scenario_, placement, config_.sink);
  }

  // ---- Small-scale (serial) stage: lines 6-15 of Algorithm 3. ----
  std::optional<obs::ScopedSpan> serial_span;
  serial_span.emplace(config_.sink, obs::Phase::kCombination,
                      "combination.serial_stage");
  std::vector<std::vector<bool>> banned(
      static_cast<std::size_t>(scenario_->num_microservices()),
      std::vector<bool>(static_cast<std::size_t>(scenario_->num_nodes()),
                        false));
  for (;;) {
    auto losses = latency_losses(placement);
    std::erase_if(losses, [&](const LatencyLoss& loss) {
      return banned[static_cast<std::size_t>(loss.service)]
                   [static_cast<std::size_t>(loss.node)] ||
             loss.zeta == kInf;
    });
    if (losses.empty()) break;

    // Q' (line 7) and the per-candidate Q'' scores. In the exact regime the
    // incremental evaluator reroutes only each candidate's affected users,
    // so the scan over every removable instance stays cheap; at very large
    // scales the connection-rule estimate takes over.
    const bool exact = use_exact_eval();
    double q_before;
    if (exact) {
      engine_.refresh(placement);
      q_before = engine_.combine(
          placement.deployment_cost(scenario_->catalog()),
          engine_.cached_latency_sum());
    } else {
      q_before = estimated_objective(placement);
    }
    const auto scores = engine_.score_candidates(
        losses.size(),
        [&](std::size_t i, RoutingEngine::ScoreContext& ctx) {
          Placement trial = placement;
          trial.remove(losses[i].service, losses[i].node);
          return exact ? engine_.objective_without(losses[i].service,
                                                   losses[i].node, trial, ctx)
                       : estimated_objective(trial);
        });
    for (std::size_t i = 0; i < losses.size(); ++i) {
      losses[i].gradient = scores[i];
    }
    std::sort(losses.begin(), losses.end(),
              [](const LatencyLoss& a, const LatencyLoss& b) {
                return a.gradient < b.gradient;
              });
    const LatencyLoss pick = losses.front();  // arg min (line 8)

    const Placement snapshot = placement;
    placement.remove(pick.service, pick.node);

    if (config_.use_storage_planning) {
      const auto plan = plan_storage(*scenario_, placement, config_.sink);
      if (!plan.feasible) {
        // Line 17 of Algorithm 5: storage cannot fit this many instances;
        // keep combining (the removal stands, try the next round).
        ++local_stats.serial_removals;
        continue;
      }
    }

    const double q_after = serial_objective(placement);  // Q'' (line 9)

    // Deadline constraint check + roll-back (lines 12-15).
    if (config_.use_rollback && violates_deadline(placement)) {
      placement = snapshot;
      banned[static_cast<std::size_t>(pick.service)]
            [static_cast<std::size_t>(pick.node)] = true;
      ++local_stats.rollbacks;
      continue;
    }

    const bool over_budget =
        placement.deployment_cost(scenario_->catalog()) >
        scenario_->constants().budget + 1e-9;
    const double delta = q_before - q_after + config_.theta;  // δ
    if (delta <= 0.0 && !over_budget) {
      // Objective rose past Θ: undo. The Θ disturbance already absorbed
      // small rises; a candidate that still fails is banned and the descent
      // continues with the next-cheapest instance instead of terminating,
      // so one bad merge cannot strand the placement far from the optimum.
      placement = snapshot;
      banned[static_cast<std::size_t>(pick.service)]
            [static_cast<std::size_t>(pick.node)] = true;
      continue;
    }
    ++local_stats.serial_removals;
  }
  serial_span.reset();
  local_stats.serial_stage_seconds = stage_timer.elapsed_seconds();
  stage_timer.reset();

  // ---- Multi-scale polish: screened best-move local search. ----
  // Move repertoire mirrors the framework's own operations — instance
  // combination (remove), warm-instance addition (paper feature 4), and
  // Algorithm-5-style migration (relocate). Moves are screened with the
  // cheap connection-rule estimate and only the most promising few are
  // verified with the serial objective, preserving the coarse-then-fine
  // multi-scale structure at polish time.
  if (config_.use_relocation) {
    const obs::ScopedSpan span(config_.sink, obs::Phase::kCombination,
                               "combination.polish");
    polish(placement);
  }
  local_stats.polish_seconds = stage_timer.elapsed_seconds();
  stage_timer.reset();

  // ---- Multi-start: descend the dense basin as well and keep the best. ----
  if (config_.use_multi_start) {
    const obs::ScopedSpan span(config_.sink, obs::Phase::kCombination,
                               "combination.multi_start");
    Placement dense(*scenario_);
    for (MsId m = 0; m < scenario_->num_microservices(); ++m) {
      for (const NodeId k : scenario_->demand_nodes(m)) dense.deploy(m, k);
    }
    descend_to_budget(dense);
    if (config_.use_storage_planning) {
      plan_storage(*scenario_, dense, config_.sink);
    }
    if (config_.use_relocation) polish(dense);
    const bool dense_ok =
        dense.deployment_cost(scenario_->catalog()) <=
            scenario_->constants().budget + 1e-9 &&
        (!config_.use_rollback || !violates_deadline(dense));
    if (dense_ok &&
        serial_objective(dense) < serial_objective(placement) - 1e-9) {
      placement = std::move(dense);
    }
  }

  local_stats.multi_start_seconds = stage_timer.elapsed_seconds();
  local_stats.routing = engine_.counters();
  if (config_.sink != nullptr) {
    obs::ObsSink* const sink = config_.sink;
    sink->add_counter("socl.combination.runs", 1);
    sink->add_counter("socl.combination.parallel_rounds",
                      local_stats.parallel_rounds);
    sink->add_counter("socl.combination.parallel_removals",
                      local_stats.parallel_removals);
    sink->add_counter("socl.combination.serial_removals",
                      local_stats.serial_removals);
    sink->add_counter("socl.combination.rollbacks", local_stats.rollbacks);
    sink->observe("socl.combination.parallel_stage_s",
                  local_stats.parallel_stage_seconds);
    sink->observe("socl.combination.serial_stage_s",
                  local_stats.serial_stage_seconds);
    sink->observe("socl.combination.polish_s", local_stats.polish_seconds);
    sink->observe("socl.combination.multi_start_s",
                  local_stats.multi_start_seconds);
  }
  if (stats != nullptr) *stats = local_stats;
  return placement;
}

void Combiner::descend_to_budget(Placement& placement) const {
  const auto& catalog = scenario_->catalog();
  const double budget = scenario_->constants().budget;
  for (;;) {
    const bool over_budget =
        placement.deployment_cost(catalog) > budget + 1e-9;
    auto losses = latency_losses(placement);
    if (losses.empty()) break;
    // Score every removal; exact incremental scoring when affordable.
    const bool exact = use_exact_eval();
    double current;
    if (exact) {
      engine_.refresh(placement);
      current = engine_.combine(placement.deployment_cost(catalog),
                                engine_.cached_latency_sum());
    } else {
      current = estimated_objective(placement);
    }
    const auto scores = engine_.score_candidates(
        losses.size(),
        [&](std::size_t i, RoutingEngine::ScoreContext& ctx) {
          Placement trial = placement;
          trial.remove(losses[i].service, losses[i].node);
          return exact ? engine_.objective_without(losses[i].service,
                                                   losses[i].node, trial, ctx)
                       : estimated_objective(trial);
        });
    for (std::size_t i = 0; i < losses.size(); ++i) {
      losses[i].gradient = scores[i];
    }
    std::sort(losses.begin(), losses.end(),
              [](const LatencyLoss& a, const LatencyLoss& b) {
                return a.gradient < b.gradient;
              });
    if (!over_budget && losses.front().gradient >= current - 1e-9) break;
    // Apply the best candidate that does not break a deadline (Eq. 4);
    // while over budget a violating move is still taken as a last resort.
    bool applied = false;
    for (const auto& loss : losses) {
      if (!over_budget && loss.gradient >= current - 1e-9) break;
      Placement trial = placement;
      trial.remove(loss.service, loss.node);
      if (config_.use_rollback && violates_deadline(trial)) continue;
      placement = std::move(trial);
      applied = true;
      break;
    }
    if (!applied) {
      if (!over_budget) break;
      placement.remove(losses.front().service, losses.front().node);
    }
  }
}

void Combiner::polish_descend(Placement& placement) const {
  const auto& catalog = scenario_->catalog();
  const auto& network = scenario_->network();
  const double budget = scenario_->constants().budget;

  struct Move {
    enum class Kind { kRemove, kAdd, kRelocate } kind;
    MsId service;
    NodeId from = net::kInvalidNode;
    NodeId to = net::kInvalidNode;
    double estimate = 0.0;
  };

  auto apply = [](Placement& p, const Move& move) {
    switch (move.kind) {
      case Move::Kind::kRemove:
        p.remove(move.service, move.from);
        break;
      case Move::Kind::kAdd:
        p.deploy(move.service, move.to);
        break;
      case Move::Kind::kRelocate:
        p.remove(move.service, move.from);
        p.deploy(move.service, move.to);
        break;
    }
  };

  auto room_for = [&](MsId m, NodeId q) {
    return catalog.microservice(m).storage <=
           network.node(q).storage_units -
               placement.storage_used(catalog, q) + 1e-9;
  };

  const int max_moves = 4 * scenario_->num_microservices() * kRelocationSweeps;
  double current = serial_objective(placement);
  for (int moves_made = 0; moves_made < max_moves; ++moves_made) {
    // Enumerate feasible single moves and screen with the cheap estimate.
    std::vector<Move> candidates;
    const double cost = placement.deployment_cost(catalog);
    for (MsId m = 0; m < scenario_->num_microservices(); ++m) {
      if (scenario_->demand_nodes(m).empty()) continue;
      const double kappa = catalog.microservice(m).deploy_cost;
      for (NodeId k = 0; k < scenario_->num_nodes(); ++k) {
        if (placement.deployed(m, k)) {
          if (placement.instance_count(m) > 1) {
            candidates.push_back(
                {Move::Kind::kRemove, m, k, net::kInvalidNode, 0.0});
          }
          for (NodeId q = 0; q < scenario_->num_nodes(); ++q) {
            if (q == k || placement.deployed(m, q) || !room_for(m, q)) {
              continue;
            }
            candidates.push_back({Move::Kind::kRelocate, m, k, q, 0.0});
          }
        } else if (cost + kappa <= budget + 1e-9 && room_for(m, k)) {
          candidates.push_back(
              {Move::Kind::kAdd, m, net::kInvalidNode, k, 0.0});
        }
      }
    }
    if (candidates.empty()) break;

    // Score every move: exact incremental scoring when affordable (a move
    // touches a single microservice, so only its users reroute), otherwise
    // the connection-rule estimate.
    const bool exact = use_exact_eval();
    if (exact) engine_.refresh(placement);
    const auto estimates = engine_.score_candidates(
        candidates.size(),
        [&](std::size_t i, RoutingEngine::ScoreContext& ctx) {
          const Move& move = candidates[i];
          Placement trial = placement;
          apply(trial, move);
          if (!exact) return estimated_objective(trial);
          if (move.kind == Move::Kind::kRemove) {
            return engine_.objective_without(move.service, move.from, trial,
                                             ctx);
          }
          return engine_.objective_with_change(trial, move.service, ctx);
        });
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      candidates[i].estimate = estimates[i];
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Move& a, const Move& b) {
                return a.estimate < b.estimate;
              });

    // Apply the best improving move that survives the deadline check.
    const Move* best_move = nullptr;
    Placement best_placement = placement;
    double best_q = current;
    for (std::size_t c = 0;
         c < candidates.size() && candidates[c].estimate < current - 1e-9;
         ++c) {
      Placement trial = placement;
      apply(trial, candidates[c]);
      const double q = exact ? candidates[c].estimate
                             : serial_objective(trial);
      if (q >= current - 1e-9) continue;
      if (config_.use_rollback && violates_deadline(trial)) continue;
      best_q = q;
      best_move = &candidates[c];
      best_placement = std::move(trial);
      break;  // candidates are score-ascending: first survivor is best
    }
    if (best_move == nullptr) break;
    placement = std::move(best_placement);
    current = best_q;
  }
}

void Combiner::polish(Placement& placement) const {
  polish_descend(placement);
  const auto& catalog = scenario_->catalog();
  const auto& network = scenario_->network();

  // Expansion kick: force the most demanded services to replicate onto
  // their busiest un-served demand nodes (even when a single add does not
  // pay for itself), then re-descend; keep only on improvement. This opens
  // the latency-rich basin that pure improving moves cannot reach.
  {
    Placement perturbed = placement;
    int added = 0;
    for (int round = 0; round < 4 && added < 4; ++round) {
      MsId best_m = workload::kInvalidMs;
      NodeId best_k = net::kInvalidNode;
      double best_demand = 0.0;
      for (MsId m = 0; m < scenario_->num_microservices(); ++m) {
        if (scenario_->demand_nodes(m).empty()) continue;
        if (perturbed.deployment_cost(catalog) +
                catalog.microservice(m).deploy_cost >
            scenario_->constants().budget + 1e-9) {
          continue;
        }
        for (const NodeId k : scenario_->demand_nodes(m)) {
          if (perturbed.deployed(m, k)) continue;
          if (catalog.microservice(m).storage >
              network.node(k).storage_units -
                  perturbed.storage_used(catalog, k) + 1e-9) {
            continue;
          }
          const double demand = scenario_->demand_data(m, k);
          if (demand > best_demand) {
            best_demand = demand;
            best_m = m;
            best_k = k;
          }
        }
      }
      if (best_m == workload::kInvalidMs) break;
      perturbed.deploy(best_m, best_k);
      ++added;
    }
    if (added > 0) {
      polish_descend(perturbed);
      if (serial_objective(perturbed) <
          serial_objective(placement) - 1e-9) {
        placement = std::move(perturbed);
      }
    }
  }

  // Iterated kick: escape single-move local optima by forcing the two most
  // expensive multi-instance services down to one instance and re-descending;
  // keep the perturbed result only when it wins.
  for (int kick = 0; kick < 2; ++kick) {
    Placement perturbed = placement;
    std::vector<MsId> by_cost;
    for (MsId m = 0; m < scenario_->num_microservices(); ++m) {
      if (perturbed.instance_count(m) > 1) by_cost.push_back(m);
    }
    if (by_cost.empty()) break;
    std::sort(by_cost.begin(), by_cost.end(), [&](MsId a, MsId b) {
      return catalog.microservice(a).deploy_cost *
                 perturbed.instance_count(a) >
             catalog.microservice(b).deploy_cost *
                 perturbed.instance_count(b);
    });
    for (std::size_t i = 0; i < std::min<std::size_t>(2 - kick, by_cost.size());
         ++i) {
      const MsId m = by_cost[i];
      // Keep the instance with the largest local demand, drop the rest.
      NodeId keep = net::kInvalidNode;
      int keep_demand = -1;
      for (NodeId k = 0; k < scenario_->num_nodes(); ++k) {
        if (perturbed.deployed(m, k) &&
            scenario_->demand_count(m, k) > keep_demand) {
          keep_demand = scenario_->demand_count(m, k);
          keep = k;
        }
      }
      for (NodeId k = 0; k < scenario_->num_nodes(); ++k) {
        if (k != keep) perturbed.remove(m, k);
      }
    }
    polish_descend(perturbed);
    if (serial_objective(perturbed) < serial_objective(placement) - 1e-9) {
      placement = std::move(perturbed);
    }
  }
}

}  // namespace socl::core

