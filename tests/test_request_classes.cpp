// Tests for request-class aggregation (DESIGN.md §4g): exact-equality
// grouping, fingerprint/bucketing behaviour, the expansion API, and the
// replicate_requests population builder the scale benches rely on.
#include "workload/request_classes.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/scenario.h"

namespace socl::workload {
namespace {

UserRequest make_request(int id, net::NodeId attach,
                         std::vector<MsId> chain = {0, 1},
                         double deadline = 1e9) {
  UserRequest request;
  request.id = id;
  request.attach_node = attach;
  request.chain = std::move(chain);
  request.edge_data.assign(request.chain.size() - 1, 2.0);
  request.data_in = 1.0;
  request.data_out = 0.5;
  request.deadline = deadline;
  return request;
}

TEST(RequestClasses, IdenticalRequestsCollapseToOneClass) {
  std::vector<UserRequest> requests;
  for (int h = 0; h < 5; ++h) requests.push_back(make_request(h, 3));
  const RequestClasses classes(requests);
  ASSERT_EQ(classes.num_classes(), 1);
  EXPECT_EQ(classes.num_users(), 5);
  const auto& cls = classes.cls(0);
  EXPECT_EQ(cls.representative, 0);
  EXPECT_DOUBLE_EQ(cls.weight, 5.0);
  EXPECT_EQ(cls.size(), 5);
  EXPECT_EQ(cls.members, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(classes.compression_ratio(), 5.0);
  EXPECT_DOUBLE_EQ(classes.total_weight(), 5.0);
}

TEST(RequestClasses, IdIsNotPartOfTheClassKey) {
  const auto a = make_request(0, 2);
  const auto b = make_request(7, 2);
  EXPECT_TRUE(same_request_class(a, b));
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));
}

TEST(RequestClasses, EveryDemandFieldSplitsClasses) {
  const auto base = make_request(0, 2);
  auto other_attach = base;
  other_attach.attach_node = 3;
  auto other_chain = base;
  other_chain.chain = {1, 0};
  auto other_edge = base;
  other_edge.edge_data[0] = 3.0;
  auto other_in = base;
  other_in.data_in = 9.0;
  auto other_out = base;
  other_out.data_out = 9.0;
  auto other_deadline = base;
  other_deadline.deadline = 0.25;
  for (const auto* variant : {&other_attach, &other_chain, &other_edge,
                              &other_in, &other_out, &other_deadline}) {
    EXPECT_FALSE(same_request_class(base, *variant));
  }

  std::vector<UserRequest> requests{base,       other_attach, other_chain,
                                    other_edge, other_in,     other_out,
                                    other_deadline};
  for (std::size_t h = 0; h < requests.size(); ++h) {
    requests[h].id = static_cast<int>(h);
  }
  const RequestClasses classes(requests);
  EXPECT_EQ(classes.num_classes(), 7);
  EXPECT_DOUBLE_EQ(classes.compression_ratio(), 1.0);
}

TEST(RequestClasses, ChainLengthPrefixDoesNotCollide) {
  // {0} vs {0, 0}: a fingerprint that mixed only the chain ids (not the
  // length) would alias these; exact equality must keep them apart anyway.
  auto shorter = make_request(0, 1, {0});
  auto longer = make_request(1, 1, {0, 0});
  EXPECT_FALSE(same_request_class(shorter, longer));
  const RequestClasses classes({shorter, longer});
  EXPECT_EQ(classes.num_classes(), 2);
}

TEST(RequestClasses, ClassesOrderedByFirstAppearance) {
  // Interleaved: B A B A A. Classes must come out [B, A] with the lowest-id
  // member as representative.
  std::vector<UserRequest> requests{
      make_request(0, 5), make_request(1, 2), make_request(2, 5),
      make_request(3, 2), make_request(4, 2)};
  const RequestClasses classes(requests);
  ASSERT_EQ(classes.num_classes(), 2);
  EXPECT_EQ(classes.cls(0).representative, 0);
  EXPECT_EQ(classes.cls(0).members, (std::vector<int>{0, 2}));
  EXPECT_EQ(classes.cls(1).representative, 1);
  EXPECT_EQ(classes.cls(1).members, (std::vector<int>{1, 3, 4}));
  // The expansion map inverts the membership lists.
  EXPECT_EQ(classes.class_of(0), 0);
  EXPECT_EQ(classes.class_of(1), 1);
  EXPECT_EQ(classes.class_of(2), 0);
  EXPECT_EQ(classes.class_of(3), 1);
  EXPECT_EQ(classes.class_of(4), 1);
}

TEST(RequestClasses, NonDenseIdsThrow) {
  std::vector<UserRequest> gap{make_request(0, 1), make_request(2, 1)};
  EXPECT_THROW(RequestClasses{gap}, std::invalid_argument);
  std::vector<UserRequest> dup{make_request(0, 1), make_request(0, 2)};
  EXPECT_THROW(RequestClasses{dup}, std::invalid_argument);
}

TEST(RequestClasses, EmptyWorkload) {
  const RequestClasses classes((std::vector<UserRequest>{}));
  EXPECT_EQ(classes.num_classes(), 0);
  EXPECT_EQ(classes.num_users(), 0);
  EXPECT_DOUBLE_EQ(classes.compression_ratio(), 1.0);
}

TEST(RequestClasses, ReplicateRequestsBoundsClassCount) {
  std::vector<UserRequest> templates{make_request(0, 0), make_request(1, 1),
                                     make_request(2, 2, {1, 0})};
  const auto population = replicate_requests(templates, 10);
  ASSERT_EQ(population.size(), 10u);
  for (int h = 0; h < 10; ++h) {
    EXPECT_EQ(population[static_cast<std::size_t>(h)].id, h);  // fresh dense
    EXPECT_TRUE(same_request_class(population[static_cast<std::size_t>(h)],
                                   templates[static_cast<std::size_t>(h) %
                                             templates.size()]));
  }
  const RequestClasses classes(population);
  EXPECT_EQ(classes.num_classes(), 3);
  // Round-robin over 3 templates at 10 users: weights 4, 3, 3.
  EXPECT_DOUBLE_EQ(classes.cls(0).weight, 4.0);
  EXPECT_DOUBLE_EQ(classes.cls(1).weight, 3.0);
  EXPECT_DOUBLE_EQ(classes.cls(2).weight, 3.0);
}

TEST(RequestClasses, ScenarioExposesClassesAndEpoch) {
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 8;
  auto scenario = core::make_scenario(config, 21);
  const auto epoch = scenario.workload_epoch();
  EXPECT_EQ(scenario.classes().num_users(), scenario.num_users());
  EXPECT_LE(scenario.classes().num_classes(), scenario.num_users());

  scenario.set_requests(
      replicate_requests(scenario.requests(), 4 * scenario.num_users()));
  EXPECT_GT(scenario.workload_epoch(), epoch);
  EXPECT_EQ(scenario.classes().num_users(), 32);
  EXPECT_LE(scenario.classes().num_classes(), 8);
  EXPECT_GE(scenario.classes().compression_ratio(), 4.0);
}

TEST(RequestClasses, UnchangedWorkloadKeepsTheEpoch) {
  // Epoch hygiene (the serving loop's carried-slot fast path): replacing
  // the requests with an element-wise identical workload must not bump the
  // workload epoch — per-class route caches keyed on it stay valid and no
  // reindex runs.
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 12;
  auto scenario = core::make_scenario(config, 33);
  const auto epoch = scenario.workload_epoch();

  scenario.set_requests(scenario.requests());  // identical copy
  EXPECT_EQ(scenario.workload_epoch(), epoch);

  // A mobility slot where nobody moved is the same no-op.
  auto requests = scenario.requests();
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch);
}

TEST(RequestClasses, SingleMovedUserBumpsTheEpoch) {
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 12;
  auto scenario = core::make_scenario(config, 34);
  const auto epoch = scenario.workload_epoch();

  auto requests = scenario.requests();
  const net::NodeId moved_to = (requests[0].attach_node + 1) % 6;
  requests[0].attach_node = moved_to;
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);
  // The rebuilt indices reflect the move.
  EXPECT_EQ(scenario.classes().num_users(), 12);
  const auto& classes = scenario.classes();
  const auto& moved_class = classes.cls(classes.class_of(0));
  EXPECT_EQ(scenario.request(moved_class.representative).attach_node,
            moved_to);
  for (const MsId m : scenario.request(0).chain) {
    EXPECT_GT(scenario.demand_count(m, moved_to), 0);
  }
}

TEST(RequestClasses, AnyDemandTupleChangeBumpsTheEpoch) {
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 8;
  auto scenario = core::make_scenario(config, 35);

  // Deadline is part of the Eq. 2/4 tuple even though it does not affect
  // the demand indices — a deadline-only change must still reindex.
  auto epoch = scenario.workload_epoch();
  auto requests = scenario.requests();
  requests[3].deadline += 1.0;
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);

  // Payload changes count too.
  epoch = scenario.workload_epoch();
  requests = scenario.requests();
  requests[0].data_in += 0.5;
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);

  // A different length is trivially a change.
  epoch = scenario.workload_epoch();
  requests = scenario.requests();
  requests.pop_back();
  for (std::size_t h = 0; h < requests.size(); ++h) {
    requests[h].id = static_cast<int>(h);
  }
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);
}

}  // namespace
}  // namespace socl::workload
