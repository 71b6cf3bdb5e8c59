#include "workload/request_classes.h"

#include <cstring>
#include <stdexcept>
#include <unordered_map>

namespace socl::workload {
namespace {

// FNV-1a, the same mix the serving loop uses for demand fingerprints.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  static_assert(sizeof(out) == sizeof(value));
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

}  // namespace

std::uint64_t request_fingerprint(const UserRequest& request) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv_mix(hash, static_cast<std::uint64_t>(request.attach_node));
  hash = fnv_mix(hash, static_cast<std::uint64_t>(request.chain.size()));
  for (MsId m : request.chain) {
    hash = fnv_mix(hash, static_cast<std::uint64_t>(m));
  }
  for (double volume : request.edge_data) hash = fnv_mix(hash, bits(volume));
  hash = fnv_mix(hash, bits(request.data_in));
  hash = fnv_mix(hash, bits(request.data_out));
  hash = fnv_mix(hash, bits(request.deadline));
  return hash;
}

bool same_request_class(const UserRequest& a, const UserRequest& b) {
  return a.attach_node == b.attach_node && a.chain == b.chain &&
         a.edge_data == b.edge_data && a.data_in == b.data_in &&
         a.data_out == b.data_out && a.deadline == b.deadline;
}

RequestClasses::RequestClasses(const std::vector<UserRequest>& requests)
    : num_users_(static_cast<int>(requests.size())) {
  class_of_.assign(requests.size(), -1);
  // fingerprint → class indices sharing it. Collisions stay distinct classes
  // thanks to the exact-equality check below.
  std::unordered_map<std::uint64_t, std::vector<int>> buckets;
  buckets.reserve(requests.size());

  for (const auto& request : requests) {
    if (request.id < 0 ||
        static_cast<std::size_t>(request.id) >= requests.size() ||
        class_of_[static_cast<std::size_t>(request.id)] != -1) {
      throw std::invalid_argument(
          "RequestClasses: request ids must be dense and unique in "
          "[0, num_users)");
    }
    const std::uint64_t fp = request_fingerprint(request);
    auto& bucket = buckets[fp];
    int cls = -1;
    for (int candidate : bucket) {
      const auto& rep = requests[static_cast<std::size_t>(
          classes_[static_cast<std::size_t>(candidate)].representative)];
      if (same_request_class(rep, request)) {
        cls = candidate;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(classes_.size());
      RequestClass fresh;
      fresh.representative = request.id;
      fresh.fingerprint = fp;
      classes_.push_back(std::move(fresh));
      bucket.push_back(cls);
    }
    auto& entry = classes_[static_cast<std::size_t>(cls)];
    entry.members.push_back(request.id);
    entry.weight += 1.0;
    class_of_[static_cast<std::size_t>(request.id)] = cls;
  }

  // Inverted chain index. Class order is ascending by construction; a chain
  // may repeat a microservice, so skip ids already recorded for this class.
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto& chain =
        requests[static_cast<std::size_t>(classes_[c].representative)].chain;
    for (MsId m : chain) {
      const auto idx = static_cast<std::size_t>(m);
      if (idx >= classes_using_.size()) classes_using_.resize(idx + 1);
      auto& list = classes_using_[idx];
      if (list.empty() || list.back() != static_cast<int>(c)) {
        list.push_back(static_cast<int>(c));
      }
    }
  }
}

const std::vector<int> RequestClasses::kNoClasses;

void ClassDemandSoA::build(const RequestClasses& classes,
                           const std::vector<UserRequest>& requests) {
  const auto count = static_cast<std::size_t>(classes.num_classes());
  chain_offset.clear();
  chain.clear();
  edge_offset.clear();
  edge_data.clear();
  attach.clear();
  data_in.clear();
  data_out.clear();
  deadline.clear();
  weight.clear();
  representative.clear();
  chain_offset.reserve(count + 1);
  edge_offset.reserve(count + 1);
  attach.reserve(count);

  chain_offset.push_back(0);
  edge_offset.push_back(0);
  for (std::size_t c = 0; c < count; ++c) {
    const RequestClass& cls = classes.cls(static_cast<int>(c));
    const UserRequest& rep =
        requests.at(static_cast<std::size_t>(cls.representative));
    chain.insert(chain.end(), rep.chain.begin(), rep.chain.end());
    edge_data.insert(edge_data.end(), rep.edge_data.begin(),
                     rep.edge_data.end());
    chain_offset.push_back(static_cast<std::int32_t>(chain.size()));
    edge_offset.push_back(static_cast<std::int32_t>(edge_data.size()));
    attach.push_back(rep.attach_node);
    data_in.push_back(rep.data_in);
    data_out.push_back(rep.data_out);
    deadline.push_back(rep.deadline);
    weight.push_back(cls.weight);
    representative.push_back(cls.representative);
  }
}

std::size_t ClassDemandSoA::bytes() const {
  return chain_offset.capacity() * sizeof(std::int32_t) +
         chain.capacity() * sizeof(MsId) +
         edge_offset.capacity() * sizeof(std::int32_t) +
         edge_data.capacity() * sizeof(double) +
         attach.capacity() * sizeof(net::NodeId) +
         (data_in.capacity() + data_out.capacity() + deadline.capacity() +
          weight.capacity()) *
             sizeof(double) +
         representative.capacity() * sizeof(int);
}

std::vector<UserRequest> replicate_requests(
    const std::vector<UserRequest>& templates, int num_users) {
  if (templates.empty()) {
    throw std::invalid_argument("replicate_requests: empty template set");
  }
  std::vector<UserRequest> out;
  out.reserve(static_cast<std::size_t>(num_users));
  for (int h = 0; h < num_users; ++h) {
    UserRequest request =
        templates[static_cast<std::size_t>(h) % templates.size()];
    request.id = h;
    out.push_back(std::move(request));
  }
  return out;
}

}  // namespace socl::workload
