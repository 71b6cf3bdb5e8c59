#include "serverless/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"
#include "workload/trace.h"

namespace socl::serverless {
namespace {

/// SplitMix64-style stream derivation so per-user streams are independent of
/// the user count (the Rng constructor finishes the mixing).
std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t stream) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
}

}  // namespace

std::vector<double> arrival_profile(const ArrivalConfig& config) {
  if (config.bins <= 0 || config.horizon_s <= 0.0) {
    throw std::invalid_argument("arrival_profile: non-positive window");
  }
  // The trace generator emits a Fig. 4-style diurnal + bursty volume series;
  // sample it at bin resolution and renormalise to mean 1.
  const int bins_per_hour = 4;
  const int hours = (config.bins + bins_per_hour - 1) / bins_per_hour;
  const auto series = workload::request_volume_series(
      hours, bins_per_hour, /*base_rate=*/1000.0, config.seed ^ 0xF19A4ULL);

  std::vector<double> profile(static_cast<std::size_t>(config.bins), 1.0);
  double sum = 0.0;
  for (int b = 0; b < config.bins; ++b) {
    profile[static_cast<std::size_t>(b)] =
        series[static_cast<std::size_t>(b) % series.size()];
    sum += profile[static_cast<std::size_t>(b)];
  }
  const double mean = sum / static_cast<double>(config.bins);
  for (auto& value : profile) {
    const double relative = mean > 0.0 ? value / mean : 1.0;
    value = std::max(0.05, 1.0 + config.burstiness * (relative - 1.0));
  }
  return profile;
}

std::vector<Arrival> generate_arrivals(int num_users,
                                       const ArrivalConfig& config) {
  if (num_users < 0) {
    throw std::invalid_argument("generate_arrivals: negative user count");
  }
  const auto profile = arrival_profile(config);
  const double bin_len =
      config.horizon_s / static_cast<double>(config.bins);

  // Per-bin Poisson means and Knuth thresholds, shared by every user. Each
  // user's stream draws exactly what util::Rng::poisson would: nothing for
  // a zero mean, Knuth's product loop below 30, and (through poisson
  // itself) the normal approximation from 30.
  const auto bins = static_cast<std::size_t>(config.bins);
  std::vector<double> expected(bins);
  std::vector<double> threshold(bins, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    expected[b] = config.mean_rate * bin_len * profile[b];
    if (expected[b] > 0.0 && expected[b] < 30.0) {
      threshold[b] = std::exp(-expected[b]);
    }
  }

  std::vector<Arrival> all;
  std::vector<double> times;
  for (int u = 0; u < num_users; ++u) {
    util::Rng rng(mix_stream(config.seed, static_cast<std::uint64_t>(u)));
    times.clear();
    for (std::size_t b = 0; b < bins; ++b) {
      std::uint64_t count = 0;
      if (threshold[b] > 0.0) {
        double product = rng.uniform();
        while (product > threshold[b]) {
          ++count;
          product *= rng.uniform();
        }
      } else {
        count = rng.poisson(expected[b]);
      }
      const double lo = static_cast<double>(b) * bin_len;
      for (std::uint64_t i = 0; i < count; ++i) {
        times.push_back(lo + rng.uniform(0.0, bin_len));
      }
    }
    std::sort(times.begin(), times.end());
    for (std::size_t i = 0; i < times.size(); ++i) {
      all.push_back({times[i], u, static_cast<int>(i)});
    }
  }
  // Merge by a counting sort on a time bucket, then (time, user, seq) inside
  // each bucket. The bucket index is monotone in time, so concatenating the
  // buckets yields the fully sorted stream in O(arrivals).
  const std::size_t buckets = std::max<std::size_t>(all.size(), 1);
  const double scale = static_cast<double>(buckets) / config.horizon_s;
  const auto bucket_of = [&](double t) {
    const double x = t * scale;
    return x < static_cast<double>(buckets) ? static_cast<std::size_t>(x)
                                            : buckets - 1;
  };
  std::vector<std::size_t> next(buckets + 1, 0);
  for (const Arrival& arrival : all) ++next[bucket_of(arrival.time_s) + 1];
  for (std::size_t b = 0; b < buckets; ++b) next[b + 1] += next[b];
  std::vector<Arrival> merged(all.size());
  for (const Arrival& arrival : all) {
    merged[next[bucket_of(arrival.time_s)]++] = arrival;
  }
  // next[b] now ends bucket b (and begins bucket b + 1).
  std::size_t begin = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    std::sort(merged.begin() + static_cast<std::ptrdiff_t>(begin),
              merged.begin() + static_cast<std::ptrdiff_t>(next[b]),
              [](const Arrival& x, const Arrival& y) {
                if (x.time_s != y.time_s) return x.time_s < y.time_s;
                if (x.user != y.user) return x.user < y.user;
                return x.seq < y.seq;
              });
    begin = next[b];
  }
  return merged;
}

std::vector<std::vector<Arrival>> split_arrivals(
    std::span<const Arrival> arrivals, std::span<const int> group_of,
    int groups) {
  if (groups <= 0) {
    throw std::invalid_argument("split_arrivals: groups <= 0");
  }
  std::vector<std::vector<Arrival>> out(static_cast<std::size_t>(groups));
  for (const Arrival& arrival : arrivals) {
    const std::size_t user = static_cast<std::size_t>(arrival.user);
    if (user >= group_of.size()) {
      throw std::out_of_range("split_arrivals: user without a group");
    }
    const int group = group_of[user];
    if (group < 0 || group >= groups) {
      throw std::invalid_argument("split_arrivals: group id out of range");
    }
    out[static_cast<std::size_t>(group)].push_back(arrival);
  }
  return out;
}

}  // namespace socl::serverless
