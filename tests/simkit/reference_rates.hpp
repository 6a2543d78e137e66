// Reference rate allocator for the flow-network tests.
//
// A dense, free-standing restatement of both fairness models over plain
// vectors: no dirty regions, no heaps, no stall pruning, no persistent
// counters. FlowNetwork's incremental solvers must reproduce it bit for bit
// for every live flow at every settled instant, so a test that knows the
// capacities and the live flows' paths can check each sampled `rate()`
// with EXPECT_EQ rather than EXPECT_NEAR.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/ids.hpp"
#include "simkit/flow_network.hpp"

namespace moon::sim::testing {

using Path = std::vector<FlowNetwork::ResourceId>;

/// Rates (bytes/second) the fairness model assigns to flows crossing
/// `paths` over resources of capacity `caps`. A resource listed twice on a
/// path counts twice; a flow with an empty path gets +infinity.
inline std::vector<double> reference_rates(FairnessModel model,
                                           const std::vector<double>& caps,
                                           const std::vector<Path>& paths) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> rates(paths.size(), 0.0);
  std::vector<std::uint32_t> load(caps.size(), 0);

  if (model == FairnessModel::kBottleneckShare) {
    // Each flow gets the worst per-resource share along its path; stalled
    // flows (a zero-capacity resource on the path) get 0 and are left out
    // of every load count.
    std::vector<bool> stalled(paths.size(), false);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      for (const auto r : paths[i]) stalled[i] = stalled[i] || caps[r] <= 0.0;
      if (stalled[i]) continue;
      for (const auto r : paths[i]) ++load[r];
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (stalled[i]) continue;
      double rate = kInf;
      for (const auto r : paths[i]) {
        rate = std::min(rate, caps[r] / static_cast<double>(load[r]));
      }
      rates[i] = std::max(0.0, rate);
    }
    return rates;
  }

  // Max-min fairness by progressive filling over every resource: the
  // resource with the smallest share (lowest index on a tie) is the
  // bottleneck; its unfrozen flows freeze at that share, which is taken off
  // the residual of every resource they cross. Stalled flows get no special
  // case: zero-capacity resources have share 0 and freeze them first.
  std::vector<double> residual = caps;
  std::vector<std::size_t> unfrozen;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].empty()) {
      rates[i] = kInf;
      continue;
    }
    unfrozen.push_back(i);
    for (const auto r : paths[i]) ++load[r];
  }
  while (!unfrozen.empty()) {
    double best_share = kInf;
    std::size_t best_r = caps.size();
    for (std::size_t r = 0; r < caps.size(); ++r) {
      if (load[r] == 0) continue;
      const double share = residual[r] / static_cast<double>(load[r]);
      if (share < best_share) {
        best_share = share;
        best_r = r;
      }
    }
    if (best_r == caps.size()) break;
    const double rate = std::max(0.0, best_share);
    std::erase_if(unfrozen, [&](std::size_t i) {
      if (std::find(paths[i].begin(), paths[i].end(), best_r) == paths[i].end()) {
        return false;
      }
      for (const auto r : paths[i]) {
        residual[r] = std::max(0.0, residual[r] - rate);
        --load[r];
      }
      rates[i] = rate;
      return true;
    });
  }
  return rates;
}

/// Tallies `net.rate()` against reference_rates over all live flows.
struct RateAudit {
  std::size_t checked = 0;     ///< rates compared
  std::size_t mismatches = 0;  ///< rates not bit-identical to the reference
  std::size_t stalled = 0;     ///< flows seen with a zero-capacity hop

  /// `live` maps every flow active in `net` to its path; the network's
  /// resources are 0 .. resource_count - 1.
  void check(const FlowNetwork& net, FairnessModel model,
             std::size_t resource_count, const std::map<FlowId, Path>& live) {
    std::vector<double> caps;
    for (std::size_t r = 0; r < resource_count; ++r) {
      caps.push_back(net.capacity(r));
    }
    std::vector<Path> paths;
    for (const auto& [id, path] : live) paths.push_back(path);
    const std::vector<double> want = reference_rates(model, caps, paths);
    std::size_t i = 0;
    for (const auto& [id, path] : live) {
      ++checked;
      if (net.rate(id) != want[i]) ++mismatches;
      if (std::any_of(path.begin(), path.end(),
                      [&](auto r) { return caps[r] <= 0.0; })) {
        ++stalled;
      }
      ++i;
    }
  }
};

}  // namespace moon::sim::testing
