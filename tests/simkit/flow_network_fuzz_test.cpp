// Differential fuzz of the flow network against the test-side reference.
//
// Each case builds a small random network and drives it through seeded
// random churn: flow starts on 1-4-hop paths (some listing a resource more
// than once), aborts, single capacity changes (zero included), batched
// availability flips of one to three nodes, same-timestamp bursts, and
// successors started from completion callbacks. Two arms run the same case:
// the production network, and the same network with a read after every
// churn call, which settles eagerly through the same code. At every sample
// each live flow's rate must equal testing::reference_rates exactly, and the
// two arms must agree on completion order and times, on every sample and on
// every resource's transferred bytes.
#include "simkit/flow_network.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "reference_rates.hpp"
#include "simkit/simulation.hpp"

namespace moon::sim {
namespace {

using testing::Path;
using testing::RateAudit;

constexpr int kSteps = 300;

struct FuzzArm {
  Simulation sim;
  FairnessModel model;
  bool read_after_churn;
  FlowNetwork net;
  Rng rng;
  std::vector<double> up_cap;  // per resource: its capacity while up
  std::vector<FlowId> live;
  std::map<FlowId, Path> paths;
  std::vector<std::pair<FlowId, Time>> completions;
  std::vector<double> samples;
  RateAudit audit;

  FuzzArm(FairnessModel fairness, std::uint64_t seed, bool read)
      : model(fairness), read_after_churn(read), net(sim, fairness), rng(seed) {
    const auto nodes = rng.uniform_int(3, 8);
    const double caps[] = {mibps(10.0), mibps(30.0), mibps(80.0)};
    for (std::int64_t i = 0; i < nodes * 3; ++i) {
      up_cap.push_back(caps[rng.uniform_int(0, 2)]);
      // Some resources start out down.
      net.add_resource(rng.chance(0.1) ? 0.0 : up_cap.back());
    }
  }

  void churned() {
    if (read_after_churn) (void)net.rate(FlowId::invalid());
  }

  FlowNetwork::ResourceId any_resource() {
    return static_cast<FlowNetwork::ResourceId>(
        rng.uniform_int(0, static_cast<std::int64_t>(up_cap.size()) - 1));
  }

  void start(bool chain) {
    Path path;
    const auto hops = rng.uniform_int(1, 4);
    for (std::int64_t h = 0; h < hops; ++h) {
      // A quarter of the hops repeat one already on the path.
      if (!path.empty() && rng.chance(0.25)) {
        path.push_back(path[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(path.size()) - 1))]);
      } else {
        path.push_back(any_resource());
      }
    }
    const Bytes size = rng.uniform_int(1, mib(1.0));
    const FlowId id = net.start_flow(path, size, [this, chain](FlowId f) {
      completions.emplace_back(f, sim.now());
      std::erase(live, f);
      paths.erase(f);
      if (chain && rng.chance(0.3)) start(false);
    });
    live.push_back(id);
    paths.emplace(id, std::move(path));
    churned();
  }

  void set_node(std::size_t node, bool up) {
    for (std::size_t r = node * 3; r < node * 3 + 3; ++r) {
      net.set_capacity(r, up ? up_cap[r] : 0.0);
    }
  }

  void sample() {
    for (const FlowId f : live) {
      samples.push_back(net.rate(f));
      samples.push_back(static_cast<double>(net.remaining(f)));
    }
    audit.check(net, model, up_cap.size(), paths);
  }

  void run() {
    Time t = 0;
    const auto nodes = static_cast<std::int64_t>(up_cap.size() / 3);
    for (int step = 0; step < kSteps; ++step) {
      // Half the steps stay on the current timestamp: same-instant bursts.
      if (rng.chance(0.5)) t += rng.uniform_int(1, 200) * kMillisecond;
      sim.run_until(t);
      const auto roll = rng.uniform_int(0, 99);
      if (roll < 40) {
        start(/*chain=*/true);
      } else if (roll < 52) {
        if (live.empty()) continue;
        const FlowId victim = live[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
        net.abort_flow(victim);
        std::erase(live, victim);
        paths.erase(victim);
        churned();
      } else if (roll < 67) {
        const auto r = any_resource();
        net.set_capacity(r, rng.chance(0.4) ? 0.0 : up_cap[r]);
        churned();
      } else if (roll < 82) {
        {
          // Availability flips of several nodes applied as one settle.
          FlowNetwork::CapacityBatch batch(net);
          const auto flips = rng.uniform_int(1, 3);
          for (std::int64_t i = 0; i < flips; ++i) {
            set_node(static_cast<std::size_t>(rng.uniform_int(0, nodes - 1)),
                     rng.chance(0.5));
          }
        }
        churned();
      } else {
        sample();
      }
    }
    // Drain: bring every resource up so every flow completes.
    {
      FlowNetwork::CapacityBatch batch(net);
      for (std::int64_t n = 0; n < nodes; ++n) {
        set_node(static_cast<std::size_t>(n), true);
      }
    }
    sample();
    sim.run();
  }
};

class FlowNetworkFuzzTest
    : public ::testing::TestWithParam<std::tuple<FairnessModel, int>> {};

TEST_P(FlowNetworkFuzzTest, RatesMatchReferenceAndArmsAgree) {
  const auto [model, seed] = GetParam();
  FuzzArm production(model, static_cast<std::uint64_t>(seed), false);
  FuzzArm eager(model, static_cast<std::uint64_t>(seed), true);
  production.run();
  eager.run();

  for (const FuzzArm* arm : {&production, &eager}) {
    SCOPED_TRACE(arm->read_after_churn ? "read-after-churn" : "production");
    EXPECT_EQ(arm->audit.mismatches, 0u) << "rates differ from the reference";
    // Not vacuous: stalled flows were sampled, churn retired many flows, and
    // the drain retired the rest.
    EXPECT_GT(arm->audit.stalled, 0u);
    EXPECT_GT(arm->completions.size(), 50u);
    EXPECT_EQ(arm->net.active_flows(), 0u);
  }
  EXPECT_EQ(eager.completions, production.completions);
  EXPECT_EQ(eager.samples, production.samples);
  for (std::size_t r = 0; r < production.up_cap.size(); ++r) {
    EXPECT_EQ(eager.net.transferred_through(r),
              production.net.transferred_through(r))
        << "resource " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, FlowNetworkFuzzTest,
    ::testing::Combine(::testing::Values(FairnessModel::kMaxMin,
                                         FairnessModel::kBottleneckShare),
                       ::testing::Range(1, 65)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param) == FairnessModel::kMaxMin
                             ? "MaxMin"
                             : "BottleneckShare") +
             "Seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace moon::sim
