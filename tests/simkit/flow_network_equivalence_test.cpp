// Golden equivalence: the incremental solver and the timestamp-coalesced
// settle path must reproduce the dense/eager reference *bit for bit* —
// identical completion order and times, identical rates at every sample
// point, identical per-resource transferred bytes — for both fairness
// models, under seeded random churn of flow starts, aborts, capacity
// changes, and batched node-style availability flips. The script includes
// zero-delta steps, so same-timestamp churn bursts (the case coalescing
// exists for) are exercised, as are reads interleaved into a burst.
//
// The driver pre-generates one scripted churn sequence (pure data), then
// replays it against four independent Simulation+FlowNetwork stacks
// spanning SolverMode × CoalesceMode. Abort/start targets are picked by
// indexing the driver's own live-flow list with the scripted draws, so the
// runs stay in lockstep exactly as long as their observable behaviour is
// identical — any divergence cascades into mismatched logs.
#include "simkit/flow_network.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simkit/simulation.hpp"

namespace moon::sim {
namespace {

constexpr int kNodes = 24;  // 3 resources each: nic_in, nic_out, disk
constexpr int kSteps = 600;

enum class Kind { kStart, kAbort, kSetCapacity, kNodeFlip, kSample };

struct Action {
  Time at;
  Kind kind;
  std::uint64_t a, b, c;  // raw draws, interpreted against each run's state
};

std::vector<Action> make_script(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Action> script;
  Time t = 0;
  for (int i = 0; i < kSteps; ++i) {
    // ~1/3 zero-delta steps: several actions land on one virtual timestamp.
    t += rng.uniform_int(0, 2) == 0 ? 0 : rng.uniform_int(1, 400) * kMillisecond;
    const auto roll = rng.uniform_int(0, 99);
    Kind kind;
    if (roll < 40) {
      kind = Kind::kStart;
    } else if (roll < 55) {
      kind = Kind::kAbort;
    } else if (roll < 70) {
      kind = Kind::kSetCapacity;
    } else if (roll < 85) {
      kind = Kind::kNodeFlip;
    } else {
      kind = Kind::kSample;
    }
    script.push_back(Action{t, kind,
                            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)),
                            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)),
                            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))});
  }
  return script;
}

/// One replay of the script: owns the sim, the net, and the observation logs.
struct Replay {
  Simulation sim;
  FlowNetwork net;
  std::vector<FlowNetwork::ResourceId> resources;  // 3 per node
  std::vector<bool> node_up;
  std::vector<FlowId> live;                     // driver's view of active flows
  std::vector<std::pair<FlowId, Time>> completions;
  std::vector<double> samples;                  // rates + remaining at kSample
  int chained = 0;

  Replay(FairnessModel model, SolverMode solver, CoalesceMode coalesce)
      : net(sim, model, solver, coalesce) {
    for (int n = 0; n < kNodes; ++n) {
      resources.push_back(net.add_resource(mibps(80.0)));  // nic_in
      resources.push_back(net.add_resource(mibps(80.0)));  // nic_out
      resources.push_back(net.add_resource(mibps(30.0)));  // disk
      node_up.push_back(true);
    }
  }

  void start(std::uint64_t a, std::uint64_t b, std::uint64_t c, bool chain) {
    const auto src = a % kNodes;
    const auto dst = b % kNodes;
    std::vector<FlowNetwork::ResourceId> path{resources[src * 3 + 1],
                                              resources[dst * 3 + 0]};
    if (c % 2 == 0) path.push_back(resources[dst * 3 + 2]);  // + target disk
    const Bytes size =
        static_cast<Bytes>(1 + c % static_cast<std::uint64_t>(mib(4.0)));
    const FlowId id = net.start_flow(path, size, [this, chain](FlowId f) {
      completions.emplace_back(f, sim.now());
      std::erase(live, f);
      // Exercise completion-driven churn: some completions immediately start
      // a successor, from inside the settle's retire cascade.
      if (chain && ++chained % 3 == 0) {
        start(static_cast<std::uint64_t>(chained) * 2654435761u,
              static_cast<std::uint64_t>(chained) * 40503u + 7, 1 + chained % 9,
              false);
      }
    });
    live.push_back(id);
  }

  void apply(const Action& act) {
    sim.run_until(act.at);
    switch (act.kind) {
      case Kind::kStart:
        start(act.a, act.b, act.c, /*chain=*/true);
        break;
      case Kind::kAbort: {
        if (live.empty()) break;
        const FlowId victim = live[act.a % live.size()];
        net.abort_flow(victim);
        std::erase(live, victim);
        break;
      }
      case Kind::kSetCapacity: {
        const auto r = resources[act.a % resources.size()];
        const double caps[] = {0.0, mibps(20.0), mibps(55.0), mibps(80.0)};
        net.set_capacity(r, caps[act.b % 4]);
        break;
      }
      case Kind::kNodeFlip: {
        // Node-style availability transition: all three resources in one
        // batched settle, like Node::set_available.
        const auto n = act.a % kNodes;
        const bool up = !node_up[n];
        node_up[n] = up;
        FlowNetwork::CapacityBatch batch(net);
        net.set_capacity(resources[n * 3 + 0], up ? mibps(80.0) : 0.0);
        net.set_capacity(resources[n * 3 + 1], up ? mibps(80.0) : 0.0);
        net.set_capacity(resources[n * 3 + 2], up ? mibps(30.0) : 0.0);
        break;
      }
      case Kind::kSample:
        for (const FlowId f : live) {
          samples.push_back(net.rate(f));
          samples.push_back(static_cast<double>(net.remaining(f)));
        }
        break;
    }
  }
};

class FlowEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<FairnessModel, std::uint64_t>> {};

TEST_P(FlowEquivalenceTest, SolverAndCoalesceModesMatchBitForBit) {
  const auto [model, seed] = GetParam();
  const std::vector<Action> script = make_script(seed);

  // Reference first: dense solver, eager settles — the pre-optimization
  // configuration both axes are measured against.
  std::vector<std::unique_ptr<Replay>> replays;
  std::vector<std::string> labels;
  for (const SolverMode solver : {SolverMode::kDense, SolverMode::kIncremental}) {
    for (const CoalesceMode coalesce :
         {CoalesceMode::kEager, CoalesceMode::kCoalesced}) {
      replays.push_back(std::make_unique<Replay>(model, solver, coalesce));
      labels.push_back(std::string(solver == SolverMode::kDense ? "dense"
                                                                : "incremental") +
                       (coalesce == CoalesceMode::kEager ? "/eager"
                                                         : "/coalesced"));
    }
  }
  for (const Action& act : script) {
    for (auto& replay : replays) replay->apply(act);
  }
  // Drain: let every still-live unstalled flow finish.
  for (auto& replay : replays) replay->sim.run();

  const Replay& ref = *replays.front();
  EXPECT_GT(ref.completions.size(), 50u);  // meaningful churn ran
  for (std::size_t v = 1; v < replays.size(); ++v) {
    const Replay& arm = *replays[v];
    SCOPED_TRACE(labels[v] + " vs " + labels[0]);
    ASSERT_EQ(arm.completions.size(), ref.completions.size());
    for (std::size_t i = 0; i < ref.completions.size(); ++i) {
      EXPECT_EQ(arm.completions[i].first, ref.completions[i].first)
          << "completion order diverged at #" << i;
      EXPECT_EQ(arm.completions[i].second, ref.completions[i].second)
          << "completion time diverged at #" << i;
    }
    ASSERT_EQ(arm.samples.size(), ref.samples.size());
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
      EXPECT_EQ(arm.samples[i], ref.samples[i])  // exact, not NEAR
          << "rate/remaining sample diverged at #" << i;
    }
    ASSERT_EQ(arm.resources.size(), ref.resources.size());
    for (std::size_t r = 0; r < ref.resources.size(); ++r) {
      EXPECT_EQ(arm.net.transferred_through(arm.resources[r]),
                ref.net.transferred_through(ref.resources[r]))
          << "transferred bytes diverged on resource " << r;
    }
    ASSERT_EQ(arm.live.size(), ref.live.size());
    EXPECT_EQ(arm.net.active_flows(), ref.net.active_flows());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, FlowEquivalenceTest,
    ::testing::Combine(::testing::Values(FairnessModel::kMaxMin,
                                         FairnessModel::kBottleneckShare),
                       ::testing::Values(1u, 20100621u, 987654321u)),
    [](const auto& param_info) {
      const std::string model =
          std::get<0>(param_info.param) == FairnessModel::kMaxMin
              ? "MaxMin"
              : "BottleneckShare";
      return model + "Seed" + std::to_string(std::get<1>(param_info.param));
    });

// ---- stalled-flow pruning ---------------------------------------------------
// The incremental max-min solve freezes stalled flows (a zero-capacity
// resource on the path) at rate 0 before progressive filling, instead of
// letting zero-share bottleneck rounds freeze them (DESIGN.md §8). This
// scenario aims at the edges of that argument: two groups of live flows
// whose only connection is a set of flows stalled on a down relay node,
// paths that list one resource twice, and nodes that go down and come back
// up inside one same-timestamp burst. The relay also comes up now and then,
// merging the groups through the (then live) bridge flows.

/// One arm of the bridge scenario. Nodes 0-2 form group A, 3-5 group B, and
/// node 6 is the relay the bridge flows cross.
struct BridgeReplay {
  static constexpr int kRelay = 6;
  Simulation sim;
  FlowNetwork net;
  std::vector<FlowNetwork::ResourceId> res;  // 3 per node: nic_in, nic_out, disk
  std::vector<FlowId> group[2];
  std::vector<FlowId> bridges;
  bool relay_up = true;
  std::vector<std::pair<FlowId, Time>> completions;
  std::vector<double> samples;  // rate, remaining of every live flow
  int bridged_samples = 0;      // groups live, joined only by stalled bridges

  BridgeReplay(SolverMode solver, CoalesceMode coalesce)
      : net(sim, FairnessModel::kMaxMin, solver, coalesce) {
    for (int n = 0; n <= kRelay; ++n) {
      res.push_back(net.add_resource(mibps(80.0)));
      res.push_back(net.add_resource(mibps(80.0)));
      res.push_back(net.add_resource(mibps(30.0)));
    }
  }

  FlowNetwork::ResourceId nic_in(int n) const { return res[n * 3 + 0]; }
  FlowNetwork::ResourceId nic_out(int n) const { return res[n * 3 + 1]; }
  FlowNetwork::ResourceId disk(int n) const { return res[n * 3 + 2]; }

  void set_node(int n, bool up) {
    FlowNetwork::CapacityBatch batch(net);
    net.set_capacity(nic_in(n), up ? mibps(80.0) : 0.0);
    net.set_capacity(nic_out(n), up ? mibps(80.0) : 0.0);
    net.set_capacity(disk(n), up ? mibps(30.0) : 0.0);
    if (n == kRelay) relay_up = up;
  }

  void start(std::vector<FlowId>& into,
             std::vector<FlowNetwork::ResourceId> path, Bytes size) {
    std::vector<FlowId>* list = &into;
    const FlowId id = net.start_flow(std::move(path), size, [this, list](FlowId f) {
      completions.emplace_back(f, sim.now());
      std::erase(*list, f);
    });
    into.push_back(id);
  }

  void start_in_group(int g, Rng& rng) {
    const int src = g * 3 + static_cast<int>(rng.uniform_int(0, 2));
    const int dst = g * 3 + static_cast<int>(rng.uniform_int(0, 2));
    const Bytes size = static_cast<Bytes>(rng.uniform_int(1, 1 << 22));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        start(group[g], {disk(src), nic_out(src), nic_in(dst), disk(dst)}, size);
        break;
      case 1:
        start(group[g], {nic_out(src), nic_in(dst)}, size);
        break;
      case 2:  // the source disk listed twice: read and local spill
        start(group[g], {disk(src), nic_out(src), disk(src)}, size);
        break;
      default:
        start(group[g], {nic_in(dst), nic_in(dst)}, size);
        break;
    }
  }

  void start_bridges() {
    start(bridges, {nic_out(0), nic_in(kRelay), nic_out(kRelay), nic_in(4)},
          mib(3.0));
    start(bridges, {disk(2), disk(kRelay), nic_in(3)}, mib(2.0));
    start(bridges, {nic_out(5), nic_in(kRelay), nic_in(kRelay), nic_in(1)},
          mib(1.0));
  }

  void sample() {
    bool live[2] = {false, false};
    for (int g = 0; g < 2; ++g) {
      for (const FlowId f : group[g]) {
        const double rate = net.rate(f);
        live[g] = live[g] || rate > 0.0;
        samples.push_back(rate);
        samples.push_back(static_cast<double>(net.remaining(f)));
      }
    }
    bool bridges_stalled = !bridges.empty();
    for (const FlowId f : bridges) {
      const double rate = net.rate(f);
      bridges_stalled = bridges_stalled && rate == 0.0;
      samples.push_back(rate);
      samples.push_back(static_cast<double>(net.remaining(f)));
    }
    if (!relay_up && bridges_stalled && live[0] && live[1]) ++bridged_samples;
  }

  /// Seeded bursts of same-timestamp churn. The draws depend on the arm's
  /// own state (live-list sizes), so arms stay in lockstep exactly as long as
  /// their behaviour is identical.
  void run(std::uint64_t seed) {
    Rng rng{seed};
    for (int g = 0; g < 2; ++g) {
      for (int i = 0; i < 4; ++i) start_in_group(g, rng);
    }
    set_node(kRelay, false);
    start_bridges();
    sample();
    Time t = 0;
    for (int round = 0; round < 80; ++round) {
      t += rng.uniform_int(1, 300) * kMillisecond;
      sim.run_until(t);
      if (round % 20 == 19) {
        set_node(kRelay, true);  // bridges go live: the groups merge
        sample();
        continue;
      }
      if (relay_up) {
        set_node(kRelay, false);
        if (bridges.size() < 2) start_bridges();
      }
      const auto ops = rng.uniform_int(2, 5);
      for (std::int64_t op = 0; op < ops; ++op) {
        const int g = static_cast<int>(rng.uniform_int(0, 1));
        switch (rng.uniform_int(0, 4)) {
          case 0:
            start_in_group(g, rng);
            break;
          case 1:
            if (!group[g].empty()) {
              const auto i = static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(group[g].size()) - 1));
              net.abort_flow(group[g][i]);
              group[g].erase(group[g].begin() + static_cast<std::ptrdiff_t>(i));
            }
            break;
          case 2:  // the relay comes up and goes down within the burst
            set_node(kRelay, true);
            set_node(kRelay, false);
            break;
          case 3: {  // a group node goes down and comes back up
            const int n = g * 3 + static_cast<int>(rng.uniform_int(0, 2));
            set_node(n, false);
            start_in_group(g, rng);
            set_node(n, true);
            break;
          }
          default:
            sample();  // a read inside the burst
            break;
        }
      }
      sample();
    }
    set_node(kRelay, true);
    sim.run();  // drain: every flow completes
  }
};

class StalledPruningTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StalledPruningTest, StalledBridgesAndDuplicatePathsMatchDense) {
  std::vector<std::unique_ptr<BridgeReplay>> arms;
  std::vector<std::string> labels;
  for (const SolverMode solver : {SolverMode::kDense, SolverMode::kIncremental}) {
    for (const CoalesceMode coalesce :
         {CoalesceMode::kEager, CoalesceMode::kCoalesced}) {
      arms.push_back(std::make_unique<BridgeReplay>(solver, coalesce));
      labels.push_back(std::string(solver == SolverMode::kDense ? "dense"
                                                                : "incremental") +
                       (coalesce == CoalesceMode::kEager ? "/eager"
                                                         : "/coalesced"));
    }
  }
  for (auto& arm : arms) arm->run(GetParam());

  const BridgeReplay& ref = *arms.front();
  // The scenario is not vacuous: the groups were observed live while joined
  // only by stalled bridges, and the drain completed every flow.
  EXPECT_GT(ref.bridged_samples, 10);
  EXPECT_GT(ref.completions.size(), 50u);
  EXPECT_EQ(ref.net.active_flows(), 0u);
  for (std::size_t v = 1; v < arms.size(); ++v) {
    const BridgeReplay& arm = *arms[v];
    SCOPED_TRACE(labels[v] + " vs " + labels[0]);
    EXPECT_EQ(arm.bridged_samples, ref.bridged_samples);
    ASSERT_EQ(arm.completions.size(), ref.completions.size());
    for (std::size_t i = 0; i < ref.completions.size(); ++i) {
      EXPECT_EQ(arm.completions[i].first, ref.completions[i].first)
          << "completion order diverged at #" << i;
      EXPECT_EQ(arm.completions[i].second, ref.completions[i].second)
          << "completion time diverged at #" << i;
    }
    ASSERT_EQ(arm.samples.size(), ref.samples.size());
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
      EXPECT_EQ(arm.samples[i], ref.samples[i])  // exact, not NEAR
          << "rate/remaining sample diverged at #" << i;
    }
    for (std::size_t r = 0; r < ref.res.size(); ++r) {
      EXPECT_EQ(arm.net.transferred_through(arm.res[r]),
                ref.net.transferred_through(ref.res[r]))
          << "transferred bytes diverged on resource " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StalledPruningTest,
                         ::testing::Values(1u, 7u, 20100621u),
                         [](const auto& param_info) {
                           return "Seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace moon::sim
