// Golden equivalence for the flow network under seeded random churn of
// flow starts, aborts, capacity changes and batched node-style availability
// flips, for both fairness models. The script includes zero-delta steps, so
// same-timestamp churn bursts (the case settle coalescing exists for) are
// exercised, as are reads interleaved into a burst.
//
// Each script is replayed on two arms: the production network, and the same
// network with a read after every churn call (`rate(FlowId::invalid())`
// forces the settle-on-read), which settles eagerly through the same code.
// Both arms must reproduce, bit for bit, the completion order and times, the
// rate/remaining samples and the per-resource transferred bytes recorded as
// goldens from the dense-solver, settle-per-churn-call configuration that
// preceded the single production path. Every sampled rate must also equal
// testing::reference_rates exactly.
//
// Abort/start targets are picked by indexing the replay's own live-flow
// list with the scripted draws, so a divergence cascades into mismatched
// fingerprints rather than hiding.
#include "simkit/flow_network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
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

/// How a replay settles: as production does, or after every churn call.
enum class Arm { kProduction, kReadAfterChurn };

const char* arm_name(Arm arm) {
  return arm == Arm::kProduction ? "production" : "read-after-churn";
}

/// 64-bit FNV-1a over little-endian 8-byte words.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

/// What a replay observed, hashed: the (flow id, time) completion stream,
/// the bit patterns of the rate/remaining samples, and the bit patterns of
/// every resource's transferred bytes.
struct Fingerprint {
  std::size_t completions = 0;
  std::uint64_t completion_hash = 0;
  std::size_t samples = 0;
  std::uint64_t sample_hash = 0;
  std::uint64_t bytes_hash = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{completions=" << f.completions << std::hex << " hash=0x"
            << f.completion_hash << std::dec << ", samples=" << f.samples
            << std::hex << " hash=0x" << f.sample_hash << ", bytes hash=0x"
            << f.bytes_hash << std::dec << "}";
}

Fingerprint fingerprint(const std::vector<std::pair<FlowId, Time>>& completions,
                        const std::vector<double>& samples,
                        const FlowNetwork& net,
                        const std::vector<FlowNetwork::ResourceId>& resources) {
  Fingerprint f;
  Fnv1a c, s, b;
  for (const auto& [id, at] : completions) {
    c.add(id.value());
    c.add(static_cast<std::uint64_t>(at));
  }
  for (const double d : samples) s.add(d);
  for (const auto r : resources) b.add(net.transferred_through(r));
  f.completions = completions.size();
  f.completion_hash = c.h;
  f.samples = samples.size();
  f.sample_hash = s.h;
  f.bytes_hash = b.h;
  return f;
}

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
  FairnessModel model;
  Arm arm;
  FlowNetwork net;
  std::vector<FlowNetwork::ResourceId> resources;  // 3 per node
  std::vector<bool> node_up;
  std::vector<FlowId> live;  // active flows, as the replay sees them
  std::map<FlowId, Path> paths;                 // every active flow's path
  std::vector<std::pair<FlowId, Time>> completions;
  std::vector<double> samples;                  // rates + remaining at kSample
  RateAudit audit;
  int chained = 0;

  Replay(FairnessModel fairness, Arm settle_arm)
      : model(fairness), arm(settle_arm), net(sim, fairness) {
    for (int n = 0; n < kNodes; ++n) {
      resources.push_back(net.add_resource(mibps(80.0)));  // nic_in
      resources.push_back(net.add_resource(mibps(80.0)));  // nic_out
      resources.push_back(net.add_resource(mibps(30.0)));  // disk
      node_up.push_back(true);
    }
  }

  /// Called after every churn call; the read settles the read-after-churn
  /// arm (a no-op mid-settle and inside a batch).
  void churned() {
    if (arm == Arm::kReadAfterChurn) (void)net.rate(FlowId::invalid());
  }

  void start(std::uint64_t a, std::uint64_t b, std::uint64_t c, bool chain) {
    const auto src = a % kNodes;
    const auto dst = b % kNodes;
    Path path{resources[src * 3 + 1], resources[dst * 3 + 0]};
    if (c % 2 == 0) path.push_back(resources[dst * 3 + 2]);  // + target disk
    const Bytes size =
        static_cast<Bytes>(1 + c % static_cast<std::uint64_t>(mib(4.0)));
    const FlowId id = net.start_flow(path, size, [this, chain](FlowId f) {
      completions.emplace_back(f, sim.now());
      std::erase(live, f);
      paths.erase(f);
      // Exercise completion-driven churn: some completions immediately start
      // a successor, from inside the settle's retire cascade.
      if (chain && ++chained % 3 == 0) {
        start(static_cast<std::uint64_t>(chained) * 2654435761u,
              static_cast<std::uint64_t>(chained) * 40503u + 7, 1 + chained % 9,
              false);
      }
    });
    live.push_back(id);
    paths.emplace(id, std::move(path));
    churned();
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
        paths.erase(victim);
        churned();
        break;
      }
      case Kind::kSetCapacity: {
        const auto r = resources[act.a % resources.size()];
        const double caps[] = {0.0, mibps(20.0), mibps(55.0), mibps(80.0)};
        net.set_capacity(r, caps[act.b % 4]);
        churned();
        break;
      }
      case Kind::kNodeFlip: {
        // Node-style availability transition: all three resources in one
        // batched settle, like Node::set_available.
        const auto n = act.a % kNodes;
        const bool up = !node_up[n];
        node_up[n] = up;
        {
          FlowNetwork::CapacityBatch batch(net);
          net.set_capacity(resources[n * 3 + 0], up ? mibps(80.0) : 0.0);
          net.set_capacity(resources[n * 3 + 1], up ? mibps(80.0) : 0.0);
          net.set_capacity(resources[n * 3 + 2], up ? mibps(30.0) : 0.0);
        }
        churned();
        break;
      }
      case Kind::kSample:
        for (const FlowId f : live) {
          samples.push_back(net.rate(f));
          samples.push_back(static_cast<double>(net.remaining(f)));
        }
        audit.check(net, model, resources.size(), paths);
        break;
    }
  }
};

struct ChurnGolden {
  FairnessModel model;
  std::uint64_t seed;
  Fingerprint want;
};

// Recorded from the dense solver with a settle after every churn call, the
// configuration the incremental solver and coalesced settles were built to
// reproduce. Seeds 28, 59, 76 and 86 are ones on which Simulation::run_until
// used to run a re-armed completion past its horizon, so coalesced settles
// diverged from eager ones.
constexpr ChurnGolden kChurnGoldens[] = {
    {FairnessModel::kMaxMin, 1,
     {197, 0xff231aafe9eb65b4ull, 3762, 0xf16f29f3c74564f5ull, 0xcae8eb4bb45ce998ull}},
    {FairnessModel::kMaxMin, 20100621,
     {165, 0xb8435cd32c3910feull, 6392, 0xbdd392669de6ba1aull, 0xa4925d2381c88c56ull}},
    {FairnessModel::kMaxMin, 987654321,
     {170, 0xfbb196d081406a78ull, 3534, 0xc10260e0178f8f7dull, 0x98ff7dbd7a1591daull}},
    {FairnessModel::kMaxMin, 28,
     {166, 0x3a775c940468dd62ull, 4702, 0x1182045ec968bc74ull, 0x1f680f04ed4f87aeull}},
    {FairnessModel::kMaxMin, 59,
     {139, 0x5cfd9bbf0e437dfaull, 5542, 0x77b73c1f1e62e0f3ull, 0x346bc59f15be684cull}},
    {FairnessModel::kMaxMin, 76,
     {168, 0xcd942576ebb9631dull, 3602, 0xfd900a62f850e251ull, 0x4efb9acc946a1b9bull}},
    {FairnessModel::kMaxMin, 86,
     {142, 0x7b46ce48abd63076ull, 6172, 0x2664ef5d81456a2full, 0x8e09bfd4d140ddd2ull}},
    {FairnessModel::kBottleneckShare, 1,
     {197, 0x4ada36eb9d3a1984ull, 3762, 0xf16f29f3c74564f5ull, 0x7432f4490763157cull}},
    {FairnessModel::kBottleneckShare, 20100621,
     {165, 0xe94e76707e7a4949ull, 6392, 0xaa30ceabaed07359ull, 0x4d00a6fc54cec27bull}},
    {FairnessModel::kBottleneckShare, 987654321,
     {170, 0x10a5fdabcc2a01f5ull, 3534, 0xc10260e0178f8f7dull, 0x7a9addf1425363c2ull}},
    {FairnessModel::kBottleneckShare, 28,
     {166, 0x55429285f015dc40ull, 4704, 0x8617333030345453ull, 0xfd6044cf0c0cbb27ull}},
    {FairnessModel::kBottleneckShare, 59,
     {139, 0x68abf0a0485697c7ull, 5542, 0x991e517963d184a2ull, 0x14f12f1ff9b45e61ull}},
    {FairnessModel::kBottleneckShare, 76,
     {168, 0xd966544cbb77592aull, 3602, 0x7057112a392e4eefull, 0xba23731b990b3f05ull}},
    {FairnessModel::kBottleneckShare, 86,
     {142, 0x09716d03151980beull, 6172, 0x2664ef5d81456a2full, 0x49e50017a3729456ull}},
};

class FlowEquivalenceTest : public ::testing::TestWithParam<ChurnGolden> {};

TEST_P(FlowEquivalenceTest, BothArmsMatchDenseEagerGolden) {
  const ChurnGolden& golden = GetParam();
  const std::vector<Action> script = make_script(golden.seed);
  for (const Arm arm : {Arm::kProduction, Arm::kReadAfterChurn}) {
    SCOPED_TRACE(arm_name(arm));
    Replay replay(golden.model, arm);
    for (const Action& act : script) replay.apply(act);
    // Drain: let every still-live unstalled flow finish.
    replay.sim.run();

    EXPECT_GT(replay.completions.size(), 50u);  // meaningful churn ran
    EXPECT_EQ(fingerprint(replay.completions, replay.samples, replay.net,
                          replay.resources),
              golden.want);
    EXPECT_GT(replay.audit.checked, 500u);
    EXPECT_EQ(replay.audit.mismatches, 0u) << "rates differ from the reference";
  }
}

INSTANTIATE_TEST_SUITE_P(ModelsAndSeeds, FlowEquivalenceTest,
                         ::testing::ValuesIn(kChurnGoldens),
                         [](const auto& param_info) {
                           const ChurnGolden& g = param_info.param;
                           return std::string(g.model == FairnessModel::kMaxMin
                                                  ? "MaxMin"
                                                  : "BottleneckShare") +
                                  "Seed" + std::to_string(g.seed);
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
  Arm arm;
  FlowNetwork net;
  std::vector<FlowNetwork::ResourceId> res;  // 3 per node: nic_in, nic_out, disk
  std::vector<FlowId> group[2];
  std::vector<FlowId> bridges;
  std::map<FlowId, Path> paths;  // every active flow's path
  bool relay_up = true;
  std::vector<std::pair<FlowId, Time>> completions;
  std::vector<double> samples;  // rate, remaining of every live flow
  int bridged_samples = 0;      // groups live, joined only by stalled bridges
  RateAudit audit;

  explicit BridgeReplay(Arm settle_arm)
      : arm(settle_arm), net(sim, FairnessModel::kMaxMin) {
    for (int n = 0; n <= kRelay; ++n) {
      res.push_back(net.add_resource(mibps(80.0)));
      res.push_back(net.add_resource(mibps(80.0)));
      res.push_back(net.add_resource(mibps(30.0)));
    }
  }

  FlowNetwork::ResourceId nic_in(int n) const { return res[n * 3 + 0]; }
  FlowNetwork::ResourceId nic_out(int n) const { return res[n * 3 + 1]; }
  FlowNetwork::ResourceId disk(int n) const { return res[n * 3 + 2]; }

  void churned() {
    if (arm == Arm::kReadAfterChurn) (void)net.rate(FlowId::invalid());
  }

  void set_node(int n, bool up) {
    {
      FlowNetwork::CapacityBatch batch(net);
      net.set_capacity(nic_in(n), up ? mibps(80.0) : 0.0);
      net.set_capacity(nic_out(n), up ? mibps(80.0) : 0.0);
      net.set_capacity(disk(n), up ? mibps(30.0) : 0.0);
    }
    churned();
    if (n == kRelay) relay_up = up;
  }

  void start(std::vector<FlowId>& into, Path path, Bytes size) {
    std::vector<FlowId>* list = &into;
    const FlowId id = net.start_flow(path, size, [this, list](FlowId f) {
      completions.emplace_back(f, sim.now());
      std::erase(*list, f);
      paths.erase(f);
    });
    into.push_back(id);
    paths.emplace(id, std::move(path));
    churned();
  }

  void abort(std::vector<FlowId>& from, std::size_t i) {
    const FlowId id = from[i];
    net.abort_flow(id);
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(i));
    paths.erase(id);
    churned();
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
    audit.check(net, FairnessModel::kMaxMin, res.size(), paths);
  }

  /// Seeded bursts of same-timestamp churn. The draws depend on the arm's
  /// own state (live-list sizes), so a divergence cascades into the
  /// fingerprint.
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
              abort(group[g], static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(group[g].size()) - 1)));
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

struct BridgeGolden {
  std::uint64_t seed;
  Fingerprint want;
  int bridged_samples;
};

// Recorded from the dense solver with a settle after every churn call.
constexpr BridgeGolden kBridgeGoldens[] = {
    {1,
     {117, 0x257ce18697144ff2ull, 1144, 0x239cf1bdbc62d66cull, 0x39c731036214c747ull},
     37},
    {7,
     {102, 0xd5efe66f705a6108ull, 1168, 0x238fb4f11e10a181ull, 0x1e3cfcb94f670126ull},
     29},
    {20100621,
     {112, 0x1166cdd06a5323eaull, 1228, 0xb2470b41e71ea5a1ull, 0x1c1c3c0cd3289b59ull},
     26},
};

class StalledPruningTest : public ::testing::TestWithParam<BridgeGolden> {};

TEST_P(StalledPruningTest, StalledBridgesAndDuplicatePathsMatchDenseGolden) {
  const BridgeGolden& golden = GetParam();
  for (const Arm arm : {Arm::kProduction, Arm::kReadAfterChurn}) {
    SCOPED_TRACE(arm_name(arm));
    BridgeReplay replay(arm);
    replay.run(golden.seed);
    // The scenario is not vacuous: the groups were observed live while
    // joined only by stalled bridges, and the drain completed every flow.
    EXPECT_GT(replay.bridged_samples, 10);
    EXPECT_GT(replay.completions.size(), 50u);
    EXPECT_EQ(replay.net.active_flows(), 0u);
    EXPECT_EQ(replay.bridged_samples, golden.bridged_samples);
    EXPECT_EQ(
        fingerprint(replay.completions, replay.samples, replay.net, replay.res),
        golden.want);
    EXPECT_GT(replay.audit.stalled, 0u);
    EXPECT_EQ(replay.audit.mismatches, 0u) << "rates differ from the reference";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StalledPruningTest,
                         ::testing::ValuesIn(kBridgeGoldens),
                         [](const auto& param_info) {
                           return "Seed" + std::to_string(param_info.param.seed);
                         });

}  // namespace
}  // namespace moon::sim
