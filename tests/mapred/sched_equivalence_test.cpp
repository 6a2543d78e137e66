// Scheduler goldens: every scheduling decision under seeded availability
// churn must reproduce, bit for bit, the values recorded when the indexed
// hot path still shipped next to the original full-scan scheduler (both
// produced exactly these values) — completion flag and time, the attempt
// counters, and an FNV-1a hash of every task's launch sequence (time, host
// node, speculative flag). Covered: all three speculators (Hadoop, LATE,
// MOON) plus the checkpoint-enabled MOON preset, three churn seeds each.
//
// The driver pre-generates one scripted churn sequence (pure data: node
// flips with down durations) and replays it against a harness with an
// invariant auditor attached. The auditor sweeps at every churn flip and at
// the end of the run — including the scheduler index-consistency check
// (mapred.sched-index) — and must report nothing. Any divergence in a
// scheduling decision cascades into a mismatched launch hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "audit/auditor.hpp"
#include "common/rng.hpp"
#include "experiment/scenario.hpp"
#include "mapred_fixture.hpp"

namespace moon::mapred {
namespace {

using testing::FixtureOptions;
using testing::MapRedHarness;

struct Flip {
  sim::Time at;
  std::size_t node_index;  // into volatile_ids
  sim::Duration down_for;
};

std::vector<Flip> make_churn_script(std::uint64_t seed, std::size_t nodes,
                                    sim::Duration horizon) {
  Rng rng{seed};
  std::vector<Flip> script;
  sim::Time t = 30 * sim::kSecond;
  while (t < horizon) {
    t += rng.uniform_int(10, 60) * sim::kSecond;
    const auto n =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    const auto down = rng.uniform_int(20, 150) * sim::kSecond;
    script.push_back(Flip{t, n, down});
  }
  return script;
}

/// Everything a scheduling decision can influence. Exact-match comparable.
struct Golden {
  bool completed = false;
  sim::Time finished_at = 0;
  int launches = 0;
  int speculative_attempts = 0;
  int killed_map_attempts = 0;
  int killed_reduce_attempts = 0;
  int failed_map_attempts = 0;
  int failed_reduce_attempts = 0;
  int map_reexecutions = 0;
  int checkpoint_resumes = 0;
  /// FNV-1a over each task's (launch count, then per launch: start time,
  /// host node, speculative flag), maps then reduces in schedule order.
  std::uint64_t launch_hash = 0;

  friend bool operator==(const Golden&, const Golden&) = default;
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << "{" << (g.completed ? "true" : "false") << ", " << g.finished_at
      << ", " << g.launches << ", " << g.speculative_attempts << ", "
      << g.killed_map_attempts << ", " << g.killed_reduce_attempts << ", "
      << g.failed_map_attempts << ", " << g.failed_reduce_attempts << ", "
      << g.map_reexecutions << ", " << g.checkpoint_resumes << ", "
      << g.launch_hash << "ULL}";
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fold(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
}

Golden run_one(SchedulerConfig sched, std::uint64_t churn_seed) {
  FixtureOptions opt;
  opt.sched = sched;
  opt.volatile_nodes = 6;
  opt.dedicated_nodes = 2;
  opt.num_maps = 12;
  opt.num_reduces = 4;
  opt.map_compute = 90 * sim::kSecond;
  opt.reduce_compute = 60 * sim::kSecond;
  MapRedHarness h(opt);
  h.submit();
  audit::Auditor auditor(&h.dfs(), &h.jobtracker());

  const sim::Duration horizon = 20 * sim::kMinute;
  const auto script =
      make_churn_script(churn_seed, h.volatile_ids.size(), horizon);
  // Apply the scripted churn: a flip only takes a node down if it is up
  // (recovery is scheduled relative to the flip, script-determined).
  for (const Flip& f : script) {
    if (h.job().finished()) break;
    if (h.sim().now() < f.at) h.advance(f.at - h.sim().now());
    EXPECT_TRUE(auditor.run().empty()) << "at t=" << h.sim().now();
    const NodeId victim = h.volatile_ids[f.node_index];
    if (!h.cluster().node(victim).available()) continue;
    h.set_node_available(victim, false);
    auto& cluster = h.cluster();
    h.sim().schedule_after(f.down_for, [&cluster, victim] {
      if (!cluster.node(victim).available()) {
        cluster.node(victim).set_available(true);
      }
    });
  }
  h.run_to_completion(sim::hours(4));
  EXPECT_TRUE(auditor.run().empty()) << "at end, t=" << h.sim().now();
  EXPECT_EQ(auditor.violations_total(), 0);
  EXPECT_GT(auditor.passes(), 1);

  Golden g;
  g.launch_hash = kFnvBasis;
  Job& job = h.job();
  for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
    for (TaskId id : job.tasks_of(type)) {
      const auto& attempts = job.task(id).attempts;
      fold(g.launch_hash, attempts.size());
      for (AttemptId a : attempts) {
        TaskAttempt* attempt = job.attempt(a);
        if (attempt == nullptr) {
          ADD_FAILURE() << "missing attempt record";
          continue;
        }
        ++g.launches;
        fold(g.launch_hash, static_cast<std::uint64_t>(attempt->started_at()));
        fold(g.launch_hash, attempt->tracker().node_id().value());
        fold(g.launch_hash, attempt->speculative() ? 1 : 0);
      }
    }
  }
  const auto& m = job.metrics();
  g.completed = m.completed;
  g.finished_at = m.finished_at;
  g.speculative_attempts = m.speculative_attempts;
  g.killed_map_attempts = m.killed_map_attempts;
  g.killed_reduce_attempts = m.killed_reduce_attempts;
  g.failed_map_attempts = m.failed_map_attempts;
  g.failed_reduce_attempts = m.failed_reduce_attempts;
  g.map_reexecutions = m.map_reexecutions;
  g.checkpoint_resumes = m.checkpoint_resumes;
  return g;
}

struct PolicyCase {
  std::string name;
  SchedulerConfig sched;
};

std::vector<PolicyCase> policies() {
  // Suspension-enabled MOON, expiry-driven Hadoop and LATE, plus the
  // checkpoint preset (exercises the speculation-shield index path).
  SchedulerConfig late = testing::hadoop_sched(2 * sim::kMinute);
  late.speculator = SchedulerConfig::Speculator::kLate;
  return {
      {"Hadoop", testing::hadoop_sched(2 * sim::kMinute)},
      {"Late", late},
      {"Moon", testing::moon_sched(/*hybrid=*/true)},
      {"MoonCkpt", experiment::moon_checkpoint_scheduler(false)},
  };
}

const std::uint64_t kSeeds[] = {1u, 42u, 20100621u};

// Recorded with both scheduler implementations (indexed buckets and the
// original full scan), which agreed on every field of every case.
// Field order: completed, finished_at, launches, speculative, killed map,
// killed reduce, failed map, failed reduce, map re-executions, checkpoint
// resumes, launch hash. Indexed [policy][seed] as policies() x kSeeds.
const Golden kGoldens[4][3] = {
    {  // Hadoop
        {true, 205000000, 19, 3, 2, 1, 0, 0, 0, 0, 11858738351419356509ULL},
        {true, 375000000, 20, 4, 3, 1, 0, 0, 0, 0, 8348515992949157847ULL},
        {true, 245000000, 18, 2, 1, 1, 0, 0, 0, 0, 6663902050615557183ULL},
    },
    {  // Late
        {true, 460000000, 25, 7, 5, 2, 0, 0, 2, 0, 14551830892843816184ULL},
        {true, 380000000, 23, 7, 5, 2, 0, 0, 0, 0, 9327471687577482154ULL},
        {true, 230000000, 22, 6, 4, 2, 0, 0, 0, 0, 3659326768966986123ULL},
    },
    {  // Moon
        {true, 215000000, 22, 6, 3, 3, 0, 0, 0, 0, 715813952256795839ULL},
        {true, 280000000, 23, 7, 4, 3, 0, 0, 0, 0, 12525154086037752758ULL},
        {true, 230000000, 23, 7, 4, 3, 0, 0, 0, 0, 701174228307149527ULL},
    },
    {  // MoonCkpt
        {true, 190000000, 22, 6, 2, 4, 0, 0, 0, 0, 16427188910985943183ULL},
        {true, 295000000, 23, 7, 2, 5, 0, 0, 0, 1, 3640104323032348220ULL},
        {true, 230000000, 24, 8, 3, 5, 0, 0, 0, 3, 2762226445140925299ULL},
    },
};

class SchedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SchedEquivalenceTest, MatchesRecordedGoldenBitForBit) {
  const auto [policy_index, seed_index] = GetParam();
  const PolicyCase policy = policies()[policy_index];
  const Golden got = run_one(policy.sched, kSeeds[seed_index]);
  EXPECT_EQ(got, kGoldens[policy_index][seed_index]);
  // The run exercised the scheduler: something launched.
  EXPECT_GT(got.launches, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, SchedEquivalenceTest,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{3}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2})),
    [](const auto& param_info) {
      return policies()[std::get<0>(param_info.param)].name + "Seed" +
             std::to_string(kSeeds[std::get<1>(param_info.param)]);
    });

}  // namespace
}  // namespace moon::mapred
