// End-to-end golden for the flow network's single production path: a full
// MOON scenario (trackers, DFS, churn, speculation) under each fairness
// model must reproduce the outcome — task launches, completion time, byte
// counters — recorded from the dense solver with a settle after every churn
// call, the configuration the incremental solver and coalesced settles were
// built to reproduce. This is the scenario-level complement of
// tests/simkit/flow_network_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>

#include "experiment/scenario.hpp"

namespace moon::experiment {
namespace {

struct Outcome {
  bool finished = false;
  double execution_time_s = 0.0;
  int launched_maps = 0;
  int launched_reduces = 0;
  int speculative = 0;
  int killed_maps = 0;
  int killed_reduces = 0;
  int map_reexecutions = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t replication_bytes = 0;

  bool operator==(const Outcome&) const = default;
};

ScenarioConfig small_config(sim::FairnessModel fairness) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 10;
  cfg.dedicated_nodes = 2;
  cfg.unavailability_rate = 0.3;
  cfg.sched = moon_scheduler(true);
  cfg.dfs = moon_dfs_config();
  cfg.fairness = fairness;
  cfg.app = workload::sleep_of(workload::sort_workload());
  cfg.app.num_maps = 20;
  cfg.app.input_size = 20 * kKiB;
  cfg.app.input_block_bytes = kKiB;
  cfg.app.map_compute = 20 * sim::kSecond;
  cfg.app.reduce_compute = 20 * sim::kSecond;
  cfg.seed = 20100621;
  cfg.max_sim_time = 4 * sim::kHour;
  return cfg;
}

Outcome run(sim::FairnessModel fairness) {
  const RunResult r = run_scenario(small_config(fairness));
  Outcome o;
  o.finished = r.finished;
  o.execution_time_s = r.execution_time_s;
  o.launched_maps = r.metrics.launched_map_attempts;
  o.launched_reduces = r.metrics.launched_reduce_attempts;
  o.speculative = r.metrics.speculative_attempts;
  o.killed_maps = r.metrics.killed_map_attempts;
  o.killed_reduces = r.metrics.killed_reduce_attempts;
  o.map_reexecutions = r.metrics.map_reexecutions;
  o.bytes_read = r.dfs_stats.bytes_read;
  o.bytes_written = r.dfs_stats.bytes_written;
  o.replication_bytes = r.dfs_stats.replication_bytes;
  return o;
}

// Both fairness models recorded this same outcome on the small sleep job.
constexpr Outcome kDenseEagerOutcome{
    .finished = true,
    .execution_time_s = 65.0,
    .launched_maps = 20,
    .launched_reduces = 26,
    .speculative = 5,
    .killed_maps = 0,
    .killed_reduces = 5,
    .map_reexecutions = 0,
    .bytes_read = 70920,
    .bytes_written = 81998,
    .replication_bytes = 11,
};

class CoalesceEquivalenceTest
    : public ::testing::TestWithParam<sim::FairnessModel> {};

TEST_P(CoalesceEquivalenceTest, MatchesDenseEagerGolden) {
  EXPECT_EQ(run(GetParam()), kDenseEagerOutcome);
}

INSTANTIATE_TEST_SUITE_P(Fairness, CoalesceEquivalenceTest,
                         ::testing::Values(sim::FairnessModel::kMaxMin,
                                           sim::FairnessModel::kBottleneckShare),
                         [](const auto& suite_info) {
                           return suite_info.param == sim::FairnessModel::kMaxMin
                                      ? "MaxMin"
                                      : "BottleneckShare";
                         });

}  // namespace
}  // namespace moon::experiment
