// Deterministic work-counter golden: one small fixed-seed MOON-Hybrid sort,
// under each fairness model, must perform exactly the recorded number of
// event dispatches, flow-network settles and rate recomputes. Host wall time
// is noisy; these call counts are exact per seed, so a change that only
// makes the kernels cheaper leaves them untouched, while one that changes how
// much work the simulator does (or what it simulates) moves them. A change
// that moves them on purpose re-records the numbers below and says why.
// The max-min numbers were recorded before the max-min solve learned to
// freeze stalled flows up front (DESIGN.md §8), which left them unchanged;
// the bottleneck-share numbers before the dense solver and the settle-per-
// churn-call mode left the library, which left both unchanged.
#include <gtest/gtest.h>

#include <cstdint>

#include "experiment/scenario.hpp"

namespace moon::experiment {
namespace {

ScenarioConfig golden_config(sim::FairnessModel fairness) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 16;
  cfg.dedicated_nodes = 2;
  cfg.unavailability_rate = 0.3;
  cfg.fairness = fairness;
  cfg.sched = moon_scheduler(/*hybrid=*/true);
  cfg.dfs = moon_dfs_config();
  cfg.app = workload::sort_workload();
  // 64 maps of 64 MiB each, same per-map shape as the full sort.
  const Bytes per_map = cfg.app.input_size / cfg.app.num_maps;
  cfg.app.num_maps = 64;
  cfg.app.input_size = per_map * 64;
  cfg.app.total_output = per_map * 64;
  cfg.seed = 20100621;
  return cfg;
}

std::uint64_t calls(const RunResult& r, sim::Profiler::Key key) {
  return r.profile[static_cast<std::size_t>(key)].calls;
}

TEST(WorkCounterGolden, MaxMinHybridSortCallCounts) {
  const RunResult r = run_scenario(golden_config(sim::FairnessModel::kMaxMin));
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.execution_time_s, 355.0);  // the outcome the counts belong to
  EXPECT_EQ(calls(r, sim::Profiler::Key::kEventDispatch), 8441u);
  EXPECT_EQ(calls(r, sim::Profiler::Key::kSettle), 935u);
  EXPECT_EQ(calls(r, sim::Profiler::Key::kRecompute), 935u);
}

TEST(WorkCounterGolden, BottleneckShareHybridSortCallCounts) {
  const RunResult r =
      run_scenario(golden_config(sim::FairnessModel::kBottleneckShare));
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.execution_time_s, 315.0);
  EXPECT_EQ(calls(r, sim::Profiler::Key::kEventDispatch), 7705u);
  EXPECT_EQ(calls(r, sim::Profiler::Key::kSettle), 897u);
  EXPECT_EQ(calls(r, sim::Profiler::Key::kRecompute), 897u);
}

}  // namespace
}  // namespace moon::experiment
