// Master failover end-to-end: crash the NameNode and JobTracker mid-job and
// require that the job still completes, the post-recovery auditor stays
// clean, journal replay matches the live state it is diffed against, and the
// whole chaos schedule replays bit-identically under the same seed.
#include <gtest/gtest.h>

#include <string>

#include "experiment/scenario.hpp"
#include "workload/workload.hpp"

namespace moon::experiment {
namespace {

ScenarioConfig failover_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.volatile_nodes = 12;
  cfg.dedicated_nodes = 2;
  cfg.unavailability_rate = 0.3;
  cfg.sched = moon_scheduler(true);
  cfg.dfs = moon_dfs_config();
  cfg.app = workload::sleep_of(workload::sort_workload());
  cfg.app.num_maps = 20;
  cfg.app.input_size = 20 * kKiB;
  cfg.app.input_block_bytes = kKiB;
  cfg.app.map_compute = 20 * sim::kSecond;
  cfg.app.reduce_compute = 30 * sim::kSecond;
  cfg.seed = seed;
  cfg.max_sim_time = 6 * sim::kHour;

  cfg.faults.enabled = true;
  cfg.faults.master_crash.enabled = true;
  // Crash early and often enough to land inside the job window.
  cfg.faults.master_crash.mean_interval = 4 * sim::kMinute;
  cfg.faults.master_crash.min_interval = 90 * sim::kSecond;
  cfg.faults.master_crash.mean_downtime = 90 * sim::kSecond;
  cfg.faults.master_crash.min_downtime = 30 * sim::kSecond;
  cfg.faults.master_crash.max_crashes = 2;
  return cfg;
}

TEST(MasterFailover, JobSurvivesMasterCrashes) {
  const RunResult result = run_scenario(failover_config(20100621u));
  // Non-vacuous: both masters actually went down at least once.
  EXPECT_GT(result.fault_stats.namenode_crashes, 0);
  EXPECT_GT(result.fault_stats.jobtracker_crashes, 0);
  EXPECT_EQ(result.fault_stats.master_recoveries,
            result.fault_stats.namenode_crashes +
                result.fault_stats.jobtracker_crashes);
  // The job rides out every outage.
  EXPECT_TRUE(result.finished);
  // Recovery rebuilt exactly the durable state the journal describes, and
  // the mandatory post-recovery sweeps found nothing.
  EXPECT_GT(result.journal.records_appended, 0);
  EXPECT_EQ(result.journal.divergences, 0);
  EXPECT_GT(result.audit_passes, 0);
  EXPECT_EQ(result.audit_violations, 0);
  // Re-registration happened (trackers came back under the new epoch).
  EXPECT_GT(result.recovery.reregistrations, 0);
}

TEST(MasterFailover, SameSeedReplaysBitIdentically) {
  for (std::uint64_t seed : {20100621u, 7u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunResult a = run_scenario(failover_config(seed));
    const RunResult b = run_scenario(failover_config(seed));
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.execution_time_s, b.execution_time_s);
    EXPECT_EQ(a.metrics.launched_map_attempts, b.metrics.launched_map_attempts);
    EXPECT_EQ(a.metrics.launched_reduce_attempts,
              b.metrics.launched_reduce_attempts);
    EXPECT_EQ(a.metrics.killed_map_attempts, b.metrics.killed_map_attempts);
    EXPECT_EQ(a.dfs_stats.bytes_read, b.dfs_stats.bytes_read);
    EXPECT_EQ(a.dfs_stats.bytes_written, b.dfs_stats.bytes_written);
    EXPECT_EQ(a.dfs_stats.ops_parked, b.dfs_stats.ops_parked);
    EXPECT_EQ(a.dfs_stats.master_retries, b.dfs_stats.master_retries);
    EXPECT_EQ(a.dfs_stats.block_reports, b.dfs_stats.block_reports);
    EXPECT_EQ(a.fault_stats.namenode_crashes, b.fault_stats.namenode_crashes);
    EXPECT_EQ(a.fault_stats.jobtracker_crashes,
              b.fault_stats.jobtracker_crashes);
    EXPECT_EQ(a.journal.records_appended, b.journal.records_appended);
    EXPECT_EQ(a.journal.snapshots_taken, b.journal.snapshots_taken);
    EXPECT_EQ(a.recovery.heartbeats_missed, b.recovery.heartbeats_missed);
    EXPECT_EQ(a.recovery.reports_parked, b.recovery.reports_parked);
    EXPECT_EQ(a.recovery.reports_replayed, b.recovery.reports_replayed);
    EXPECT_EQ(a.recovery.reregistrations, b.recovery.reregistrations);
    EXPECT_EQ(a.recovery.orphans_killed, b.recovery.orphans_killed);
    EXPECT_EQ(a.audit_violations, 0);
    EXPECT_EQ(b.audit_violations, 0);
  }
}

// Disabling the JobTracker class must not move a single NameNode draw: the
// NameNode's cycles come first out of the shared master stream. Crash counts
// only compare when every scheduled cycle fires before the job ends, so the
// test pins one early cycle per master. (Run *lengths* still differ — a JT
// outage delays the job — which is why the full-schedule configs can't be
// compared by count.)
TEST(MasterFailover, NameNodeScheduleIndependentOfJobTrackerFlag) {
  ScenarioConfig both = failover_config(20100621u);
  both.faults.master_crash.max_crashes = 1;
  ScenarioConfig nn_only = both;
  nn_only.faults.master_crash.jobtracker = false;
  const RunResult a = run_scenario(both);
  const RunResult b = run_scenario(nn_only);
  EXPECT_EQ(b.fault_stats.jobtracker_crashes, 0);
  EXPECT_GT(b.fault_stats.namenode_crashes, 0);
  EXPECT_EQ(a.fault_stats.namenode_crashes, b.fault_stats.namenode_crashes);
}

// Off-switch: a run with master_crash disabled keeps every recovery counter
// at zero (the golden tests pin the full bit-identity; this pins the gauges).
TEST(MasterFailover, DisabledClassLeavesCountersAtZero) {
  ScenarioConfig cfg = failover_config(20100621u);
  cfg.faults.master_crash.enabled = false;
  const RunResult result = run_scenario(cfg);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.fault_stats.namenode_crashes, 0);
  EXPECT_EQ(result.fault_stats.jobtracker_crashes, 0);
  EXPECT_EQ(result.journal.records_appended, 0);
  EXPECT_EQ(result.dfs_stats.ops_parked, 0);
  EXPECT_EQ(result.dfs_stats.master_retries, 0);
  EXPECT_EQ(result.dfs_stats.heartbeats_skipped, 0);
  EXPECT_EQ(result.recovery.heartbeats_missed, 0);
  EXPECT_EQ(result.recovery.reports_parked, 0);
  EXPECT_EQ(result.recovery.reregistrations, 0);
  EXPECT_EQ(result.recovery.orphans_killed, 0);
}

}  // namespace
}  // namespace moon::experiment
