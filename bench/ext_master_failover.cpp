// Extension: master failover sweep (DESIGN.md §14; not in the paper — MOON
// assumes its masters on dedicated nodes never fail).
//
// Crashes the NameNode and JobTracker mid-job across a grid of master
// downtime × worker unavailability and measures what failover costs: job
// slowdown against a crash-free baseline, measured master downtime, parked
// DFS ops, retry traffic, re-registration and parked-report replay volume.
// Every recovery replays the journal and diffs it against live state — a
// divergence means recovery lost (or invented) a completed task, and any
// divergence or non-completing job fails the bench.
//
//   ./bench_ext_master_failover
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace moon;

namespace {

/// Sort with long-enough reduces that master outages land mid-pipeline, on
/// both the map/shuffle and the output-commit paths.
workload::WorkloadModel failover_workload() {
  workload::WorkloadModel m;
  m.name = "failover";
  m.kind = workload::AppKind::kSort;
  m.num_maps = 32;
  m.fixed_reduces = 8;
  m.map_compute = sim::seconds(10);
  m.reduce_compute = sim::seconds(180);
  m.intermediate_per_map = mib(8.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(8.0);
  m.total_output = mib(256.0);
  m.input_block_bytes = mib(8.0);
  return m;
}

/// downtime_s == 0 means master_crash off (the baseline cell).
experiment::ScenarioConfig cell(double unavailability, int downtime_s) {
  auto cfg = bench::paper_testbed();
  cfg.volatile_nodes = 24;
  cfg.dedicated_nodes = 4;
  cfg.app = failover_workload();
  cfg.sched = experiment::moon_scheduler(true);
  cfg.unavailability_rate = unavailability;
  cfg.max_sim_time = 4 * sim::kHour;
  if (downtime_s > 0) {
    cfg.faults.enabled = true;
    cfg.faults.master_crash.enabled = true;
    // Cadence scaled to the ~6-minute job so both masters crash inside it.
    cfg.faults.master_crash.mean_interval = 3 * sim::kMinute;
    cfg.faults.master_crash.min_interval = 60 * sim::kSecond;
    cfg.faults.master_crash.mean_downtime = sim::seconds(downtime_s);
    cfg.faults.master_crash.min_downtime =
        std::max<sim::Duration>(sim::seconds(downtime_s) / 2, 5 * sim::kSecond);
    cfg.faults.master_crash.max_crashes = 2;
  }
  return cfg;
}

}  // namespace

int main() {
  const int reps = bench::repetitions();
  std::cout << "=== Extension: master failover — downtime x unavailability ===\n"
            << "(24 volatile + 4 dedicated, MOON hybrid, both masters crash "
               "up to 2x each, "
            << reps << " repetitions)\n\n";

  Table table("Master downtime vs job slowdown / recovery work");
  table.columns({"unavail", "downtime (s)", "time (s)", "slowdown",
                 "crashes", "down (s)", "parked", "retries", "replayed",
                 "rereg", "orphans", "diverg"});
  bench::JsonEmitter json("failover");
  std::int64_t divergences_total = 0;
  std::int64_t violations_total = 0;
  int incomplete = 0;
  for (const double unavail : {0.3, 0.5}) {
    double baseline_s = 0.0;
    for (const int downtime_s : {0, 30, 120, 300}) {
      auto cfg = cell(unavail, downtime_s);
      std::int64_t crashes = 0;
      std::int64_t recoveries = 0;
      double down_s = 0.0;
      std::int64_t parked = 0;
      std::int64_t retries = 0;
      std::int64_t replayed = 0;
      std::int64_t reregs = 0;
      std::int64_t orphans = 0;
      std::int64_t divergences = 0;
      const auto summary = experiment::run_repetitions(
          cfg, reps, [&](const experiment::RunResult& run) {
            crashes += run.fault_stats.namenode_crashes +
                       run.fault_stats.jobtracker_crashes;
            recoveries += run.fault_stats.master_recoveries;
            down_s += sim::to_seconds(run.fault_stats.master_downtime);
            parked += run.dfs_stats.ops_parked + run.recovery.reports_parked;
            retries += run.dfs_stats.master_retries;
            replayed += run.recovery.reports_replayed;
            reregs += run.recovery.reregistrations;
            orphans += run.recovery.orphans_killed;
            divergences += run.journal.divergences;
            violations_total += run.audit_violations;
            if (!run.finished) ++incomplete;
            // Every crash that fired inside the run recovered inside it too
            // (the run only ends once the job completes or the horizon hits).
            if (run.finished && run.fault_stats.master_recoveries !=
                                    run.fault_stats.namenode_crashes +
                                        run.fault_stats.jobtracker_crashes) {
              std::cerr << "FAIL: unmatched crash/recovery pair\n";
              ++incomplete;
            }
          });
      divergences_total += divergences;

      const double mean_s = summary.execution_time_s.mean();
      if (downtime_s == 0) baseline_s = mean_s;
      const double slowdown = baseline_s > 0.0 ? mean_s / baseline_s : 0.0;
      table.add_row({Table::num(unavail, 1), Table::num(std::int64_t{downtime_s}),
                     bench::time_cell(summary), Table::num(slowdown, 2),
                     Table::num(crashes / std::int64_t{reps}),
                     Table::num(down_s / reps, 1),
                     Table::num(parked / std::int64_t{reps}),
                     Table::num(retries / std::int64_t{reps}),
                     Table::num(replayed / std::int64_t{reps}),
                     Table::num(reregs / std::int64_t{reps}),
                     Table::num(orphans / std::int64_t{reps}),
                     Table::num(divergences)});
      json.begin_row()
          .field("bench", std::string("ext_master_failover"))
          .field("unavailability", unavail)
          .field("downtime_s", std::int64_t{downtime_s})
          .field("time_s", mean_s)
          .field("slowdown", slowdown)
          .field("completed_runs", std::int64_t{summary.completed_runs})
          .field("total_runs", std::int64_t{summary.total_runs})
          .field("master_crashes", crashes)
          .field("master_recoveries", recoveries)
          .field("master_downtime_s", down_s)
          .field("ops_parked", parked)
          .field("master_retries", retries)
          .field("reports_replayed", replayed)
          .field("reregistrations", reregs)
          .field("orphans_killed", orphans)
          .field("journal_divergences", divergences);
    }
  }
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\n(json: " << path << ")\n";
  if (divergences_total != 0) {
    std::cerr << "\nFAIL: " << divergences_total
              << " journal divergences — recovery lost or invented state\n";
    return 1;
  }
  if (violations_total != 0) {
    std::cerr << "\nFAIL: " << violations_total << " audit violations\n";
    return 1;
  }
  if (incomplete != 0) {
    std::cerr << "\nFAIL: " << incomplete << " runs did not complete\n";
    return 1;
  }
  std::cout << "\n(failover: 0 divergences, 0 violations, every run "
               "completed)\n";
  return 0;
}
