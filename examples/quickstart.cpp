// Quickstart: run one MapReduce job on a small opportunistic cluster, once
// under Hadoop's policies and once under MOON's, and compare.
//
//   ./quickstart [unavailability-rate] [--trace=FILE] [--metrics=FILE]
//                [--events=FILE] [--faults=SPEC]      (default rate 0.4)
//
// Demonstrates the core public API: build a ScenarioConfig, pick a policy
// preset, call run_scenario, read the metrics. The observability flags
// export the MOON run's trace/metrics/event log; `--faults=` layers seeded
// chaos (lab outages, heartbeat loss, replica corruption, stragglers) on
// both runs — e.g. `--faults=all,audit:60` (see README).
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "experiment/cli.hpp"
#include "experiment/scenario.hpp"

using namespace moon;

namespace {

experiment::ScenarioConfig base_config(double rate) {
  experiment::ScenarioConfig cfg;
  cfg.volatile_nodes = 20;
  cfg.dedicated_nodes = 2;
  cfg.unavailability_rate = rate;
  // A scaled-down sort: 60 maps over ~3.8 GB, shuffle-heavy.
  cfg.app = workload::sort_workload();
  cfg.app.num_maps = 60;
  cfg.app.input_size = static_cast<Bytes>(60) * mib(64.0);
  cfg.app.total_output = cfg.app.input_size;
  cfg.seed = 42;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const experiment::Cli cli = experiment::parse_cli(argc, argv);
  const experiment::ObsCli& obs_cli = cli.obs;
  const experiment::FaultCli& fault_cli = cli.faults;
  const double rate = argc > 1 ? std::atof(argv[1]) : 0.4;

  std::cout << "MOON quickstart: sort-like job, 20 volatile + 2 dedicated "
               "nodes, unavailability "
            << rate << "\n\n";

  // --- Hadoop baseline: 10-minute tracker expiry, no hybrid awareness ---
  auto hadoop = base_config(rate);
  hadoop.dedicated_known = false;  // Hadoop can't tell the node types apart
  hadoop.sched = experiment::hadoop_scheduler(10 * sim::kMinute);
  hadoop.dfs = experiment::hadoop_dfs_config();
  hadoop.input_factor = {0, 3};
  hadoop.intermediate_factor = {0, 1};  // map-local only, like stock Hadoop
  hadoop.output_factor = {0, 3};
  if (!fault_cli.apply(hadoop.faults)) return 2;
  const auto hadoop_run = experiment::run_scenario(hadoop);

  // --- MOON: hybrid replication + two-phase scheduling ---
  auto moon = base_config(rate);
  moon.sched = experiment::moon_scheduler(/*hybrid=*/true);
  moon.dfs = experiment::moon_dfs_config();
  moon.input_factor = {1, 3};
  moon.intermediate_factor = {1, 1};
  moon.output_factor = {1, 3};
  obs_cli.apply(moon.obs);
  if (!fault_cli.apply(moon.faults)) return 2;
  const auto moon_run = experiment::run_scenario(moon);
  obs_cli.export_run(moon_run.obs.get());

  Table table("Hadoop vs MOON on an opportunistic cluster");
  table.columns({"policy", "finished", "time (s)", "duplicated tasks",
                 "fetch failures", "map re-runs"});
  auto row = [&](const char* name, const experiment::RunResult& r) {
    table.add_row({name, r.finished ? "yes" : "NO (gave up)",
                   Table::num(r.execution_time_s, 0),
                   Table::num(static_cast<std::int64_t>(r.duplicated_tasks())),
                   Table::num(static_cast<std::int64_t>(r.metrics.fetch_failures)),
                   Table::num(static_cast<std::int64_t>(r.metrics.map_reexecutions))});
  };
  row("Hadoop (10 min expiry)", hadoop_run);
  row("MOON (hybrid)", moon_run);
  table.print(std::cout);

  if (fault_cli.any()) {
    const auto& fs = moon_run.fault_stats;
    std::cout << "\nchaos (MOON run): " << fs.outages_injected
              << " lab outages, " << fs.heartbeats_dropped << "+"
              << fs.heartbeats_delayed << " heartbeats dropped/delayed, "
              << fs.replicas_corrupted << " replicas corrupted ("
              << fs.corruptions_detected << " caught on read), "
              << fs.writes_rejected << " writes rejected, "
              << fs.stragglers_injected << " stragglers; "
              << moon_run.quarantines << " quarantines, audit "
              << moon_run.audit_passes << " sweeps / "
              << moon_run.audit_violations << " violations\n";
  }

  if (moon_run.finished && hadoop_run.finished) {
    std::cout << "\nSpeedup: "
              << Table::num(hadoop_run.execution_time_s /
                                moon_run.execution_time_s,
                            2)
              << "x\n";
  }
  return 0;
}
