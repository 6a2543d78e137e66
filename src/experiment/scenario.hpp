// Experiment harness: wires trace -> cluster -> DFS -> MapReduce for one
// simulated job run, exposes the paper's policy presets, and aggregates
// repeated runs.
//
// Cluster layouts:
//  * MOON mode      — V volatile + D dedicated nodes; the framework knows
//                     which is which (hybrid replication & scheduling work).
//  * Hadoop mode    — the same physical machines, but the framework treats
//                     every node as volatile ("these nodes are all treated
//                     as volatile in the Hadoop tests as Hadoop cannot
//                     differentiate", §VI-C); the D reliable machines simply
//                     never go down.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "dfs/types.hpp"
#include "faults/fault_config.hpp"
#include "faults/fault_injector.hpp"
#include "mapred/types.hpp"
#include "obs/observability.hpp"
#include "recovery/master_journal.hpp"
#include "simkit/flow_network.hpp"
#include "simkit/profiler.hpp"
#include "trace/trace_generator.hpp"
#include "workload/workload.hpp"

namespace moon::experiment {

struct ScenarioConfig {
  // --- cluster ---
  std::size_t volatile_nodes = 60;
  std::size_t dedicated_nodes = 6;
  /// false = Hadoop mode: dedicated machines exist but are typed volatile.
  bool dedicated_known = true;
  /// Effective per-node bandwidths (see DESIGN.md §6 for calibration).
  BytesPerSecond nic_bandwidth = mibps(80.0);
  BytesPerSecond disk_bandwidth = mibps(30.0);
  int map_slots = 2;
  int reduce_slots = 2;

  // --- volatility ---
  double unavailability_rate = 0.3;
  trace::GeneratorConfig trace_gen;  ///< rate is overwritten per run
  /// Correlated (lab-session) outages instead of independent ones (§III).
  bool correlated_outages = false;
  std::size_t correlation_group_size = 10;
  double correlated_fraction = 0.5;
  /// Lab-session length (seconds); sessions comparable to the job length
  /// are the interesting regime (a short job simply dodges hour-long ones).
  double correlated_event_mean_s = 1800.0;

  // --- stack configuration ---
  mapred::SchedulerConfig sched;
  dfs::DfsConfig dfs;
  sim::FairnessModel fairness = sim::FairnessModel::kBottleneckShare;

  // --- workload & replication ---
  workload::WorkloadModel app = workload::sort_workload();
  dfs::ReplicationFactor input_factor{1, 3};
  dfs::FileKind intermediate_kind = dfs::FileKind::kOpportunistic;
  dfs::ReplicationFactor intermediate_factor{1, 1};
  dfs::ReplicationFactor output_factor{1, 3};

  // --- run control ---
  std::uint64_t seed = 1;
  sim::Duration submit_at = 60 * sim::kSecond;
  sim::Duration max_sim_time = 24 * sim::kHour;
  /// Dump unfinished-task state to stderr when the horizon is hit.
  bool dump_unfinished = false;

  // --- observability (off by default; zero-perturbation when on) ---
  obs::ObsConfig obs;

  // --- fault injection (off by default; runs without it are bit-identical
  // to builds that never had it — DESIGN.md §13) ---
  faults::FaultConfig faults;
};

/// One job's metrics and end-of-run progress snapshot. `finished` is
/// metrics.completed. A completed job's execution_time_s is its own
/// submission-to-finish time; any other job (aborted, shed, or still running
/// at the horizon) measures it from its *arrival* to the snapshot, so time
/// spent waiting on a crashed JobTracker counts. A job never submitted
/// before the horizon keeps its spec's task counts with finished = false and
/// execution_time_s = 0.
struct JobRun {
  mapred::JobMetrics metrics;
  int num_maps = 0;
  int num_reduces = 0;
  bool finished = false;  ///< completed within the horizon
  double execution_time_s = 0.0;
  // End-of-run progress snapshot (diagnoses DNF runs).
  int completed_maps = 0;
  int completed_reduces = 0;
  bool outputs_committed = false;  ///< all reduces done, waiting on factors
  [[nodiscard]] int duplicated_tasks() const {
    return metrics.duplicated_tasks(num_maps, num_reduces);
  }
};

/// End-of-run totals of one Environment, shared by every job it ran.
struct RunTotals {
  /// Host wall-clock profile of the run's hot paths (settle/recompute, DFS
  /// probes, replication scans, heartbeats, speculation) — what the next
  /// perf PR should look at before guessing.
  sim::Profiler::Snapshot profile{};
  dfs::DfsStats dfs_stats;  ///< cluster-wide (the DFS is shared by all jobs)
  std::size_t replication_queue_depth = 0;
  // Fault-injection & audit accounting (all zero when config.faults is off).
  faults::FaultStats fault_stats{};
  std::int64_t quarantines = 0;      ///< flaky-node quarantine entries
  std::int64_t audit_passes = 0;     ///< periodic invariant sweeps run
  std::int64_t audit_violations = 0; ///< total violations across sweeps
  /// Master crash-recovery accounting (DESIGN.md §14; all zero unless
  /// faults.master_crash is on — the goldens assert exactly that).
  /// `journal` sums the NameNode and JobTracker journals field by field;
  /// journal.divergences counts replay-vs-live diffs and must stay 0.
  recovery::JournalStats journal{};
  mapred::RecoveryStats recovery{};
  /// The run's observability bundle (null when config.obs was all-off);
  /// finalized — trace/metrics/event log are complete and exportable.
  std::shared_ptr<obs::Observability> obs;
  /// Wall-clock ms the JobTracker spent making heartbeat assignment
  /// decisions (the measured Figure-4 "scheduling time"). Derived from the
  /// profiler's kHeartbeat counter — one measurement, two views.
  [[nodiscard]] double scheduling_wall_ms() const {
    return profile[static_cast<std::size_t>(sim::Profiler::Key::kHeartbeat)]
        .ms();
  }
};

struct RunResult : JobRun, RunTotals {};

/// Runs one job to completion (or the horizon) and collects everything: the
/// stream harness (run_multi_job_scenario) on the single arrival
/// {config.submit_at, config.app}.
RunResult run_scenario(const ScenarioConfig& config);

// ---- policy presets (paper §VI) -------------------------------------------

/// Hadoop baseline with a given TrackerExpiryInterval (the paper sweeps
/// 1 / 5 / 10 minutes).
mapred::SchedulerConfig hadoop_scheduler(sim::Duration tracker_expiry);

/// MOON scheduler: SuspensionInterval 1 min, TrackerExpiryInterval 30 min;
/// `hybrid` enables §V-C dedicated-resource awareness.
mapred::SchedulerConfig moon_scheduler(bool hybrid);

/// MOON plus the reduce-checkpoint subsystem (see DESIGN.md
/// § checkpointing): running reduces persist shuffle/compute progress into
/// the DFS and rescheduled attempts resume from the latest live checkpoint.
/// Tolerates churn without relying on dedicated-node placement, so it is
/// most interesting with `hybrid` off.
mapred::SchedulerConfig moon_checkpoint_scheduler(bool hybrid = false);

/// LATE (OSDI'08) on stock Hadoop fault-tolerance semantics.
mapred::SchedulerConfig late_scheduler(sim::Duration tracker_expiry);

/// The paper's named future work: LATE's time-to-end speculation combined
/// with MOON's suspension detection (no premature kills).
mapred::SchedulerConfig late_moon_scheduler();

/// DFS configs: MOON (hibernation + adaptive replication + throttling) vs
/// plain Hadoop-style behaviour.
dfs::DfsConfig moon_dfs_config();
dfs::DfsConfig hadoop_dfs_config();

// ---- repetition aggregation -----------------------------------------------

struct Summary {
  Accumulator execution_time_s;
  Accumulator duplicated_tasks;
  Accumulator killed_maps;
  Accumulator killed_reduces;
  Accumulator map_reexecutions;
  Accumulator avg_map_time_s;
  Accumulator avg_shuffle_time_s;
  Accumulator avg_reduce_time_s;
  Accumulator fetch_failures;
  Accumulator checkpoints_written;
  Accumulator checkpoint_resumes;
  Accumulator checkpoint_salvaged;
  Accumulator scheduling_wall_ms;  ///< control-plane cost per run (measured)
  /// Host wall-clock ms per profiled hot path, indexed by sim::Profiler::Key.
  std::array<Accumulator, sim::Profiler::kKeyCount> profile_ms{};
  int completed_runs = 0;
  int total_runs = 0;
};

/// Runs `repetitions` seeds of the scenario (seed, seed+1, ...) and
/// aggregates. An optional observer sees every RunResult.
Summary run_repetitions(ScenarioConfig config, int repetitions,
                        const std::function<void(const RunResult&)>& observer = {});

}  // namespace moon::experiment
