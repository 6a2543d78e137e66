// Multi-job experiment harness (DESIGN.md §10, §16): wires one opportunistic
// cluster + DFS + JobTracker, replays a JobArrivalStream into it, and
// collects per-job JobRuns plus stream-level metrics (makespan, mean/p95
// job latency, Jain fairness index, SLA misses, admission outcomes).
//
// This is the only run harness: run_scenario is this harness on a single
// arrival, so the single-job and stream paths agree bit for bit by
// construction.
//
// Steady-state serving (DESIGN.md §16): arrivals route through the
// JobTracker's AdmissionController when base.sched.admission.enabled, and
// `retain_job_results = false` garbage-collects each job as it finishes —
// its outcome folds into streaming aggregates (bounded-reservoir
// percentiles via obs::Histogram, running sums for mean/Jain) and the Job
// object is destroyed, so memory per retired job is O(1). Stream-level
// aggregates are bit-identical between the two retain modes: both fold at
// the same events in the same order; retention only *additionally* keeps
// the per-job snapshots.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "mapred/admission.hpp"
#include "workload/arrival.hpp"

namespace moon::experiment {

struct MultiJobConfig {
  /// Cluster / volatility / stack knobs. `base.app` and `base.submit_at` are
  /// ignored — the arrival stream supplies per-job models and submit times.
  /// `base.sched.admission` gates arrivals when enabled; `base.max_sim_time`
  /// is the stream horizon.
  ScenarioConfig base;
  workload::ArrivalConfig arrivals;

  /// true (default): keep a JobOutcome per job and every finished Job object
  /// — today's behavior. false: fold each job into the stream aggregates at
  /// finish and retire it from the JobTracker (O(1) retained memory per
  /// job); MultiJobResult::jobs stays empty.
  bool retain_job_results = true;

  /// Jobs still unfinished at the horizon have no completion latency; by
  /// default they are *counted* (dnf_jobs) but excluded from the latency
  /// stats. true restores the legacy accounting that folds their truncated
  /// horizon latency into mean/p95/Jain (aborted/shed jobs' terminal
  /// latencies too) — useful when non-completion must hurt a policy's mean.
  bool count_dnf_latencies = false;

  /// Bounded reservoir size for the stream latency percentiles
  /// (obs::Histogram window); running count/sum/min/max are exact.
  std::size_t latency_reservoir = 4096;
};

/// One job of the stream, in the familiar single-job shape plus stream
/// bookkeeping. Only populated when retain_job_results.
struct JobOutcome {
  std::string name;
  int index = 0;                 ///< position in the arrival stream
  sim::Time submitted_at = 0;
  double latency_s = 0.0;        ///< completion - arrival (horizon if DNF)
  double queue_wait_s = 0.0;     ///< submission -> first launched attempt
  JobRun run;                    ///< per-job metrics/progress snapshot
};

/// Stream outcomes on top of the environment's end-of-run totals.
struct MultiJobResult : RunTotals {
  std::vector<JobOutcome> jobs;  ///< empty when retain_job_results == false
  int submitted_jobs = 0;  ///< arrivals admitted to the JobTracker
  int completed_jobs = 0;
  /// Admitted but failed: aborted by the framework (task/attempt caps) vs
  /// shed by admission control — distinct fates, reported separately.
  int aborted_jobs = 0;
  int shed_jobs = 0;
  /// Admitted but still unfinished when the stream horizon hit.
  int dnf_jobs = 0;
  /// Arrivals refused by admission control (immediately or after
  /// exhausting their defer budget; includes arrivals still parked in the
  /// defer queue at the horizon).
  int rejected_jobs = 0;

  // --- SLA accounting (jobs whose model carried a deadline) ---
  int sla_eligible_jobs = 0;
  /// Misses: finished late, aborted, shed, rejected, or DNF past deadline.
  int sla_missed_jobs = 0;
  [[nodiscard]] double sla_miss_rate() const {
    return sla_eligible_jobs == 0
               ? 0.0
               : static_cast<double>(sla_missed_jobs) / sla_eligible_jobs;
  }

  double makespan_s = 0.0;  ///< first submission -> last completion/horizon
  double mean_latency_s = 0.0;  ///< completed jobs (see count_dnf_latencies)
  double p95_latency_s = 0.0;   ///< over the bounded reservoir window
  double p99_latency_s = 0.0;
  /// Jain index over per-job latencies: 1 when every job waits equally,
  /// -> 1/n when one job absorbs all the delay.
  double jain_fairness = 1.0;

  // --- steady-state memory/backlog accounting (DESIGN.md §16) ---
  /// Max of JobTracker::retained_state_bytes() sampled at every job-finish
  /// event and at the end of the run.
  std::size_t peak_retained_bytes = 0;
  std::size_t final_retained_bytes = 0;
  /// Max unfinished-job count observed at the same sample points.
  int peak_live_jobs = 0;
  std::int64_t jobs_retired = 0;

  // --- admission outcomes (zeros when admission is off) ---
  mapred::AdmissionController::Stats admission{};
  /// FNV-1a over the controller's (decision, time) sequence; equal hashes
  /// across same-seed runs certify bit-identical admit/reject/shed streams.
  std::uint64_t admission_sequence_hash = 0;
};

/// Runs the arrival stream to completion (or base.max_sim_time). Arrivals
/// past the horizon never fire and are not reported as jobs.
MultiJobResult run_multi_job_scenario(const MultiJobConfig& config);

/// Jain fairness index (sum x)^2 / (n * sum x^2) over positive samples;
/// 1.0 for empty/degenerate input.
double jain_index(const std::vector<double>& samples);

}  // namespace moon::experiment
