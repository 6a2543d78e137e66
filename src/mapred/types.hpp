// MapReduce framework vocabulary (Hadoop-0.17-era semantics, per paper §II-C).
#pragma once

#include <string>

#include "checkpoint/types.hpp"
#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "dfs/types.hpp"

namespace moon::mapred {

enum class TaskType { kMap, kReduce };

enum class TaskState {
  kPending,    ///< no live attempt; eligible for scheduling
  kRunning,    ///< >= 1 non-terminal attempt
  kCompleted,  ///< one attempt succeeded
};

enum class AttemptState {
  kRunning,
  kInactive,   ///< MOON: host tracker suspected suspended; not killed yet
  kSucceeded,
  kKilled,     ///< terminated by the framework (tracker died, redundant, ...)
  kFailed,     ///< the attempt itself errored (e.g. unreadable input)
};

const char* to_string(TaskType type);
const char* to_string(TaskState state);
const char* to_string(AttemptState state);

/// Per-job static description. Data volumes/durations come from the
/// workload models (Table I + calibration).
struct JobSpec {
  std::string name = "job";
  int num_maps = 0;
  int num_reduces = 0;
  /// Staged input file; map i reads input block i (blocks == num_maps).
  FileId input_file;

  Bytes intermediate_per_map = 0;  ///< total map-output bytes per map task
  Bytes output_per_reduce = 0;     ///< final output bytes per reduce task

  sim::Duration map_compute = 10 * sim::kSecond;
  sim::Duration reduce_compute = 10 * sim::kSecond;
  /// Uniform +/- jitter applied per attempt (0.1 -> [0.9x, 1.1x]).
  double compute_jitter = 0.1;

  /// Intermediate-data policy: kind + {d,v}. Hadoop's map-local storage is
  /// {0,1} opportunistic (the single replica lands on the writer).
  dfs::FileKind intermediate_kind = dfs::FileKind::kOpportunistic;
  dfs::ReplicationFactor intermediate_factor{0, 1};

  /// Output files are written opportunistic with this factor, then converted
  /// to reliable at job commit (§IV-A).
  dfs::ReplicationFactor output_factor{1, 3};

  /// Relative completion deadline (SLA): the job should finish within this
  /// much simulated time of its arrival. 0 = no deadline. Drives the
  /// kDeadlineEdf job policy and the stream-level SLA-miss accounting;
  /// nothing enforces it — a late job completes normally and is *counted*
  /// as an SLA miss.
  sim::Duration deadline = 0;

  /// Admission priority (higher = more important). kShedLowestPriority
  /// evicts the lowest-priority live job to admit a higher-priority
  /// arrival; equal-priority arrivals never displace running work.
  int priority = 0;
};

/// Overload-protection policy in front of JobTracker::submit (DESIGN.md
/// §16). Disabled by default: with `enabled == false` no controller is
/// constructed and submission behaves exactly as before (zero perturbation).
struct AdmissionConfig {
  bool enabled = false;

  /// What to do with an arrival that would exceed a cap.
  /// kRejectNewest: refuse the arrival outright.
  /// kDeferWithBackoff: park it in a FIFO defer queue re-driven on a
  ///   deterministic exponential-backoff timer (sim::Retrier); after
  ///   max_defers unsuccessful drains the arrival is rejected.
  /// kShedLowestPriority: evict the lowest-priority unfinished job
  ///   (ties: newest first) iff it has strictly lower priority than the
  ///   arrival; otherwise the arrival itself is rejected.
  enum class Policy { kRejectNewest, kDeferWithBackoff, kShedLowestPriority };
  Policy policy = Policy::kRejectNewest;

  /// Cap on unfinished admitted jobs (the control plane's queue depth).
  /// 0 = unlimited.
  int max_queued_jobs = 8;
  /// Cap on live (non-terminal) attempts across all unfinished jobs —
  /// bounds in-flight data-plane work rather than job count. 0 = unlimited.
  int max_live_attempts = 0;
  /// kDeferWithBackoff: drains attempted per parked arrival before it is
  /// rejected. Must be >= 1 so every deferred arrival resolves.
  int max_defers = 8;
  /// kDeferWithBackoff: backoff schedule for the drain timer.
  sim::Duration defer_initial = 15 * sim::kSecond;
  sim::Duration defer_max = 240 * sim::kSecond;
};

const char* to_string(AdmissionConfig::Policy policy);

/// Scheduler/framework tunables. The experiment harness derives the paper's
/// policy variants (Hadoop{1,5,10}Min, MOON, MOON-Hybrid) from these.
struct SchedulerConfig {
  sim::Duration heartbeat_interval = 3 * sim::kSecond;

  /// Heartbeat phase across trackers. kAligned (default) starts every
  /// tracker's heartbeat one full interval after start(): all trackers beat
  /// on the same ticks — the regime the tick-memoized speculator paths are
  /// tuned for, and the one every equivalence/golden suite runs. kStaggered
  /// offsets each tracker's first beat by a deterministic seeded draw in
  /// [0, interval), modelling de-synchronized real deployments. Caveat
  /// (documented in DESIGN.md §11): staggering changes the heartbeat
  /// arrival order and therefore the simulated schedule — runs are
  /// bit-reproducible per (seed, config) and under permuted tracker
  /// registration, but are NOT comparable with kAligned runs.
  enum class HeartbeatPhase { kAligned, kStaggered };
  HeartbeatPhase heartbeat_phase = HeartbeatPhase::kAligned;

  sim::Duration liveness_scan_interval = 10 * sim::kSecond;

  /// TrackerExpiryInterval: heartbeat gap after which a tracker is dead and
  /// its attempts are killed (Hadoop default 10 min).
  sim::Duration tracker_expiry = 600 * sim::kSecond;

  /// MOON SuspensionInterval ("much smaller than TrackerExpiryInterval");
  /// 0 disables suspension detection (plain Hadoop).
  sim::Duration suspension_interval = 0;

  bool moon_scheduling = false;  ///< frozen/slow lists + two-phase replication
  bool hybrid_aware = false;     ///< dedicated-node-aware placement (§V-C)

  /// On tracker death, consult the DFS before re-executing completed maps
  /// (MOON); stock Hadoop re-runs them unconditionally.
  bool dfs_aware_recovery = false;

  /// Which speculative-execution policy drives backup copies. kMoon is
  /// implied by moon_scheduling; kLate implements Zaharia et al.'s LATE
  /// (OSDI'08), the alternative the paper's related work discusses.
  enum class Speculator { kHadoop, kMoon, kLate };
  Speculator speculator = Speculator::kHadoop;

  /// Multi-job arbitration: which unfinished job gets first claim on each
  /// heartbeat's slot (DESIGN.md §10). kFifo walks jobs in submission order
  /// (bit-identical to the historical single-loop behaviour); kFairShare
  /// offers the slot to the job with the fewest running attempts relative to
  /// its remaining work (deficit-based, submission order breaking ties);
  /// kShortestRemaining prefers the job with the least remaining work (SRTF).
  /// Within a job, map-before-reduce priority is preserved by every policy.
  /// kDeadlineEdf ranks deadline-carrying jobs by absolute deadline
  /// (earliest first, ties by submission order) ahead of deadline-free jobs.
  enum class JobPolicy { kFifo, kFairShare, kShortestRemaining, kDeadlineEdf };
  JobPolicy job_policy = JobPolicy::kFifo;

  /// Overload protection in front of submit (DESIGN.md §16); inert unless
  /// admission.enabled.
  AdmissionConfig admission;

  // --- LATE parameters (used when speculator == kLate) ---
  /// SpeculativeCap: concurrent backups <= this fraction of total slots.
  double late_cap_fraction = 0.1;
  /// SlowTaskThreshold: only tasks whose progress *rate* is below this
  /// percentile of running tasks' rates are candidates.
  double late_slow_task_percentile = 25.0;

  // --- speculative execution ---
  sim::Duration min_age_for_speculation = 60 * sim::kSecond;
  double straggler_gap = 0.2;         ///< progress lag vs average
  int per_task_speculative_cap = 1;   ///< Hadoop default backup copies
  double speculative_slot_fraction = 0.2;  ///< MOON global cap (20 % of slots)
  double homestretch_fraction = 0.2;  ///< H: remaining < H% of slots
  int homestretch_copies = 2;         ///< R: active copies to maintain

  // --- fetch-failure handling ---
  /// Hadoop rule: re-execute a map when more than this fraction of running
  /// reduces report failures fetching it.
  double fetch_failure_fraction = 0.5;
  /// Augmented rule (§VI-B): after this many failures, query the DFS and
  /// re-execute immediately if no live replica remains. <= 0 disables.
  int fetch_failure_query_threshold = 3;
  sim::Duration fetch_retry_interval = 30 * sim::kSecond;
  int shuffle_parallelism = 4;  ///< concurrent fetch streams per reduce

  /// Footnote 1: a map rescheduled this many times fails the job.
  int max_task_failures = 4;

  // --- failure containment (chaos runs; see DESIGN.md §13) ---
  /// Cap on total attempts launched per task (failed + killed + speculative).
  /// Under injected churn a task can burn attempts through kills — which
  /// max_task_failures never counts — forever; this cap converts such runaway
  /// tasks into a clean job abort. Generous default: no tier-1 workload
  /// comes near it.
  int max_attempt_failures = 120;

  /// Flaky-node quarantine: a tracker accumulating this many attempt
  /// failures is quarantined (no assignments) for quarantine_backoff,
  /// doubling per quarantine up to quarantine_backoff_max; its strike count
  /// resets on readmission. 0 disables (default — zero perturbation).
  int quarantine_threshold = 0;
  sim::Duration quarantine_backoff = 120 * sim::kSecond;
  sim::Duration quarantine_backoff_max = 1920 * sim::kSecond;

  sim::Duration completion_scan_interval = 5 * sim::kSecond;

  /// Reduce-task checkpoint/resume subsystem (src/checkpoint/); disabled by
  /// default — enabling it is what moon_checkpoint_scheduler() does.
  checkpoint::CheckpointConfig checkpoint;
};

/// Why a job aborted (JobMetrics::failure_reason; kNone while unfailed).
enum class JobFailureReason {
  kNone,
  kTaskFailures,     ///< a task exceeded max_task_failures (footnote 1)
  kTooManyAttempts,  ///< a task exceeded max_attempt_failures (containment)
  kShed,             ///< evicted by AdmissionController (kShedLowestPriority)
};

const char* to_string(JobFailureReason reason);

/// Everything the paper's evaluation reports, collected per job run.
struct JobMetrics {
  bool completed = false;
  bool failed = false;
  JobFailureReason failure_reason = JobFailureReason::kNone;
  sim::Time submitted_at = 0;
  sim::Time finished_at = 0;
  /// Absolute SLA deadline (spec.deadline anchored at arrival); 0 = none.
  /// Set by Job::submit; the multi-job harness re-anchors it to the original
  /// arrival time when admission deferred the submission.
  sim::Time deadline_at = 0;
  /// When the job's first attempt launched; negative until then. The gap to
  /// submitted_at is the queue wait a multi-job policy imposed on the job.
  sim::Time first_launch_at = -1;
  /// High-water mark of concurrently running attempts — the job's peak slot
  /// footprint (multi-job fairness accounting).
  int peak_running_attempts = 0;

  int launched_map_attempts = 0;
  int launched_reduce_attempts = 0;
  int speculative_attempts = 0;
  int killed_map_attempts = 0;
  int killed_reduce_attempts = 0;
  int failed_map_attempts = 0;
  int failed_reduce_attempts = 0;
  int map_reexecutions = 0;  ///< completed maps reverted (lost output)
  int fetch_failures = 0;

  // --- checkpoint subsystem ---
  int checkpoints_written = 0;          ///< committed checkpoint emits
  std::int64_t checkpoint_bytes = 0;    ///< payload bytes logged to the DFS
  int checkpoint_resumes = 0;           ///< attempts bootstrapped from a checkpoint
  /// Sum of the progress scores restored by resumes — the work the
  /// checkpoints salvaged from killed/expired attempts.
  double checkpoint_progress_salvaged = 0.0;

  Accumulator map_time_s;      ///< successful map attempt durations
  Accumulator shuffle_time_s;  ///< reduce start -> last fetch done
  Accumulator reduce_time_s;   ///< post-shuffle compute+write durations

  [[nodiscard]] double execution_time_s() const {
    return sim::to_seconds(finished_at - submitted_at);
  }
  /// Seconds between submission and the first launched attempt (0 if the
  /// job never launched one).
  [[nodiscard]] double queue_wait_s() const {
    return first_launch_at < 0 ? 0.0
                               : sim::to_seconds(first_launch_at - submitted_at);
  }
  [[nodiscard]] bool has_deadline() const { return deadline_at > 0; }
  /// SLA verdict for a *finished* deadline job: failed jobs (aborted or
  /// shed) always miss; completed jobs miss when they finished late.
  [[nodiscard]] bool sla_missed() const {
    return has_deadline() && (failed || finished_at > deadline_at);
  }
  /// Paper Fig. 5: attempts beyond one per task (speculatives + re-runs).
  [[nodiscard]] int duplicated_tasks(int num_maps, int num_reduces) const {
    return launched_map_attempts + launched_reduce_attempts - num_maps -
           num_reduces;
  }
};

/// JobTracker crash-recovery counters (DESIGN.md §14); all stay 0 while
/// faults.master_crash is off — the goldens assert exactly that.
struct RecoveryStats {
  std::int64_t heartbeats_missed = 0;  ///< TT beats dropped while JT down
  std::int64_t reports_parked = 0;     ///< outcomes parked on attempts
  std::int64_t reports_replayed = 0;   ///< parked reports delivered at recovery
  std::int64_t reregistrations = 0;    ///< trackers re-registered at recovery
  std::int64_t orphans_killed = 0;     ///< attempts reconciled away at recovery
};

}  // namespace moon::mapred
