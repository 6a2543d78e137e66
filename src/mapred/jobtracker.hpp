// JobTracker: the master control plane.
//
// Receives tracker heartbeats, assigns tasks (non-running tasks first with
// failed-task priority and map locality, then speculative copies via the
// configured SpeculationPolicy), monitors tracker liveness
// (suspended/dead), arbitrates fetch-failure reports, and runs the job
// completion scan.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint_policy.hpp"
#include "checkpoint/checkpoint_store.hpp"
#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "dfs/dfs.hpp"
#include "mapred/admission.hpp"
#include "mapred/job.hpp"
#include "mapred/job_policy.hpp"
#include "mapred/speculation.hpp"
#include "mapred/tasktracker.hpp"
#include "mapred/types.hpp"
#include "simkit/periodic.hpp"

namespace moon::recovery {
class JobTrackerJournal;
}  // namespace moon::recovery

namespace moon::mapred {

enum class TrackerState { kLive, kSuspended, kDead };

class JobTracker {
 public:
  JobTracker(sim::Simulation& sim, cluster::Cluster& cluster, dfs::Dfs& dfs,
             SchedulerConfig config, std::uint64_t seed);

  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  /// Creates a TaskTracker on `node`. Call for every worker before start().
  TaskTracker& add_tracker(NodeId node);
  /// Convenience: trackers on every cluster node.
  void add_all_trackers();

  void start();

  JobId submit(JobSpec spec);
  [[nodiscard]] Job& job(JobId id);
  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] bool has_job(JobId id) const { return jobs_.contains(id); }

  // ---- steady-state serving (DESIGN.md §16) -------------------------------
  /// Admission gate; null unless config().admission.enabled. Callers that
  /// want overload protection route arrivals through admission()->offer()
  /// instead of submit(); direct submit() is never gated.
  [[nodiscard]] AdmissionController* admission() { return admission_.get(); }

  /// Unfinished jobs currently in the table (the control-plane queue depth
  /// admission caps). O(1): counted at submit/finish.
  [[nodiscard]] int live_jobs() const { return live_jobs_; }
  /// Non-terminal attempts across all unfinished jobs (in-flight data-plane
  /// work). O(live jobs): sums each job's O(1) counter.
  [[nodiscard]] int live_attempts_total() const;
  /// Approximate heap footprint of every job still in the table — the
  /// quantity retired-job GC keeps O(live jobs) on open-ended streams.
  [[nodiscard]] std::size_t retained_state_bytes() const;

  /// Erases a *finished* job from the live table (throws otherwise). After
  /// a job finishes, no sim event references it (attempt cleanup cancels
  /// them; trackers drop their pointers at finalize), every periodic scan
  /// and gauge skips finished jobs, and the journal records the retirement
  /// so recovery is not diffed against it — so destroying it here only
  /// frees memory. Callers must not retire from inside an on_job_finished
  /// callback (the Job is still on the stack there); the multi-job harness
  /// drains retirements between sim steps.
  void retire_job(JobId id);
  [[nodiscard]] std::int64_t jobs_retired() const { return jobs_retired_; }

  // ---- crash-recovery (DESIGN.md §14) -------------------------------------
  /// False while the master is crashed: heartbeats are dropped, scans are
  /// frozen and attempt outcome reports park on their attempts.
  [[nodiscard]] bool available() const { return up_; }
  /// Bumped on every recovery; trackers re-register when it moves.
  [[nodiscard]] int epoch() const { return epoch_; }
  /// Installs the op journal (null = crash-recovery off, zero perturbation).
  void set_journal(recovery::JobTrackerJournal* journal) { journal_ = journal; }
  [[nodiscard]] recovery::JobTrackerJournal* journal() { return journal_; }
  /// Fault-injector entry points: crash loses all soft state (tracker
  /// liveness, quarantine backoffs); recover() replays the journal, diffs it
  /// against live job state, re-registers available trackers, reconciles
  /// orphaned attempts and delivers parked outcome reports.
  void crash();
  void recover();
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  /// TaskTracker-side bookkeeping hooks (master down).
  void note_heartbeat_missed() { ++recovery_stats_.heartbeats_missed; }
  void note_report_parked() { ++recovery_stats_.reports_parked; }

  /// Fires when a job completes or fails.
  void on_job_finished(std::function<void(Job&)> callback);

  // ---- callbacks from the data plane --------------------------------------
  void heartbeat(TaskTracker& tracker);
  void notify_job_finished(Job& job);

  /// Flaky-node quarantine feed: Job::attempt_failed reports the hosting
  /// tracker here. Once a tracker accumulates quarantine_threshold strikes
  /// it is quarantined — heartbeats are still accepted (it stays live) but
  /// no work is assigned — for an exponentially growing backoff, then
  /// readmitted with a clean slate. No-op when the threshold is 0 (default).
  void note_attempt_failure(TaskTracker& tracker);

  // ---- environment observations -------------------------------------------
  [[nodiscard]] TrackerState tracker_state(NodeId node) const;
  /// Total execution slots (map + reduce) on live trackers — the paper's
  /// "currently available execution slots".
  [[nodiscard]] int available_execution_slots() const {
    return live_map_slots_ + live_reduce_slots_;
  }
  [[nodiscard]] int total_slots(TaskType type) const {
    return type == TaskType::kMap ? live_map_slots_ : live_reduce_slots_;
  }

  /// Wall-clock nanoseconds spent making heartbeat assignment decisions
  /// (pending picks + speculation) — the measured "scheduling time" axis of
  /// the paper's Figure 4. Purely observational; never feeds the sim. The
  /// profiler's kHeartbeat counter is the single source of truth.
  [[nodiscard]] std::uint64_t scheduling_wall_ns() const {
    return sim_.profiler().counter(sim::Profiler::Key::kHeartbeat).ns;
  }
  [[nodiscard]] std::uint64_t heartbeats_served() const { return heartbeats_; }

  // ---- quarantine introspection -------------------------------------------
  [[nodiscard]] bool quarantined(NodeId node) const;
  /// Trackers currently serving a quarantine backoff.
  [[nodiscard]] int quarantined_count() const { return quarantined_count_; }
  /// Lifetime quarantine entries across all trackers.
  [[nodiscard]] std::int64_t quarantines_total() const {
    return quarantines_total_;
  }

  [[nodiscard]] const SchedulerConfig& config() const { return config_; }
  /// The configured multi-job arbitration policy (DESIGN.md §10).
  [[nodiscard]] const JobSchedulingPolicy& job_policy() const {
    return *job_policy_;
  }
  /// Reduce-checkpoint subsystem (inert unless config().checkpoint.enabled).
  [[nodiscard]] checkpoint::CheckpointStore& checkpoint_store() {
    return checkpoint_store_;
  }
  [[nodiscard]] const checkpoint::CheckpointPolicy& checkpoint_policy() const {
    return checkpoint_policy_;
  }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] dfs::Dfs& dfs() { return dfs_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Registered trackers in creation order — a cached view, not a copy.
  [[nodiscard]] const std::vector<TaskTracker*>& trackers() const {
    return tracker_ptrs_;
  }
  /// Submitted jobs in submission order (metrics gauges iterate this).
  [[nodiscard]] const std::vector<Job*>& jobs_in_order() const {
    return jobs_by_order_;
  }

 private:
  struct TrackerInfo {
    TaskTracker* tracker = nullptr;
    TrackerState state = TrackerState::kLive;
    sim::Time last_heartbeat = 0;
    // Flaky-node quarantine (inert while quarantine_threshold == 0).
    int flaky_strikes = 0;          ///< attempt failures since last readmission
    int quarantines = 0;            ///< lifetime entries (backoff exponent)
    bool quarantined = false;
    sim::Time quarantined_until = 0;
  };

  void liveness_scan();
  void completion_scan();
  void assign_work(TaskTracker& tracker);
  void set_tracker_state(TrackerInfo& info, TrackerState next);
  /// Journal-vs-live divergence count after replay (lost completed tasks,
  /// lost jobs, phantom completions). 0 on every correct recovery.
  [[nodiscard]] std::int64_t diff_against_journal() const;

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  dfs::Dfs& dfs_;
  SchedulerConfig config_;
  Rng rng_;
  /// Dedicated stream for kStaggered heartbeat offsets: drawing them from
  /// rng_ would shift every later scheduling draw and silently change
  /// kAligned-comparable state.
  Rng phase_rng_;

  std::vector<std::unique_ptr<TaskTracker>> trackers_;
  std::vector<TaskTracker*> tracker_ptrs_;  ///< cached trackers() view
  /// Ordered by NodeId: the liveness scan takes state-changing actions
  /// (tracker death -> attempt kills -> re-pend order), so its iteration
  /// order must not depend on hash layout or registration order (§2
  /// determinism contract).
  std::map<NodeId, TrackerInfo> tracker_info_;
  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
  /// Submission-order view of jobs_: the heartbeat loop and completion scan
  /// iterate this instead of the unordered map, so multi-job assignment
  /// order is deterministic.
  std::vector<Job*> jobs_by_order_;
  /// Scratch for assign_work: unfinished jobs in the order the configured
  /// JobSchedulingPolicy wants them offered the heartbeat's slot.
  std::vector<Job*> assign_order_;
  IdAllocator<JobId> job_ids_;
  /// Live-tracker slot aggregates, updated on tracker add and every state
  /// transition (audit::Auditor checks them against a recount).
  int live_map_slots_ = 0;
  int live_reduce_slots_ = 0;
  int live_jobs_ = 0;  ///< unfinished jobs in the table (admission queue depth)
  std::int64_t jobs_retired_ = 0;
  int quarantined_count_ = 0;
  std::int64_t quarantines_total_ = 0;
  std::uint64_t heartbeats_ = 0;
  // Crash-recovery state (inert — and all zero — while master_crash is off).
  bool up_ = true;
  int epoch_ = 0;
  recovery::JobTrackerJournal* journal_ = nullptr;
  RecoveryStats recovery_stats_;
  std::unique_ptr<SpeculationPolicy> speculator_;
  std::unique_ptr<JobSchedulingPolicy> job_policy_;
  /// Null unless config_.admission.enabled (zero perturbation). Declared
  /// after jobs_: its destructor cancels the defer timer, whose parked
  /// specs reference nothing, but the controller reads job state.
  std::unique_ptr<AdmissionController> admission_;
  checkpoint::CheckpointPolicy checkpoint_policy_;
  // Declared after jobs_: the store's destructor cancels in-flight DFS ops
  // whose callbacks touch jobs, so it must go first.
  checkpoint::CheckpointStore checkpoint_store_;

  std::vector<std::function<void(Job&)>> finished_callbacks_;
  sim::PeriodicTask liveness_task_;
  sim::PeriodicTask completion_task_;
  bool started_ = false;
  /// Lifetime token for the NameNode replica listener (declared last so it
  /// expires before any member teardown can trigger DFS activity).
  std::shared_ptr<void> listener_guard_ = std::make_shared<int>(0);
};

}  // namespace moon::mapred
