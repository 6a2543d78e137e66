#include "mapred/jobtracker.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/trace.hpp"
#include "recovery/master_journal.hpp"

namespace moon::mapred {

JobTracker::JobTracker(sim::Simulation& sim, cluster::Cluster& cluster,
                       dfs::Dfs& dfs, SchedulerConfig config, std::uint64_t seed)
    : sim_(sim),
      cluster_(cluster),
      dfs_(dfs),
      config_(config),
      rng_(Rng{seed}.fork("jobtracker")),
      phase_rng_(Rng{seed}.fork("heartbeat-phase")),
      checkpoint_policy_(config.checkpoint),
      checkpoint_store_(dfs, config.checkpoint),
      liveness_task_(sim, config.liveness_scan_interval, [this] { liveness_scan(); }),
      completion_task_(sim, config.completion_scan_interval,
                       [this] { completion_scan(); }) {
  // moon_scheduling implies the MOON speculator; otherwise the explicit
  // choice (Hadoop's progress-gap policy or LATE) applies.
  if (config_.moon_scheduling ||
      config_.speculator == SchedulerConfig::Speculator::kMoon) {
    speculator_ = std::make_unique<MoonSpeculator>(*this);
  } else if (config_.speculator == SchedulerConfig::Speculator::kLate) {
    speculator_ = std::make_unique<LateSpeculator>(*this);
  } else {
    speculator_ = std::make_unique<HadoopSpeculator>(*this);
  }
  job_policy_ = JobSchedulingPolicy::make(config_.job_policy);
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(*this, config_.admission);
  }
  // Replica add/remove feeds each live job's pending-map locality buckets.
  // The NameNode has no unsubscribe, so the listener guards against this
  // JobTracker being gone while the DFS lives on.
  dfs_.namenode().subscribe_replica_events(
      [this, weak = std::weak_ptr<void>(listener_guard_)](
          BlockId block, NodeId node, bool added) {
        if (weak.expired()) return;
        for (Job* job : jobs_by_order_) {
          if (!job->finished()) job->on_replica_event(block, node, added);
        }
      });
}

TaskTracker& JobTracker::add_tracker(NodeId node) {
  auto tracker = std::make_unique<TaskTracker>(sim_, cluster_.node(node), *this,
                                               config_.heartbeat_interval);
  TaskTracker* raw = tracker.get();
  trackers_.push_back(std::move(tracker));
  tracker_ptrs_.push_back(raw);
  tracker_info_.emplace(node, TrackerInfo{raw, TrackerState::kLive, sim_.now()});
  live_map_slots_ += raw->map_slots();
  live_reduce_slots_ += raw->reduce_slots();
  return *raw;
}

void JobTracker::add_all_trackers() {
  for (NodeId id : cluster_.all_nodes()) add_tracker(id);
}

void JobTracker::start() {
  if (started_) return;
  started_ = true;
  // Start heartbeats in NodeId order, not registration order: same-tick
  // events fire FIFO, so the startup sequence fixes the heartbeat (and hence
  // assignment) order at every tick forever after. Keying it on node ids
  // keeps runs bit-identical under permuted add_tracker calls (§2
  // determinism contract); add_all_trackers already registers in id order.
  std::vector<TaskTracker*> by_id = tracker_ptrs_;
  std::sort(by_id.begin(), by_id.end(), [](TaskTracker* a, TaskTracker* b) {
    return a->node_id() < b->node_id();
  });
  // kStaggered draws each tracker's phase offset here, in NodeId order, so
  // the offsets (and hence the whole run) are reproducible under permuted
  // registration too.
  const bool staggered =
      config_.heartbeat_phase == SchedulerConfig::HeartbeatPhase::kStaggered;
  for (TaskTracker* tracker : by_id) {
    sim::Duration first_beat = -1;
    if (staggered && config_.heartbeat_interval > 0) {
      first_beat = phase_rng_.uniform_int(0, config_.heartbeat_interval - 1);
    }
    tracker->start(first_beat);
  }
  liveness_task_.start();
  completion_task_.start();
}

JobId JobTracker::submit(JobSpec spec) {
  const JobId id = job_ids_.next();
  auto job = std::make_unique<Job>(*this, id, std::move(spec));
  if (journal_ != nullptr) {
    const JobSpec& s = job->spec();
    journal_->record_submit(id, s.name, s.num_maps, s.num_reduces);
  }
  job->submit();
  jobs_by_order_.push_back(job.get());
  jobs_.emplace(id, std::move(job));
  ++live_jobs_;
  return id;
}

int JobTracker::live_attempts_total() const {
  int total = 0;
  for (const Job* job : jobs_by_order_) {
    if (!job->finished()) total += job->live_attempts();
  }
  return total;
}

std::size_t JobTracker::retained_state_bytes() const {
  std::size_t bytes = 0;
  for (const Job* job : jobs_by_order_) bytes += job->approx_retained_bytes();
  return bytes;
}

void JobTracker::retire_job(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("JobTracker: unknown job");
  if (!it->second->finished()) {
    throw std::logic_error("JobTracker: retiring unfinished job");
  }
  if (journal_ != nullptr) journal_->record_job_retired(id);
  std::erase(jobs_by_order_, it->second.get());
  jobs_.erase(it);
  ++jobs_retired_;
}

Job& JobTracker::job(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("JobTracker: unknown job");
  return *it->second;
}

const Job& JobTracker::job(JobId id) const {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("JobTracker: unknown job");
  return *it->second;
}

void JobTracker::on_job_finished(std::function<void(Job&)> callback) {
  finished_callbacks_.push_back(std::move(callback));
}

void JobTracker::notify_job_finished(Job& job) {
  --live_jobs_;
  for (const auto& cb : finished_callbacks_) cb(job);
}

// ---- heartbeat handling ------------------------------------------------

void JobTracker::heartbeat(TaskTracker& tracker) {
  if (!up_) return;  // belt — TaskTracker::beat already checks available()
  auto it = tracker_info_.find(tracker.node_id());
  if (it == tracker_info_.end()) throw std::logic_error("JobTracker: unknown tracker");
  TrackerInfo& info = it->second;
  info.last_heartbeat = sim_.now();
  if (info.state != TrackerState::kLive) {
    set_tracker_state(info, TrackerState::kLive);
  }
  if (auto* tracer = sim_.tracer();
      tracer && tracer->enabled(obs::Cat::kHeartbeat)) {
    tracer->instant(obs::kClusterPid, obs::node_track(tracker.node_id()),
                    obs::Cat::kHeartbeat, "heartbeat", sim_.now());
  }
  if (info.quarantined) {
    if (sim_.now() < info.quarantined_until) {
      // Heartbeat accepted (the tracker stays live) but no work assigned
      // while the backoff runs.
      ++heartbeats_;
      return;
    }
    // Backoff served: readmit with a clean slate.
    info.quarantined = false;
    info.flaky_strikes = 0;
    --quarantined_count_;
    if (auto* tracer = sim_.tracer()) {
      tracer->instant(obs::kClusterPid, obs::node_track(tracker.node_id()),
                      obs::Cat::kFault, "readmit", sim_.now());
    }
    if (log::enabled(log::Level::kInfo)) {
      log::info("jobtracker", "tracker readmitted",
                {{"node", std::to_string(tracker.node_id().value())}});
    }
  }
  {
    sim::Profiler::Scope profile(sim_.profiler(),
                                 sim::Profiler::Key::kHeartbeat);
    assign_work(tracker);
  }
  ++heartbeats_;
}

void JobTracker::note_attempt_failure(TaskTracker& tracker) {
  if (config_.quarantine_threshold <= 0) return;
  auto it = tracker_info_.find(tracker.node_id());
  if (it == tracker_info_.end()) return;
  TrackerInfo& info = it->second;
  if (info.quarantined) return;
  if (++info.flaky_strikes < config_.quarantine_threshold) return;
  ++info.quarantines;
  ++quarantines_total_;
  ++quarantined_count_;
  sim::Duration backoff = std::max<sim::Duration>(config_.quarantine_backoff, 1);
  for (int i = 1; i < info.quarantines && backoff < config_.quarantine_backoff_max;
       ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, config_.quarantine_backoff_max);
  info.quarantined = true;
  info.quarantined_until = sim_.now() + backoff;
  if (auto* tracer = sim_.tracer()) {
    tracer->instant(obs::kClusterPid, obs::node_track(tracker.node_id()),
                    obs::Cat::kFault, "quarantine", sim_.now(),
                    {{"backoff_s", std::to_string(sim::to_seconds(backoff))}});
  }
  log::warn("jobtracker", "tracker quarantined",
            {{"node", std::to_string(tracker.node_id().value())},
             {"backoff_s", std::to_string(sim::to_seconds(backoff))},
             {"entries", std::to_string(info.quarantines)}});
}

bool JobTracker::quarantined(NodeId node) const {
  auto it = tracker_info_.find(node);
  return it != tracker_info_.end() && it->second.quarantined;
}

void JobTracker::set_tracker_state(TrackerInfo& info, TrackerState next) {
  const TrackerState prev = info.state;
  if (prev == next) return;
  info.state = next;
  const char* state_name = next == TrackerState::kLive        ? "live"
                           : next == TrackerState::kSuspended ? "suspended"
                                                              : "dead";
  if (auto* tracer = sim_.tracer()) {
    tracer->instant(obs::kClusterPid, obs::node_track(info.tracker->node_id()),
                    obs::Cat::kSched, std::string("tracker-") + state_name,
                    sim_.now());
  }
  if (log::enabled(log::Level::kInfo)) {
    log::info("jobtracker", "tracker state",
              {{"node", std::to_string(info.tracker->node_id().value())},
               {"state", state_name}});
  }
  // Slot aggregates follow the live partition.
  if (prev == TrackerState::kLive) {
    live_map_slots_ -= info.tracker->map_slots();
    live_reduce_slots_ -= info.tracker->reduce_slots();
  }
  if (next == TrackerState::kLive) {
    live_map_slots_ += info.tracker->map_slots();
    live_reduce_slots_ += info.tracker->reduce_slots();
  }
  switch (next) {
    case TrackerState::kLive:
      // Back from suspension: reactivate surviving attempts.
      for (TaskAttempt* attempt : info.tracker->all_attempts()) {
        attempt->set_inactive(false);
      }
      break;
    case TrackerState::kSuspended:
      // §V-A: attempts are flagged inactive but *not* killed, "in the hope
      // that they may be resumed when the TaskTracker is returned".
      for (TaskAttempt* attempt : info.tracker->all_attempts()) {
        attempt->set_inactive(true);
      }
      // Best-effort checkpoint of hosted reduces: if the node never comes
      // back, the tracker will eventually expire and the shuffle would
      // otherwise be lost with it.
      if (config_.checkpoint.enabled && config_.checkpoint.emit_on_suspension) {
        for (TaskAttempt* attempt :
             info.tracker->attempts(TaskType::kReduce)) {
          attempt->maybe_checkpoint(/*forced=*/true);
        }
      }
      break;
    case TrackerState::kDead:
      // Hadoop semantics: every attempt on a dead tracker is killed, its
      // tasks become schedulable elsewhere, and completed maps that lived
      // there are re-executed (unless MOON finds surviving replicas).
      for (Job* job : jobs_by_order_) {
        if (!job->finished()) job->handle_tracker_death(*info.tracker);
      }
      break;
  }
}

void JobTracker::crash() {
  if (!up_) return;
  up_ = false;
  // The tracker table is soft state rebuilt from re-registration: the master
  // forgets who is alive. The workers (and their running attempts) did not
  // change — only the master's knowledge of them died — so the states are
  // set directly, without the kDead transition's attempt-killing side
  // effects. Quarantine backoffs are soft state too; lifetime counters stay.
  for (auto& [node, info] : tracker_info_) {
    info.state = TrackerState::kDead;
    info.flaky_strikes = 0;
    if (info.quarantined) {
      info.quarantined = false;
      --quarantined_count_;
    }
  }
  live_map_slots_ = 0;
  live_reduce_slots_ = 0;
  log::warn("jobtracker", "master crashed",
            {{"jobs", std::to_string(jobs_by_order_.size())}});
}

void JobTracker::recover() {
  if (up_) return;
  ++epoch_;
  up_ = true;
  // Journal replay + divergence audit: a correct journal reproduces the live
  // job/task state exactly (the sim never lost the objects; real masters
  // rebuild them from this replay, so the diff proves the journal could).
  if (journal_ != nullptr) journal_->add_divergences(diff_against_journal());
  // Re-registration storm: available trackers re-register with their
  // running-attempt reports (the attempt objects are already on the tracker;
  // re-registering restores the master's liveness view of them). NodeId
  // order — tracker_info_ is an ordered map (§2 determinism contract).
  for (auto& [node, info] : tracker_info_) {
    if (!cluster_.node(node).available()) continue;
    info.last_heartbeat = sim_.now();
    set_tracker_state(info, TrackerState::kLive);
    ++recovery_stats_.reregistrations;
  }
  // Trackers that could not re-register are lost to the recovered master —
  // it has no record of them, so unlike plain suspension (where the old
  // master remembers and waits), their attempts go through the normal
  // tracker-death path now (Hadoop JobTracker-restart semantics). The state
  // is already kDead from crash(), so the death handling runs directly.
  for (auto& [node, info] : tracker_info_) {
    if (cluster_.node(node).available()) continue;
    for (Job* job : jobs_by_order_) {
      if (!job->finished()) job->handle_tracker_death(*info.tracker);
    }
  }
  // Orphan reconciliation: kill attempts whose task (or whole job) the
  // recovered state says is already done.
  for (Job* job : jobs_by_order_) {
    recovery_stats_.orphans_killed += job->reconcile_after_recovery();
  }
  // Deliver outcome reports that parked while the master was down. Each
  // delivery can kill redundant attempts (mutating the per-tracker attempt
  // lists), so the sweep restarts from the top after every delivery — the
  // scan order is deterministic, and n is small.
  for (;;) {
    TaskAttempt* next = nullptr;
    for (auto& [node, info] : tracker_info_) {
      for (TaskAttempt* attempt : info.tracker->all_attempts()) {
        if (attempt->has_parked_report()) {
          next = attempt;
          break;
        }
      }
      if (next != nullptr) break;
    }
    if (next == nullptr) break;
    next->deliver_parked_report();
    ++recovery_stats_.reports_replayed;
  }
  log::info("jobtracker", "master recovered",
            {{"epoch", std::to_string(epoch_)},
             {"reregistered",
              std::to_string(recovery_stats_.reregistrations)}});
}

std::int64_t JobTracker::diff_against_journal() const {
  const recovery::JobTrackerImage image = journal_->replay();
  std::int64_t diverged = 0;
  for (const Job* job : jobs_by_order_) {
    auto it = image.find(job->id());
    if (it == image.end()) {
      ++diverged;  // submitted job missing from the journal
      continue;
    }
    const recovery::JobImage& ji = it->second;
    if (ji.finished != job->finished() ||
        (ji.finished && ji.completed != job->metrics().completed)) {
      ++diverged;
    }
    // Completed-task sets must match exactly: a live completed task missing
    // from the journal is a lost completion; the reverse is a phantom.
    std::set<TaskId> live;
    for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
      for (TaskId t : job->tasks_of(type)) {
        if (job->task(t).state == TaskState::kCompleted) live.insert(t);
      }
    }
    for (TaskId t : live) {
      if (!ji.completed_tasks.contains(t)) ++diverged;
    }
    for (TaskId t : ji.completed_tasks) {
      if (!live.contains(t)) ++diverged;
    }
  }
  diverged +=
      static_cast<std::int64_t>(image.size()) -
      static_cast<std::int64_t>(
          std::count_if(jobs_by_order_.begin(), jobs_by_order_.end(),
                        [&](const Job* j) { return image.contains(j->id()); }));
  return diverged;
}

void JobTracker::liveness_scan() {
  if (!up_) return;  // a crashed master scans nothing
  const sim::Time now = sim_.now();
  // tracker_info_ is NodeId-ordered: expiring trackers die in id order, so
  // the resulting re-pend/kill sequence is reproducible regardless of how
  // the map was populated.
  for (auto& [node, info] : tracker_info_) {
    if (info.state == TrackerState::kDead) continue;
    const sim::Duration gap = now - info.last_heartbeat;
    if (gap > config_.tracker_expiry) {
      set_tracker_state(info, TrackerState::kDead);
    } else if (config_.suspension_interval > 0 &&
               info.state == TrackerState::kLive &&
               gap > config_.suspension_interval) {
      set_tracker_state(info, TrackerState::kSuspended);
    }
  }
}

void JobTracker::completion_scan() {
  if (!up_) return;
  for (Job* job : jobs_by_order_) {
    if (!job->finished()) job->try_commit();
  }
}

// ---- task assignment -----------------------------------------------------

void JobTracker::assign_work(TaskTracker& tracker) {
  // One task per heartbeat, like Hadoop 0.17. The configured multi-job
  // policy ranks the unfinished jobs (kFifo keeps submission order, so a
  // single-job run is unchanged); within a job, maps get priority when both
  // slot types are open (they gate the reducers' shuffle). Pending picks are
  // bucket lookups on the job's indices; speculative picks enumerate only
  // running tasks.
  assign_order_.clear();
  for (Job* job : jobs_by_order_) {
    if (!job->finished()) assign_order_.push_back(job);
  }
  job_policy_->order(assign_order_);
  for (Job* job : assign_order_) {
    for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
      if (tracker.free_slots(type) <= 0) continue;
      std::optional<TaskId> choice = job->pick_pending(type, tracker);
      bool speculative = false;
      if (!choice) {
        // kSpeculation is a sub-span of kHeartbeat (heartbeat() times the
        // whole assign_work call around this).
        sim::Profiler::Scope profile(sim_.profiler(),
                                     sim::Profiler::Key::kSpeculation);
        choice = speculator_->pick(*job, type, tracker);
        speculative = choice.has_value();
      }
      if (choice) {
        job->launch_attempt(*choice, tracker, speculative);
        return;
      }
    }
  }
}

// ---- observations ---------------------------------------------------------

TrackerState JobTracker::tracker_state(NodeId node) const {
  auto it = tracker_info_.find(node);
  if (it == tracker_info_.end()) throw std::out_of_range("JobTracker: unknown tracker");
  return it->second.state;
}

}  // namespace moon::mapred
