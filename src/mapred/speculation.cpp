#include "mapred/speculation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/stats.hpp"

#include "mapred/job.hpp"
#include "mapred/jobtracker.hpp"
#include "mapred/tasktracker.hpp"

namespace moon::mapred {

bool SpeculationPolicy::fresh(const MemoKey& key, const Job& job, sim::Time now,
                              std::uint64_t epoch, int slots) {
  return key.valid && key.job == job.id() && key.time == now &&
         key.epoch == epoch && key.slots == slots;
}

void SpeculationPolicy::stamp(MemoKey& key, const Job& job, sim::Time now,
                              std::uint64_t epoch, int slots) {
  key = MemoKey{true, job.id(), now, epoch, slots};
}

// ---- Hadoop baseline ----------------------------------------------------

bool HadoopSpeculator::is_straggler(Job& job, TaskId id, double average) const {
  const auto& cfg = jobtracker_.config();
  const Task& t = job.task(id);
  if (t.state != TaskState::kRunning) return false;
  // Per-task cap: original + at most `per_task_speculative_cap` copies.
  if (job.non_terminal_attempts(id) >= 1 + cfg.per_task_speculative_cap) {
    return false;
  }
  const auto started = job.oldest_attempt_start(id);
  if (!started) return false;
  if (jobtracker_.simulation().now() - *started < cfg.min_age_for_speculation) {
    return false;
  }
  if (job.checkpoint_shielded(id)) return false;
  return job.task_progress(id) < average - cfg.straggler_gap;
}

std::optional<TaskId> HadoopSpeculator::pick(Job& job, TaskType type,
                                             TaskTracker& tracker) {
  const double average = job.average_progress(type);
  // "Stragglers [are selected] according to the order in which they were
  // originally scheduled, except that for Map stragglers, priority will be
  // given to the ones with input data local to the requesting TaskTracker."
  //
  // Straggler status is tracker-independent, so the enumeration is memoized
  // per tick and only the per-tracker filters (placement, locality) run per
  // heartbeat.
  const auto& nn = jobtracker_.dfs().namenode();
  const sim::Time now = jobtracker_.simulation().now();
  Memo& memo = memo_[type_slot(type)][job.id()];
  if (!fresh(memo.key, job, now, job.sched_epoch())) {
    memo.stragglers.clear();
    job.for_each_running(type, [&](TaskId id) {
      if (is_straggler(job, id, average)) memo.stragglers.push_back(id);
      return true;
    });
    stamp(memo.key, job, now, job.sched_epoch());
  }
  const auto try_pass = [&](bool require_local) -> std::optional<TaskId> {
    for (TaskId id : memo.stragglers) {
      if (job.has_attempt_on(id, tracker.node_id())) continue;
      if (require_local) {
        const Task& t = job.task(id);
        if (type != TaskType::kMap || !nn.block_exists(t.input_block) ||
            !nn.block(t.input_block).has_replica_on(tracker.node_id())) {
          continue;
        }
      }
      return id;
    }
    return std::nullopt;
  };
  if (type == TaskType::kMap) {
    if (auto local = try_pass(true)) return local;
  }
  return try_pass(false);
}

// ---- LATE (OSDI'08) --------------------------------------------------------

double LateSpeculator::progress_rate(Job& job, TaskId task) const {
  const auto started = job.oldest_attempt_start(task);
  if (!started) return 0.0;
  const double elapsed =
      sim::to_seconds(jobtracker_.simulation().now() - *started);
  if (elapsed <= 0.0) return 0.0;
  return job.task_progress(task) / elapsed;
}

double LateSpeculator::estimated_time_left(Job& job, TaskId task) const {
  const double rate = progress_rate(job, task);
  const double remaining = 1.0 - job.task_progress(task);
  if (rate <= 0.0) return std::numeric_limits<double>::infinity();
  return remaining / rate;
}

std::optional<TaskId> LateSpeculator::pick(Job& job, TaskType type,
                                           TaskTracker& tracker) {
  const auto& cfg = jobtracker_.config();
  // SpeculativeCap over total slots (LATE uses total, not free, slots).
  const int cap = static_cast<int>(
      std::floor(cfg.late_cap_fraction *
                 static_cast<double>(jobtracker_.available_execution_slots())));
  if (job.running_speculative() >= cap) return std::nullopt;

  // Collect running candidates and their progress rates. Rates and every
  // tracker-independent filter are memoized per tick; the placement filter
  // below runs per pick.
  using Candidate = Memo::Candidate;
  Memo& memo = memo_[type_slot(type)][job.id()];
  const sim::Time now = jobtracker_.simulation().now();
  if (!fresh(memo.key, job, now, job.sched_epoch())) {
    memo.rates.clear();
    memo.candidates.clear();
    job.for_each_running(type, [&](TaskId id) {
      memo.rates.push_back(progress_rate(job, id));
      if (job.non_terminal_attempts(id) >= 1 + cfg.per_task_speculative_cap) {
        return true;
      }
      if (job.checkpoint_shielded(id)) return true;
      const auto started = job.oldest_attempt_start(id);
      if (!started || now - *started < cfg.min_age_for_speculation) {
        return true;
      }
      memo.candidates.push_back(
          Candidate{id, memo.rates.back(), estimated_time_left(job, id)});
      return true;
    });
    stamp(memo.key, job, now, job.sched_epoch());
  }
  if (memo.candidates.empty() || memo.rates.empty()) return std::nullopt;

  std::vector<Candidate> candidates;
  candidates.reserve(memo.candidates.size());
  for (const Candidate& c : memo.candidates) {
    if (!job.has_attempt_on(c.id, tracker.node_id())) candidates.push_back(c);
  }
  if (candidates.empty()) return std::nullopt;

  // SlowTaskThreshold: only tasks below the rate percentile qualify.
  const double threshold =
      percentile(memo.rates, cfg.late_slow_task_percentile);
  std::erase_if(candidates,
                [threshold](const Candidate& c) { return c.rate > threshold; });
  if (candidates.empty()) return std::nullopt;

  // Longest approximate time to end first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.time_left > b.time_left;
            });
  return candidates.front().id;
}

// ---- MOON (§V) ------------------------------------------------------------

template <typename Enumerate>
std::vector<TaskId> MoonSpeculator::memoized_list(Job& job, ListMemo& memo,
                                                  Enumerate&& enumerate,
                                                  int slots) {
  const sim::Time now = jobtracker_.simulation().now();
  if (!fresh(memo.key, job, now, job.sched_epoch(), slots)) {
    memo.list.clear();
    enumerate(memo.list);
    stamp(memo.key, job, now, job.sched_epoch(), slots);
  }
  return memo.list;
}

bool MoonSpeculator::in_homestretch(const Job& job) const {
  const auto& cfg = jobtracker_.config();
  const double threshold =
      cfg.homestretch_fraction *
      static_cast<double>(jobtracker_.available_execution_slots());
  return static_cast<double>(job.remaining_tasks()) < threshold;
}

std::optional<TaskId> MoonSpeculator::pick(Job& job, TaskType type,
                                           TaskTracker& tracker) {
  const auto& cfg = jobtracker_.config();

  if (cfg.hybrid_aware && tracker.dedicated()) {
    // §V-C best-effort backups: a dedicated node with an empty slot takes a
    // speculative copy of any remaining task (frozen-first, lowest progress
    // first), exempt from the volunteer-side cap — using otherwise idle,
    // reliable CPU is exactly the point of the dedicated tier.
    if (auto task = pick_dedicated_backup(job, type, tracker)) return task;
    return std::nullopt;
  }

  // Global cap: "no more speculative tasks will be issued if the concurrent
  // number of speculative tasks of a job is above a percentage of the total
  // currently available execution slots" (20 %).
  const int cap = static_cast<int>(
      std::floor(cfg.speculative_slot_fraction *
                 static_cast<double>(jobtracker_.available_execution_slots())));
  if (job.running_speculative() >= cap) return std::nullopt;

  if (auto frozen = pick_frozen(job, type, tracker)) return frozen;
  if (auto slow = pick_slow(job, type, tracker)) return slow;
  if (in_homestretch(job)) {
    if (auto task = pick_homestretch(job, type, tracker)) return task;
  }
  return std::nullopt;
}

std::optional<TaskId> MoonSpeculator::pick_dedicated_backup(Job& job,
                                                            TaskType type,
                                                            TaskTracker& tracker) {
  // Candidates are "prioritized in a similar way as done in task
  // replication on the volunteer computers": a task qualifies if it is
  // frozen, a slow straggler, or under-replicated during the homestretch —
  // not merely running. A task that already has one dedicated copy never
  // receives a second ("tasks with a dedicated speculative copy are given
  // lower priority in receiving additional task replicas").
  const auto& cfg = jobtracker_.config();
  const double average = job.average_progress(type);
  const bool homestretch = in_homestretch(job);
  const sim::Time now = jobtracker_.simulation().now();

  const auto enumerate = [&](std::vector<TaskId>& out) {
    job.for_each_running(type, [&](TaskId id) {
      if (job.has_active_dedicated_attempt(id)) return true;

      const bool frozen = job.active_attempts(id) == 0;
      // A frozen task still deserves rescue, but one whose live attempt just
      // resumed near-complete from a checkpoint does not need more copies.
      if (!frozen && job.checkpoint_shielded(id)) return true;
      bool slow = false;
      if (!frozen) {
        const auto started = job.oldest_attempt_start(id);
        slow = started && (now - *started >= cfg.min_age_for_speculation) &&
               job.task_progress(id) < average - cfg.straggler_gap;
      }
      const bool stretch =
          homestretch && job.active_attempts(id) < cfg.homestretch_copies;
      if (frozen || slow || stretch) out.push_back(id);
      return true;
    });
  };
  // The stretch disjunct reads the live-slot total (through `homestretch`),
  // which can move without a job epoch bump — key the memo on it too.
  std::vector<TaskId> candidates =
      memoized_list(job, memos_[type_slot(type)][job.id()].dedicated, enumerate,
                    jobtracker_.available_execution_slots());
  std::erase_if(candidates, [&](TaskId id) {
    return job.has_attempt_on(id, tracker.node_id());
  });
  if (candidates.empty()) return std::nullopt;
  std::sort(candidates.begin(), candidates.end(), [&](TaskId a, TaskId b) {
    const bool fa = job.active_attempts(a) == 0;  // frozen first
    const bool fb = job.active_attempts(b) == 0;
    if (fa != fb) return fa;
    return job.task_progress(a) < job.task_progress(b);
  });
  return candidates.front();
}

std::optional<TaskId> MoonSpeculator::pick_frozen(Job& job, TaskType type,
                                                  TaskTracker& tracker) {
  // Frozen: >= 1 copy, all of them inactive. "A speculative copy will be
  // issued to a frozen task regardless of the number of its copies."
  const auto enumerate = [&](std::vector<TaskId>& out) {
    job.for_each_running(type, [&](TaskId id) {
      if (job.active_attempts(id) > 0) return true;
      if (job.non_terminal_attempts(id) == 0) return true;
      out.push_back(id);
      return true;
    });
  };
  std::vector<TaskId> frozen =
      memoized_list(job, memos_[type_slot(type)][job.id()].frozen, enumerate);
  std::erase_if(frozen, [&](TaskId id) {
    return job.has_attempt_on(id, tracker.node_id());
  });
  if (frozen.empty()) return std::nullopt;
  // "Tasks are sorted by the progress made thus far, with lower progress
  // ranked higher."
  std::sort(frozen.begin(), frozen.end(), [&](TaskId a, TaskId b) {
    return job.task_progress(a) < job.task_progress(b);
  });
  return frozen.front();
}

std::optional<TaskId> MoonSpeculator::pick_slow(Job& job, TaskType type,
                                                TaskTracker& tracker) {
  const auto& cfg = jobtracker_.config();
  const double average = job.average_progress(type);
  const auto enumerate = [&](std::vector<TaskId>& out) {
    job.for_each_running(type, [&](TaskId id) {
      if (job.active_attempts(id) == 0) return true;  // frozen, not slow
      if (job.non_terminal_attempts(id) >= 1 + cfg.per_task_speculative_cap) {
        return true;
      }
      if (job.checkpoint_shielded(id)) return true;
      // Hybrid: a live dedicated copy is backup enough (§V-C).
      if (cfg.hybrid_aware && job.has_active_dedicated_attempt(id)) return true;
      const auto started = job.oldest_attempt_start(id);
      if (!started) return true;
      if (jobtracker_.simulation().now() - *started <
          cfg.min_age_for_speculation) {
        return true;
      }
      if (job.task_progress(id) >= average - cfg.straggler_gap) return true;
      out.push_back(id);
      return true;
    });
  };
  std::vector<TaskId> slow =
      memoized_list(job, memos_[type_slot(type)][job.id()].slow, enumerate);
  std::erase_if(slow, [&](TaskId id) {
    return job.has_attempt_on(id, tracker.node_id());
  });
  if (slow.empty()) return std::nullopt;
  std::sort(slow.begin(), slow.end(), [&](TaskId a, TaskId b) {
    return job.task_progress(a) < job.task_progress(b);
  });
  return slow.front();
}

std::optional<TaskId> MoonSpeculator::pick_homestretch(Job& job, TaskType type,
                                                       TaskTracker& tracker) {
  const auto& cfg = jobtracker_.config();
  // "During the homestretch phase, MOON attempts to maintain at least R
  // active copies of any remaining task regardless of the task progress."
  const auto enumerate = [&](std::vector<TaskId>& out) {
    job.for_each_running(type, [&](TaskId id) {
      if (job.active_attempts(id) >= cfg.homestretch_copies) return true;
      if (job.checkpoint_shielded(id)) return true;
      // "Tasks that already have a dedicated copy do not participate [in]
      // the homestretch phase."
      if (cfg.hybrid_aware && job.has_active_dedicated_attempt(id)) return true;
      out.push_back(id);
      return true;
    });
  };
  std::vector<TaskId> candidates = memoized_list(
      job, memos_[type_slot(type)][job.id()].homestretch, enumerate);
  std::erase_if(candidates, [&](TaskId id) {
    return job.has_attempt_on(id, tracker.node_id());
  });
  if (candidates.empty()) return std::nullopt;
  std::sort(candidates.begin(), candidates.end(), [&](TaskId a, TaskId b) {
    const int ca = job.active_attempts(a);
    const int cb = job.active_attempts(b);
    if (ca != cb) return ca < cb;  // fewest live copies first
    return job.task_progress(a) < job.task_progress(b);
  });
  return candidates.front();
}

}  // namespace moon::mapred
