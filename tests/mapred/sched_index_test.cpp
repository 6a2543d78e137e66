// Scheduler-index maintenance edge cases: failure -> re-pending
// re-insertion ordering, replica add/loss updating the locality buckets
// mid-job, counter aggregates (running-speculative, live slots) staying
// exact across tracker suspension/expiry churn, index sizes tracking task
// state transitions, and the bucket-backed pending pick agreeing with the
// full-scan ranking reference (testing::scan_pick_pending) under churn.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "mapred/jobtracker.hpp"
#include "mapred_fixture.hpp"

namespace moon::mapred {
namespace {

using testing::FixtureOptions;
using testing::MapRedHarness;

FixtureOptions small_moon() {
  FixtureOptions opt;
  opt.sched = testing::moon_sched();
  opt.volatile_nodes = 3;
  opt.dedicated_nodes = 1;
  opt.num_maps = 6;
  opt.num_reduces = 2;
  return opt;
}

/// Recomputes the running-speculative count from first principles (public
/// attempt records), independent of both the counter and the scan.
int recount_running_speculative(Job& job) {
  int n = 0;
  for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
    for (TaskId id : job.tasks_of(type)) {
      for (AttemptId a : job.task(id).attempts) {
        TaskAttempt* attempt = job.attempt(a);
        if (attempt != nullptr && attempt->state() == AttemptState::kRunning &&
            attempt->speculative()) {
          ++n;
        }
      }
    }
  }
  return n;
}

int recount_live_slots(JobTracker& jt) {
  int slots = 0;
  for (TaskTracker* t : jt.trackers()) {
    if (jt.tracker_state(t->node_id()) == TrackerState::kLive) {
      slots += t->map_slots() + t->reduce_slots();
    }
  }
  return slots;
}

TEST(SchedIndex, PendingIndicesTrackSubmissionAndLaunch) {
  FixtureOptions opt = small_moon();
  opt.map_compute = 2 * sim::kMinute;  // maps still running at the probe
  MapRedHarness h(opt);
  h.submit();
  // Before any heartbeat fires, everything is pending and indexed.
  EXPECT_EQ(h.job().pending_index_size(TaskType::kMap), 6u);
  EXPECT_EQ(h.job().pending_index_size(TaskType::kReduce), 2u);
  EXPECT_EQ(h.job().running_index_size(TaskType::kMap), 0u);
  h.advance(30 * sim::kSecond);  // heartbeats placed work
  EXPECT_LT(h.job().pending_index_size(TaskType::kMap), 6u);
  EXPECT_GT(h.job().running_index_size(TaskType::kMap), 0u);
  ASSERT_TRUE(h.run_to_completion());
  EXPECT_EQ(h.job().pending_index_size(TaskType::kMap), 0u);
  EXPECT_EQ(h.job().running_index_size(TaskType::kMap), 0u);
  EXPECT_EQ(h.job().pending_index_size(TaskType::kReduce), 0u);
}

TEST(SchedIndex, RevertedMapReinsertsWithFailedPriority) {
  // A reverted completed map re-enters the pending index in the failed
  // class: it is handed out before untouched fresh tasks, exactly as the
  // full-scan ranking reference picks.
  FixtureOptions opt = small_moon();
  opt.num_maps = 8;
  opt.volatile_nodes = 2;
  opt.dedicated_nodes = 0;
  opt.map_compute = 30 * sim::kSecond;
  MapRedHarness h(opt);
  h.submit();
  // Let some maps complete while others are still pending-fresh.
  Job& job = h.job();
  while (job.completed_tasks(TaskType::kMap) < 2 &&
         h.sim().now() < sim::hours(1)) {
    h.advance(5 * sim::kSecond);
  }
  ASSERT_GE(job.completed_tasks(TaskType::kMap), 2);
  ASSERT_GT(job.pending_index_size(TaskType::kMap) +
                job.running_index_size(TaskType::kMap),
            0u);
  TaskId reverted = TaskId::invalid();
  for (TaskId id : job.tasks_of(TaskType::kMap)) {
    if (job.task(id).state == TaskState::kCompleted) {
      reverted = id;
      break;
    }
  }
  ASSERT_TRUE(reverted.valid());
  job.revert_map(reverted);
  EXPECT_EQ(job.task(reverted).state, TaskState::kPending);
  EXPECT_GT(job.task(reverted).failures, 0);
  // The failed-first ranking puts the reverted map ahead of every fresh
  // pending task, from any tracker.
  for (TaskTracker* t : h.jobtracker().trackers()) {
    const auto choice = job.pick_pending(TaskType::kMap, *t);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(*choice, reverted);
    EXPECT_EQ(choice, testing::scan_pick_pending(job, TaskType::kMap, *t));
  }
}

TEST(SchedIndex, PickPendingMatchesScanRankingUnderChurn) {
  // A churned MOON run: volatile nodes flip down and back up, suspending
  // and (past the shortened expiry) killing attempts; maps are reverted
  // mid-run so the failed class is populated. At sampled instants the
  // bucket pick must equal the full-scan ranking for every tracker and both
  // task types.
  FixtureOptions opt = small_moon();
  opt.sched.tracker_expiry = 3 * sim::kMinute;
  opt.volatile_nodes = 6;
  opt.dedicated_nodes = 2;
  opt.num_maps = 48;  // more maps than slots: pending maps outlive a wave
  opt.num_reduces = 4;
  opt.map_compute = 60 * sim::kSecond;
  opt.reduce_compute = 60 * sim::kSecond;
  MapRedHarness h(opt);
  h.submit();
  Job& job = h.job();
  Rng rng{20100621};
  int compared = 0;      // (tracker, type) pairs with something pending
  int failed_class = 0;  // ... whose pick was a recently failed task
  int locality_split = 0;  // map samples where trackers got different picks
  for (int step = 0; step < 240 && !job.finished(); ++step) {
    h.advance(10 * sim::kSecond);
    if (step % 6 == 0) {
      const auto last = static_cast<std::int64_t>(h.volatile_ids.size()) - 1;
      const NodeId victim =
          h.volatile_ids[static_cast<std::size_t>(rng.uniform_int(0, last))];
      const bool up = h.cluster().node(victim).available();
      h.set_node_available(victim, !up);
    }
    if (step % 9 == 4) {
      for (TaskId id : job.tasks_of(TaskType::kMap)) {
        if (job.task(id).state == TaskState::kCompleted) {
          job.revert_map(id);
          break;
        }
      }
    }
    for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
      std::set<TaskId> picks;
      for (TaskTracker* t : h.jobtracker().trackers()) {
        const auto got = job.pick_pending(type, *t);
        EXPECT_EQ(got, testing::scan_pick_pending(job, type, *t))
            << "t=" << h.sim().now() << " node " << t->node_id() << ' '
            << to_string(type);
        if (!got) continue;
        ++compared;
        picks.insert(*got);
        if (job.task(*got).failures > 0) ++failed_class;
      }
      if (picks.size() > 1) ++locality_split;
    }
  }
  for (NodeId n : h.volatile_ids) h.set_node_available(n, true);
  EXPECT_TRUE(h.run_to_completion(sim::hours(8)));
  // Not vacuous: picks were made, the failed class and locality both
  // decided some of them.
  EXPECT_GT(compared, 0);
  EXPECT_GT(failed_class, 0);
  EXPECT_GT(locality_split, 0);
}

TEST(SchedIndex, ReplicaChurnUpdatesLocalityBuckets) {
  MapRedHarness h(small_moon());
  h.submit();
  auto& nn = h.dfs().namenode();
  Job& job = h.job();

  // Pick a pending map and one of its replica holders.
  const TaskId map0 = job.tasks_of(TaskType::kMap)[0];
  const BlockId input = job.task(map0).input_block;
  ASSERT_TRUE(nn.block_exists(input));
  ASSERT_FALSE(nn.block(input).replicas.empty());
  const NodeId holder = nn.block(input).replicas.front();
  const std::size_t before = job.locality_bucket_size(holder);
  ASSERT_GT(before, 0u);

  // Replica loss mid-job invalidates the bucket entry...
  nn.drop_replica(input, holder);
  EXPECT_EQ(job.locality_bucket_size(holder), before - 1);
  // ...and the bucket pick still agrees with the scan ranking from that
  // node's tracker.
  TaskTracker* tracker = nullptr;
  for (TaskTracker* t : h.jobtracker().trackers()) {
    if (t->node_id() == holder) tracker = t;
  }
  ASSERT_NE(tracker, nullptr);
  const auto indexed_choice = job.pick_pending(TaskType::kMap, *tracker);
  ASSERT_TRUE(indexed_choice.has_value());
  EXPECT_EQ(indexed_choice,
            testing::scan_pick_pending(job, TaskType::kMap, *tracker));
  // Re-add the replica: the bucket entry returns and locality preference
  // snaps back to map0 (lowest schedule order among local candidates).
  nn.commit_replica(input, holder);
  EXPECT_EQ(job.locality_bucket_size(holder), before);
  const auto restored = job.pick_pending(TaskType::kMap, *tracker);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, map0);
}

TEST(SchedIndex, SpeculativeCounterSurvivesSuspensionChurn) {
  // set_inactive flips attempts kRunning <-> kInactive on suspension and
  // recovery; the maintained counter must track the recount exactly.
  FixtureOptions opt = small_moon();
  opt.map_compute = 8 * sim::kMinute;
  opt.num_maps = 4;
  opt.num_reduces = 1;
  MapRedHarness h(opt);
  h.submit();
  h.advance(30 * sim::kSecond);
  h.set_node_available(h.volatile_ids[0], false);
  h.advance(2 * sim::kMinute);  // suspension detected, frozen rescue runs
  EXPECT_EQ(h.job().running_speculative(),
            recount_running_speculative(h.job()));
  h.set_node_available(h.volatile_ids[0], true);
  h.advance(2 * sim::kMinute);  // reactivation flips attempts back
  EXPECT_EQ(h.job().running_speculative(),
            recount_running_speculative(h.job()));
  h.set_node_available(h.volatile_ids[1], false);
  h.advance(40 * sim::kMinute);  // expiry kills the hosted attempts
  EXPECT_EQ(h.job().running_speculative(),
            recount_running_speculative(h.job()));
}

TEST(SchedIndex, SlotCountersTrackSuspensionAndExpiry) {
  FixtureOptions opt = small_moon();
  opt.map_compute = 8 * sim::kMinute;
  MapRedHarness h(opt);
  h.submit();
  JobTracker& jt = h.jobtracker();
  const int full = recount_live_slots(jt);
  EXPECT_EQ(jt.available_execution_slots(), full);

  h.advance(20 * sim::kSecond);
  h.set_node_available(h.volatile_ids[0], false);
  h.advance(2 * sim::kMinute);  // > SuspensionInterval
  EXPECT_EQ(jt.tracker_state(h.volatile_ids[0]), TrackerState::kSuspended);
  EXPECT_EQ(jt.available_execution_slots(), recount_live_slots(jt));
  EXPECT_LT(jt.available_execution_slots(), full);

  h.advance(40 * sim::kMinute);  // > TrackerExpiryInterval
  EXPECT_EQ(jt.tracker_state(h.volatile_ids[0]), TrackerState::kDead);
  EXPECT_EQ(jt.available_execution_slots(), recount_live_slots(jt));

  h.set_node_available(h.volatile_ids[0], true);
  h.advance(30 * sim::kSecond);  // heartbeat revives the tracker
  EXPECT_EQ(jt.tracker_state(h.volatile_ids[0]), TrackerState::kLive);
  EXPECT_EQ(jt.available_execution_slots(), full);
  EXPECT_EQ(jt.total_slots(TaskType::kMap) + jt.total_slots(TaskType::kReduce),
            full);
}

/// Recomputes the checkpoint shield from public attempt records, bypassing
/// the live-attempt cache the scheduling hot path reads.
bool recount_shielded(Job& job, TaskId id) {
  const auto& policy = job.jobtracker().checkpoint_policy();
  if (!policy.config().enabled) return false;
  for (AttemptId a : job.task(id).attempts) {
    TaskAttempt* attempt = job.attempt(a);
    if (attempt != nullptr && attempt->state() == AttemptState::kRunning &&
        attempt->resumed() &&
        policy.shields_speculation(attempt->progress())) {
      return true;
    }
  }
  return false;
}

TEST(SchedIndex, CheckpointShieldedTaskExcludedFromSpeculation) {
  // A reduce resumed near-complete from a checkpoint must not collect
  // backup copies through the indexed speculation path: the cache-backed
  // shield must agree with a from-scratch recount for the whole run, and
  // once shielded the task gains no further speculative attempts.
  FixtureOptions opt;
  opt.sched = testing::moon_sched();
  opt.sched.checkpoint.enabled = true;
  opt.sched.checkpoint.scan_interval = 30 * sim::kSecond;
  opt.sched.checkpoint.min_progress_delta = 0.02;
  opt.sched.checkpoint.factor = {0, 2};
  opt.sched.min_age_for_speculation = 30 * sim::kSecond;
  opt.volatile_nodes = 4;
  opt.dedicated_nodes = 0;
  opt.num_maps = 1;
  opt.num_reduces = 1;
  opt.map_compute = 5 * sim::kSecond;
  opt.reduce_compute = 10 * sim::kMinute;
  opt.intermediate_per_map = kMiB;
  opt.output_per_reduce = kMiB;
  opt.input_factor = {0, 3};
  MapRedHarness h(opt);
  h.submit();
  // Let the reduce get deep into its compute and commit checkpoints, then
  // kill its host for good: the relocated attempt resumes from the log.
  h.advance(5 * sim::kMinute);
  Job& job = h.job();
  const TaskId reduce = job.tasks_of(TaskType::kReduce).front();
  TaskAttempt* attempt = nullptr;
  for (AttemptId a : job.task(reduce).attempts) {
    if (job.attempt(a) != nullptr && !job.attempt(a)->terminal()) {
      attempt = job.attempt(a);
    }
  }
  ASSERT_NE(attempt, nullptr);
  h.set_node_available(attempt->tracker().node_id(), false);

  bool ever_shielded = false;
  int spec_launches_while_shielded = 0;
  int last_spec = job.metrics().speculative_attempts;
  for (int step = 0; step < 600 && !job.finished(); ++step) {
    h.advance(10 * sim::kSecond);
    const bool shielded = job.checkpoint_shielded(reduce);
    EXPECT_EQ(shielded, recount_shielded(job, reduce))
        << "cache-backed shield diverged from recount at step " << step;
    const int spec = job.metrics().speculative_attempts;
    if (shielded && spec > last_spec &&
        job.task(reduce).state == TaskState::kRunning) {
      // New speculative launches while the reduce is shielded may target
      // other tasks, but not the shielded reduce (unless it froze).
      for (AttemptId a : job.task(reduce).attempts) {
        TaskAttempt* sp = job.attempt(a);
        if (sp != nullptr && sp->speculative() && !sp->terminal() &&
            sp->started_at() + 10 * sim::kSecond >= h.sim().now() &&
            job.active_attempts(reduce) > 0) {
          ++spec_launches_while_shielded;
        }
      }
    }
    ever_shielded = ever_shielded || shielded;
    last_spec = spec;
  }
  EXPECT_TRUE(ever_shielded) << "resume never engaged the shield";
  EXPECT_EQ(spec_launches_while_shielded, 0);
  ASSERT_TRUE(h.run_to_completion(sim::hours(8)));
  EXPECT_GE(job.metrics().checkpoint_resumes, 1);
  // A completed job retains nothing in any scheduling index.
  for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
    EXPECT_EQ(h.job().running_index_size(type), 0u);
    EXPECT_EQ(h.job().pending_index_size(type), 0u);
  }
  EXPECT_EQ(h.job().running_speculative(), 0);
}

}  // namespace
}  // namespace moon::mapred
