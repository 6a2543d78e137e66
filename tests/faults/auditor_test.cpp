// moon::audit::Auditor: clean stacks audit clean (mid-run, at rest and
// under churn), and every kind of deliberately broken invariant is reported
// with its exact message — proving the sweep is not vacuously green and that
// each clean-pass test hands every discrepancy to its report walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>

#include "../mapred/mapred_fixture.hpp"
#include "audit/auditor.hpp"
#include "simkit/profiler.hpp"

namespace moon::audit {

void PrintTo(const Violation& v, std::ostream* os) {
  *os << v.invariant << ": " << v.detail;
}

namespace {

using mapred::testing::FixtureOptions;
using mapred::testing::MapRedHarness;

FixtureOptions busy_opts() {
  FixtureOptions opts;
  opts.volatile_nodes = 4;
  opts.dedicated_nodes = 1;
  opts.sched = mapred::testing::moon_sched();
  opts.sched.checkpoint.enabled = true;
  opts.sched.checkpoint.scan_interval = 30 * sim::kSecond;
  opts.sched.checkpoint.min_progress_delta = 0.01;
  opts.sched.checkpoint.factor = {1, 1};
  opts.num_maps = 6;
  opts.num_reduces = 2;
  opts.reduce_compute = 120 * sim::kSecond;
  return opts;
}

std::string str(NodeId n) { return std::to_string(n.value()); }
std::string str(BlockId b) { return std::to_string(b.value()); }

std::string str(TaskId t) { return std::to_string(t.value()); }
std::string str(JobId j) { return std::to_string(j.value()); }
std::string str(AttemptId a) { return std::to_string(a.value()); }

Violation dfs_violation(std::string detail) {
  return {"dfs.replica-consistency", std::move(detail)};
}

Violation sched_violation(const mapred::Job& job, const std::string& detail) {
  return {"mapred.sched-index", "job " + str(job.id()) + " " + detail};
}

/// A task's pending-index key as the report prints it.
std::string key_str(const mapred::Task& t) {
  return "(class " + std::to_string(t.failures > 0 ? 0 : 1) + ", order " +
         std::to_string(t.schedule_order) + ")";
}

// Test-only write access to the NameNode's auditor views: real code cannot
// reach these states, which is exactly why the auditor must catch them.
dfs::BlockMeta& meta_of(dfs::NameNode& nn, BlockId b) {
  return const_cast<std::unordered_map<BlockId, dfs::BlockMeta>&>(
             nn.all_blocks())
      .at(b);
}

/// A staged (no job submitted) stack plus the lowest-id input block, one of
/// its replica holders, and a registered node that holds no replica of it.
struct DfsCase {
  MapRedHarness h{busy_opts()};
  dfs::NameNode& nn = h.dfs().namenode();
  BlockId block = BlockId::invalid();
  NodeId holder = NodeId::invalid();
  NodeId outsider = NodeId::invalid();

  DfsCase() {
    for (const auto& [id, meta] : nn.all_blocks()) {
      if (!block.valid() || id < block) block = id;
    }
    const auto& reps = nn.block(block).replicas;
    holder = reps.front();
    for (NodeId n : nn.datanodes()) {
      if (!outsider.valid() && !nn.block(block).has_replica_on(n)) outsider = n;
    }
  }

  std::vector<Violation> audit() {
    Auditor auditor(&h.dfs(), nullptr);
    return auditor.run();
  }
};

TEST(Auditor, CleanStackAuditsCleanMidRunAndAtRest) {
  MapRedHarness h(busy_opts());
  h.submit();
  Auditor auditor(&h.dfs(), &h.jobtracker());

  // Sweep repeatedly while the job runs — every event boundary must hold
  // the invariants, including with churn in the middle.
  int sweeps = 0;
  bool churned = false;
  while (!h.job().finished() && h.sim().now() < 2 * sim::kHour) {
    h.advance(60 * sim::kSecond);
    if (!churned && h.sim().now() >= 20 * sim::kMinute) {
      churned = true;
      h.set_node_available(h.volatile_ids[0], false);
    }
    EXPECT_TRUE(auditor.run().empty()) << "at t=" << h.sim().now();
    ++sweeps;
  }
  EXPECT_TRUE(h.job().metrics().completed);
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.violations_total(), 0);
  EXPECT_EQ(auditor.passes(), sweeps + 1);
  // Every pass is metered under its own profiler key.
  EXPECT_EQ(h.sim().profiler().counter(sim::Profiler::Key::kAudit).calls,
            static_cast<std::uint64_t>(auditor.passes()));
}

TEST(Auditor, StagedStackAuditsClean) {
  DfsCase c;
  ASSERT_TRUE(c.block.valid());
  ASSERT_TRUE(c.outsider.valid());
  EXPECT_TRUE(c.audit().empty());
}

TEST(Auditor, ReportsDuplicateReplica) {
  DfsCase c;
  meta_of(c.nn, c.block).replicas.push_back(c.holder);
  EXPECT_EQ(c.audit(),
            std::vector<Violation>{dfs_violation(
                "block " + str(c.block) + " lists node " + str(c.holder) +
                " twice")});
}

TEST(Auditor, ReportsReplicaMissingFromReverseIndex) {
  DfsCase c;
  // Land the bytes (which commits the replica), then drop only the NameNode
  // side: the DataNode keeps a stale copy, as after a file delete.
  c.h.dfs().datanode(c.outsider).store_block(c.block, kKiB);
  c.nn.drop_replica(c.block, c.outsider);
  ASSERT_TRUE(c.audit().empty());
  meta_of(c.nn, c.block).replicas.push_back(c.outsider);
  EXPECT_EQ(c.audit(), std::vector<Violation>{dfs_violation(
                           "block " + str(c.block) + " replica on node " +
                           str(c.outsider) + " missing from reverse index")});
}

TEST(Auditor, DetectsPhantomReplica) {
  MapRedHarness h(busy_opts());
  h.submit();
  h.advance(2 * sim::kMinute);
  Auditor auditor(&h.dfs(), &h.jobtracker());
  ASSERT_TRUE(auditor.run().empty());

  // Corrupt the metadata on purpose, mid-run: register a replica on a node
  // that holds no bytes for it. (Real code can't reach this state — commit
  // only happens after a physical store.)
  auto& nn = h.dfs().namenode();
  BlockId victim = BlockId::invalid();
  for (const auto& [id, meta] : nn.all_blocks()) {
    if (!victim.valid() || id < victim) victim = id;
  }
  NodeId phantom = NodeId::invalid();
  for (NodeId n : h.volatile_ids) {
    if (!nn.block(victim).has_replica_on(n) &&
        !h.dfs().datanode(n).stores(victim)) {
      phantom = n;
      break;
    }
  }
  ASSERT_TRUE(phantom.valid());
  nn.commit_replica(victim, phantom);

  const std::vector<Violation> expected = {
      dfs_violation("block " + str(victim) + " replica on node " +
                    str(phantom) + " not physically stored")};
  EXPECT_EQ(auditor.run(), expected);
  EXPECT_EQ(auditor.violations_total(),
            static_cast<std::int64_t>(expected.size()));
  // The counter accumulates across passes that find violations.
  EXPECT_EQ(auditor.run(), expected);
  EXPECT_EQ(auditor.violations_total(),
            static_cast<std::int64_t>(2 * expected.size()));
  EXPECT_EQ(auditor.passes(), 3);
}

TEST(Auditor, ReportsReverseEntryOfDeletedBlock) {
  DfsCase c;
  const std::vector<NodeId> holders = c.nn.block(c.block).replicas;
  const_cast<std::unordered_map<BlockId, dfs::BlockMeta>&>(c.nn.all_blocks())
      .erase(c.block);
  std::vector<Violation> expected;
  for (NodeId n : holders) {
    expected.push_back(dfs_violation("reverse index holds deleted block " +
                                     str(c.block) + " on node " + str(n)));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, ReportsReverseEntryAbsentFromReplicaList) {
  DfsCase c;
  auto& reps = meta_of(c.nn, c.block).replicas;
  reps.erase(std::find(reps.begin(), reps.end(), c.holder));
  EXPECT_EQ(c.audit(),
            std::vector<Violation>{dfs_violation(
                "reverse index lists block " + str(c.block) + " on node " +
                str(c.holder) + " absent from the block's replica list")});
}

TEST(Auditor, ReportsReplicaOnNodeWithoutDataNode) {
  DfsCase c;
  const NodeId ghost{c.h.cluster().size() + 7};
  c.nn.commit_replica(c.block, ghost);
  EXPECT_EQ(c.audit(), std::vector<Violation>{dfs_violation(
                           "block " + str(c.block) + " replica on node " +
                           str(ghost) + " which hosts no DataNode")});
}

TEST(Auditor, EqualPairCountsWithDifferentPairsStillReport) {
  DfsCase c;
  // Move one replica-list entry from holder to outsider: |forward| and
  // |reverse| stay equal, but the pair sets differ.
  auto& reps = meta_of(c.nn, c.block).replicas;
  *std::find(reps.begin(), reps.end(), c.holder) = c.outsider;
  std::vector<Violation> expected = {
      dfs_violation("block " + str(c.block) + " replica on node " +
                    str(c.outsider) + " missing from reverse index"),
      dfs_violation("block " + str(c.block) + " replica on node " +
                    str(c.outsider) + " not physically stored"),
      dfs_violation("reverse index lists block " + str(c.block) + " on node " +
                    str(c.holder) + " absent from the block's replica list"),
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, ReportsPendingTaskWithLiveAttempts) {
  MapRedHarness h(busy_opts());
  h.submit();
  h.advance(2 * sim::kMinute);
  Auditor auditor(nullptr, &h.jobtracker());
  ASSERT_TRUE(auditor.run().empty());

  TaskId victim = TaskId::invalid();
  for (TaskId tid : h.job().tasks_of(mapred::TaskType::kReduce)) {
    if (!h.job().task(tid).live_attempts.empty()) {
      victim = tid;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  const mapred::Task& t = h.job().task(victim);
  const_cast<mapred::Task&>(t).state = mapred::TaskState::kPending;
  // The scheduler indices still file the task as running.
  std::vector<Violation> expected = {
      {"mapred.task-attempts", "job " + std::to_string(h.job().id().value()) +
                                   " task " + std::to_string(victim.value()) +
                                   " pending with live attempts"},
      sched_violation(h.job(), "reduce pending index lacks task " +
                                   str(victim) + " " + key_str(t)),
      sched_violation(h.job(), "reduce running index holds stale order " +
                                   std::to_string(t.schedule_order)),
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(auditor.run(), expected);
}

// ---- mapred.sched-index ----------------------------------------------------
//
// Each case corrupts state the Job's index maintenance never sees — Task
// fields, the NameNode's replica table, a host's slot config — and asserts
// the exact sorted report.

/// A freshly submitted job (every task pending, no heartbeat yet) plus its
/// first map, that map's input block, one replica holder and a registered
/// node holding no replica of it.
struct PendingMapCase {
  MapRedHarness h{busy_opts()};
  dfs::NameNode& nn = h.dfs().namenode();
  mapred::Job* job = nullptr;
  TaskId map;
  BlockId block;
  NodeId holder = NodeId::invalid();
  NodeId outsider = NodeId::invalid();

  PendingMapCase() {
    h.submit();
    job = &h.job();
    map = job->tasks_of(mapred::TaskType::kMap).front();
    block = job->task(map).input_block;
    holder = nn.block(block).replicas.front();
    for (NodeId n : nn.datanodes()) {
      if (!outsider.valid() && !nn.block(block).has_replica_on(n)) outsider = n;
    }
  }

  mapred::Task& task() { return const_cast<mapred::Task&>(job->task(map)); }

  std::vector<Violation> audit() {
    Auditor auditor(nullptr, &h.jobtracker());
    return auditor.run();
  }
};

TEST(Auditor, SchedIndexReportsPendingMapMarkedRunning) {
  PendingMapCase c;
  const std::string key = key_str(c.task());
  c.task().state = mapred::TaskState::kRunning;
  std::vector<Violation> expected = {
      {"mapred.task-attempts",
       "job " + str(c.job->id()) + " task " + str(c.map) +
           " running with no live attempt"},
      sched_violation(*c.job, "map pending index holds stale entry " + key),
      sched_violation(*c.job, "map running index lacks task " + str(c.map)),
  };
  for (NodeId n : c.nn.block(c.block).replicas) {
    expected.push_back(sched_violation(
        *c.job, "locality bucket of node " + str(n) + " holds stale entry " +
                    key));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, SchedIndexReportsFailureCountBypassingTheIndex) {
  PendingMapCase c;
  const std::string fresh = key_str(c.task());
  ++c.task().failures;  // now ranks in the failed class, but was not re-keyed
  const std::string failed = key_str(c.task());
  std::vector<Violation> expected = {
      sched_violation(*c.job, "map pending index lacks task " + str(c.map) +
                                  " " + failed),
      sched_violation(*c.job, "map pending index holds stale entry " + fresh),
  };
  for (NodeId n : c.nn.block(c.block).replicas) {
    const std::string bucket = "locality bucket of node " + str(n);
    expected.push_back(sched_violation(
        *c.job, bucket + " lacks task " + str(c.map) + " " + failed));
    expected.push_back(
        sched_violation(*c.job, bucket + " holds stale entry " + fresh));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, SchedIndexReportsReplicaAddedBehindTheIndex) {
  PendingMapCase c;
  ASSERT_TRUE(c.outsider.valid());
  meta_of(c.nn, c.block).replicas.push_back(c.outsider);
  EXPECT_EQ(c.audit(),
            std::vector<Violation>{sched_violation(
                *c.job, "locality bucket of node " + str(c.outsider) +
                            " lacks task " + str(c.map) + " " +
                            key_str(c.task()))});
}

TEST(Auditor, SchedIndexEqualBucketCountsWithDifferentPairsStillReport) {
  PendingMapCase c;
  ASSERT_TRUE(c.outsider.valid());
  // Move one replica-list entry from holder to outsider: the number of
  // (node, task) locality pairs is unchanged, but the pairs differ.
  auto& reps = meta_of(c.nn, c.block).replicas;
  *std::find(reps.begin(), reps.end(), c.holder) = c.outsider;
  const std::string key = key_str(c.task());
  std::vector<Violation> expected = {
      sched_violation(*c.job, "locality bucket of node " + str(c.outsider) +
                                  " lacks task " + str(c.map) + " " + key),
      sched_violation(*c.job, "locality bucket of node " + str(c.holder) +
                                  " holds stale entry " + key),
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, SchedIndexReportsInputBlockDeletedBehindTheIndex) {
  PendingMapCase c;
  const std::vector<NodeId> holders = c.nn.block(c.block).replicas;
  const_cast<std::unordered_map<BlockId, dfs::BlockMeta>&>(c.nn.all_blocks())
      .erase(c.block);
  const std::string key = key_str(c.task());
  std::vector<Violation> expected;
  for (NodeId n : holders) {
    expected.push_back(sched_violation(
        *c.job, "locality bucket of node " + str(n) + " holds stale entry " +
                    key));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

/// A job two minutes in: maps done, reduces running with progress.
struct RunningCase {
  MapRedHarness h{busy_opts()};
  mapred::Job* job = nullptr;

  RunningCase() {
    h.submit();
    h.advance(2 * sim::kMinute);
    job = &h.job();
  }

  /// The first task of `type` in `state`, invalid if none.
  TaskId first(mapred::TaskType type, mapred::TaskState state) const {
    for (TaskId id : job->tasks_of(type)) {
      if (job->task(id).state == state) return id;
    }
    return TaskId::invalid();
  }

  mapred::Task& task(TaskId id) {
    return const_cast<mapred::Task&>(job->task(id));
  }

  std::vector<Violation> audit() {
    Auditor auditor(nullptr, &h.jobtracker());
    return auditor.run();
  }
};

Violation live_counter_violation(const mapred::Job& job, int kept, int sum) {
  return {"mapred.task-attempts",
          "job " + str(job.id()) + " live-attempt counter " +
              std::to_string(kept) + " != per-task sum " + std::to_string(sum)};
}

TEST(Auditor, SchedIndexReportsDroppedLiveAttemptAndStaleAverageMemo) {
  FixtureOptions opts = busy_opts();
  opts.map_compute = 2 * sim::kMinute;  // maps mid-compute at the probe
  MapRedHarness h(opts);
  h.submit();
  h.advance(sim::kMinute);
  mapred::Job& job = h.job();
  TaskId victim = TaskId::invalid();
  for (TaskId id : job.tasks_of(mapred::TaskType::kMap)) {
    if (job.task(id).live_attempts.size() == 1 && job.task_progress(id) > 0.0) {
      victim = id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  auto& live = const_cast<mapred::Task&>(job.task(victim)).live_attempts;
  const mapred::TaskAttempt* dropped = live.front();
  // Memoize the map average at this instant, then drop the task's only
  // copy without a scheduling-epoch bump: the memo is fresh but wrong.
  const double memo = job.average_progress(mapred::TaskType::kMap);
  live.clear();
  double fractions = 0.0;
  int completed = 0;
  int started = 0;
  for (TaskId id : job.tasks_of(mapred::TaskType::kMap)) {
    const mapred::Task& t = job.task(id);
    if (!t.attempts.empty()) ++started;
    if (t.state == mapred::TaskState::kCompleted) ++completed;
    if (t.state == mapred::TaskState::kRunning) {
      fractions += job.task_progress(id);
    }
  }
  const double recomputed = (completed + fractions) / started;
  ASSERT_NE(std::bit_cast<std::uint64_t>(memo),
            std::bit_cast<std::uint64_t>(recomputed));
  std::ostringstream values;
  values << std::hexfloat << memo << " != recomputed " << recomputed;

  const int kept = job.live_attempts();
  std::vector<Violation> expected = {
      live_counter_violation(job, kept, kept - 1),
      {"mapred.task-attempts", "job " + str(job.id()) + " task " +
                                   str(victim) +
                                   " running with no live attempt"},
      sched_violation(job, "task " + str(victim) + " live set lacks attempt " +
                               str(dropped->id())),
      sched_violation(job, "map average-progress memo " + values.str()),
  };
  std::sort(expected.begin(), expected.end());
  Auditor auditor(nullptr, &h.jobtracker());
  EXPECT_EQ(auditor.run(), expected);
}

TEST(Auditor, SchedIndexReportsDuplicatedLiveAttempt) {
  RunningCase c;
  const TaskId victim =
      c.first(mapred::TaskType::kReduce, mapred::TaskState::kRunning);
  ASSERT_TRUE(victim.valid());
  auto& live = c.task(victim).live_attempts;
  ASSERT_FALSE(live.empty());
  live.push_back(live.front());
  const int kept = c.job->live_attempts();
  std::vector<Violation> expected = {
      live_counter_violation(*c.job, kept, kept + 1),
      sched_violation(*c.job, "task " + str(victim) +
                                  " live set holds attempt " +
                                  str(live.front()->id()) +
                                  " that is not live in its attempt list"),
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, SchedIndexReportsCompletedAndStartedCounters) {
  RunningCase c;
  const TaskId done =
      c.first(mapred::TaskType::kMap, mapred::TaskState::kCompleted);
  ASSERT_TRUE(done.valid());
  const int completed = c.job->completed_tasks(mapred::TaskType::kMap);
  int started = 0;
  for (TaskId id : c.job->tasks_of(mapred::TaskType::kMap)) {
    if (!c.job->task(id).attempts.empty()) ++started;
  }
  // Un-complete one map behind the index's back and forget another's
  // launch history.
  c.task(done).state = mapred::TaskState::kRunning;
  TaskId forgotten = TaskId::invalid();
  for (TaskId id : c.job->tasks_of(mapred::TaskType::kMap)) {
    if (id != done && c.job->task(id).state == mapred::TaskState::kCompleted) {
      forgotten = id;
      break;
    }
  }
  ASSERT_TRUE(forgotten.valid());
  c.task(forgotten).attempts.clear();
  std::vector<Violation> expected = {
      {"mapred.task-attempts", "job " + str(c.job->id()) + " task " +
                                   str(done) + " running with no live attempt"},
      sched_violation(*c.job, "map running index lacks task " + str(done)),
      sched_violation(*c.job, "map completed counter " +
                                  std::to_string(completed) + " != recount " +
                                  std::to_string(completed - 1)),
      sched_violation(*c.job, "map ever-started counter " +
                                  std::to_string(started) + " != recount " +
                                  std::to_string(started - 1)),
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, SchedIndexReportsSlotAggregateDrift) {
  RunningCase c;
  mapred::JobTracker& jt = c.h.jobtracker();
  mapred::TaskTracker* tracker = jt.trackers().front();
  ASSERT_EQ(jt.tracker_state(tracker->node_id()), mapred::TrackerState::kLive);
  const int kept = jt.total_slots(mapred::TaskType::kMap);
  // Resize a live host's map slots without telling the JobTracker.
  ++const_cast<cluster::NodeConfig&>(tracker->host().config()).map_slots;
  const std::vector<Violation> expected = {
      {"mapred.sched-index", "jobtracker live map slots " +
                                 std::to_string(kept) + " != recount " +
                                 std::to_string(kept + 1)}};
  EXPECT_EQ(c.audit(), expected);
}

TEST(Auditor, SchedIndexCleanThroughChurnedMultiJobRun) {
  // Suspensions, expiries (short tracker expiry), map reverts and three
  // concurrent jobs: every index transition path runs, and every sweep —
  // the scheduler-index check included — stays clean.
  FixtureOptions opts = busy_opts();
  opts.sched.tracker_expiry = 3 * sim::kMinute;
  MapRedHarness h(opts);
  const std::vector<JobId> ids = {
      h.submit_job("a", 12, 2, 40 * sim::kSecond),
      h.submit_job("b", 8, 2, 60 * sim::kSecond),
      h.submit_job("c", 4, 1, 20 * sim::kSecond)};
  Auditor auditor(&h.dfs(), &h.jobtracker());
  int sweeps = 0;
  for (int step = 0; step < 120; ++step) {
    h.advance(15 * sim::kSecond);
    if (step % 4 == 0) {
      const NodeId n = h.volatile_ids[static_cast<std::size_t>(step / 4) %
                                      h.volatile_ids.size()];
      h.set_node_available(n, !h.cluster().node(n).available());
    }
    if (step % 10 == 5) {
      mapred::Job& job = h.jobtracker().job(ids[0]);
      for (TaskId id : job.tasks_of(mapred::TaskType::kMap)) {
        if (job.task(id).state == mapred::TaskState::kCompleted) {
          job.revert_map(id);
          break;
        }
      }
    }
    EXPECT_EQ(auditor.run(), std::vector<Violation>{})
        << "at t=" << h.sim().now();
    ++sweeps;
  }
  for (NodeId n : h.volatile_ids) h.set_node_available(n, true);
  EXPECT_TRUE(h.run_jobs_to_completion(ids, sim::hours(8)));
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.violations_total(), 0);
  EXPECT_EQ(auditor.passes(), sweeps + 1);
}

TEST(Auditor, ReportsCheckpointSegmentFaults) {
  MapRedHarness h(busy_opts());
  h.submit();
  const auto& records = h.jobtracker().checkpoint_store().records();
  while (records.empty() && !h.job().finished()) {
    h.advance(30 * sim::kSecond);
  }
  ASSERT_FALSE(records.empty());
  Auditor auditor(nullptr, &h.jobtracker());
  ASSERT_TRUE(auditor.run().empty());

  // Log the first segment twice and splice in a block of the input file.
  const auto& [key, rec] = *records.begin();
  ASSERT_FALSE(rec.blocks.empty());
  const auto& nn = h.dfs().namenode();
  BlockId foreign = BlockId::invalid();
  for (const auto& [id, meta] : nn.all_blocks()) {
    if (meta.file != rec.file && (!foreign.valid() || id < foreign)) {
      foreign = id;
    }
  }
  ASSERT_TRUE(foreign.valid());
  auto& segments = const_cast<std::vector<BlockId>&>(rec.blocks);
  const BlockId first = segments.front();
  segments.push_back(first);
  segments.push_back(foreign);

  const std::string tag = "checkpoint job " +
                          std::to_string(key.first.value()) + " task " +
                          std::to_string(key.second.value());
  std::vector<Violation> expected = {
      {"checkpoint.segments", tag + " logs segment " + str(first) + " twice"},
      {"checkpoint.segments",
       tag + " segment " + str(foreign) + " belongs to a different file"},
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(auditor.run(), expected);
}

TEST(Auditor, NullComponentsAreSkipped) {
  Auditor auditor(nullptr, nullptr);
  EXPECT_TRUE(auditor.run().empty());
  EXPECT_EQ(auditor.passes(), 1);
}

}  // namespace
}  // namespace moon::audit
