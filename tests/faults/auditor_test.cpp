// moon::audit::Auditor: clean stacks audit clean (mid-run and at rest), and
// every kind of deliberately broken invariant is reported with its exact
// message — proving the sweep is not vacuously green and that the clean-pass
// test hands every discrepancy to the report walk.
#include <gtest/gtest.h>

#include <algorithm>
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

Violation dfs_violation(std::string detail) {
  return {"dfs.replica-consistency", std::move(detail)};
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
  const_cast<mapred::Task&>(h.job().task(victim)).state =
      mapred::TaskState::kPending;
  const std::vector<Violation> expected = {
      {"mapred.task-attempts", "job " + std::to_string(h.job().id().value()) +
                                   " task " + std::to_string(victim.value()) +
                                   " pending with live attempts"}};
  EXPECT_EQ(auditor.run(), expected);
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
