#include "audit/auditor.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/log.hpp"
#include "mapred/task.hpp"
#include "mapred/tasktracker.hpp"
#include "simkit/profiler.hpp"

namespace moon::audit {
namespace {

std::string node_str(NodeId n) { return std::to_string(n.value()); }
std::string block_str(BlockId b) { return std::to_string(b.value()); }
std::string job_str(const mapred::Job& job) {
  return "job " + std::to_string(job.id().value());
}
std::string task_str(const mapred::Job& job, TaskId tid) {
  return job_str(job) + " task " + std::to_string(tid.value());
}
std::string checkpoint_str(const checkpoint::CheckpointStore::Key& key) {
  return "checkpoint job " + std::to_string(key.first.value()) + " task " +
         std::to_string(key.second.value());
}

}  // namespace

Auditor::Auditor(dfs::Dfs* dfs, mapred::JobTracker* jobtracker)
    : dfs_(dfs), jobtracker_(jobtracker) {}

std::vector<Violation> Auditor::run() {
  std::optional<sim::Profiler::Scope> profile;
  if (dfs_ != nullptr) {
    profile.emplace(dfs_->simulation().profiler(), sim::Profiler::Key::kAudit);
  }
  std::vector<Violation> out;
  if (dfs_ != nullptr) check_dfs(out);
  if (jobtracker_ != nullptr) {
    check_mapred(out);
    check_checkpoints(out);
  }
  // blocks_/node_blocks_ walks follow hash order; sort so reports are stable.
  std::sort(out.begin(), out.end());
  ++passes_;
  violations_total_ += static_cast<std::int64_t>(out.size());
  for (const Violation& v : out) {
    log::error("audit", "invariant violated",
               {{"invariant", v.invariant}, {"detail", v.detail}});
  }
  return out;
}

void Auditor::check_dfs(std::vector<Violation>& out) const {
  auto& nn = dfs_->namenode();
  const std::unordered_map<BlockId, dfs::BlockMeta>& block_table =
      nn.all_blocks();
  // Reverse: every reverse-index entry points at a live block that lists
  // the node. (DataNodes may hold stale blocks of deleted files; that
  // direction is by design and not checked.) The walk also counts the
  // entries and notes any that no DataNode stores, for the clean-pass test.
  const std::size_t reported = out.size();
  std::size_t reverse = 0;
  bool unstored = false;
  for (NodeId n : nn.datanodes()) {
    const auto* bucket = nn.blocks_on(n);
    if (bucket == nullptr) continue;
    const dfs::DataNode* dn = dfs_->find_datanode(n);
    reverse += bucket->size();
    for (BlockId b : *bucket) {
      const auto it = block_table.find(b);
      if (it == block_table.end()) {
        out.push_back({"dfs.replica-consistency",
                       "reverse index holds deleted block " + block_str(b) +
                           " on node " + node_str(n)});
        continue;
      }
      if (!it->second.has_replica_on(n)) {
        out.push_back({"dfs.replica-consistency",
                       "reverse index lists block " + block_str(b) +
                           " on node " + node_str(n) +
                           " absent from the block's replica list"});
      } else if (dn == nullptr || !dn->stores(b)) {
        unstored = true;
      }
    }
  }

  // Clean-pass test (DESIGN.md §13). Let F be the multiset of forward
  // (block, node) pairs of the replica lists, R the reverse-index pairs on
  // registered nodes and D the physically stored pairs. With no reverse
  // message and nothing unstored, R ⊆ F and R ⊆ D; if also |R| = |F| then
  // |R| <= |distinct F| <= |F| = |R|, so F holds no duplicate and
  // F = R ⊆ D — precisely the state in which the forward walk reports
  // nothing. Any other state runs it.
  std::size_t forward = 0;
  // detlint: allow(unordered-iter) -- order-free: only sums list lengths
  for (const auto& [id, meta] : block_table) forward += meta.replicas.size();
  if (out.size() == reported && !unstored && forward == reverse) return;

  // Forward: every NameNode replica entry is mirrored in the reverse index
  // and physically present on the DataNode. Walk blocks in BlockId order so
  // the violation report sequence never follows the map's hash order
  // (§2 determinism contract; detlint cannot see this cross-file getter).
  std::vector<BlockId> block_ids;
  block_ids.reserve(nn.all_blocks().size());
  for (const auto& [id, meta] : nn.all_blocks()) block_ids.push_back(id);
  std::sort(block_ids.begin(), block_ids.end());
  for (BlockId id : block_ids) {
    const auto& meta = nn.all_blocks().at(id);
    std::unordered_set<NodeId> seen;
    for (NodeId n : meta.replicas) {
      if (!seen.insert(n).second) {
        out.push_back({"dfs.replica-consistency",
                       "block " + block_str(id) + " lists node " + node_str(n) +
                           " twice"});
        continue;
      }
      const auto* bucket = nn.blocks_on(n);
      if (bucket == nullptr || !bucket->contains(id)) {
        out.push_back({"dfs.replica-consistency",
                       "block " + block_str(id) + " replica on node " +
                           node_str(n) + " missing from reverse index"});
      }
      const dfs::DataNode* dn = dfs_->find_datanode(n);
      if (dn == nullptr) {
        out.push_back({"dfs.replica-consistency",
                       "block " + block_str(id) + " replica on node " +
                           node_str(n) + " which hosts no DataNode"});
      } else if (!dn->stores(id)) {
        out.push_back({"dfs.replica-consistency",
                       "block " + block_str(id) + " replica on node " +
                           node_str(n) + " not physically stored"});
      }
    }
  }
}

void Auditor::check_mapred(std::vector<Violation>& out) {
  using mapred::TaskState;
  using mapred::TrackerState;
  // While the master is crashed its tracker table is wiped soft state: every
  // tracker reads kDead even though its workers still run attempts, so the
  // liveness cross-check only means something against an up master. (A sweep
  // can land here mid-downtime when the *other* master just recovered.)
  const bool master_up = jobtracker_->available();
  for (mapred::Job* job : jobtracker_->jobs_in_order()) {
    if (job->finished()) continue;
    int live_total = 0;
    for (mapred::TaskType type :
         {mapred::TaskType::kMap, mapred::TaskType::kReduce}) {
      for (TaskId tid : job->tasks_of(type)) {
        const mapred::Task& t = job->task(tid);
        live_total += static_cast<int>(t.live_attempts.size());
        for (mapred::TaskAttempt* a : t.live_attempts) {
          if (a->terminal()) {
            out.push_back({"mapred.task-attempts",
                           task_str(*job, tid) +
                               " live set holds a terminal attempt"});
          }
          if (master_up && jobtracker_->tracker_state(a->tracker().node_id()) ==
                               TrackerState::kDead) {
            out.push_back({"mapred.task-attempts",
                           task_str(*job, tid) +
                               " has a live attempt on dead tracker " +
                               node_str(a->tracker().node_id())});
          }
        }
        if (t.state == TaskState::kPending && !t.live_attempts.empty()) {
          out.push_back({"mapred.task-attempts",
                         task_str(*job, tid) + " pending with live attempts"});
        }
        if (t.state == TaskState::kRunning && t.live_attempts.empty()) {
          out.push_back({"mapred.task-attempts",
                         task_str(*job, tid) + " running with no live attempt"});
        }
      }
    }
    if (live_total != job->live_attempts()) {
      out.push_back({"mapred.task-attempts",
                     job_str(*job) + " live-attempt counter " +
                         std::to_string(job->live_attempts()) +
                         " != per-task sum " + std::to_string(live_total)});
    }
    // Scheduler indices against their scan rebuild: an exact allocation-free
    // test, and the report walk only when it fails (DESIGN.md §13).
    if (!job->check_indices(nullptr)) {
      std::vector<std::string> details;
      (void)job->check_indices(&details);
      for (std::string& d : details) {
        out.push_back({"mapred.sched-index", job_str(*job) + " " + d});
      }
    }
  }
  // The JobTracker's live-slot aggregates against a recount.
  for (mapred::TaskType type :
       {mapred::TaskType::kMap, mapred::TaskType::kReduce}) {
    int recount = 0;
    for (mapred::TaskTracker* t : jobtracker_->trackers()) {
      if (jobtracker_->tracker_state(t->node_id()) == TrackerState::kLive) {
        recount += type == mapred::TaskType::kMap ? t->map_slots()
                                                  : t->reduce_slots();
      }
    }
    const int kept = jobtracker_->total_slots(type);
    if (kept != recount) {
      out.push_back({"mapred.sched-index",
                     std::string("jobtracker live ") + mapred::to_string(type) +
                         " slots " + std::to_string(kept) + " != recount " +
                         std::to_string(recount)});
    }
  }
}

void Auditor::check_checkpoints(std::vector<Violation>& out) {
  const auto& nn = jobtracker_->dfs().namenode();
  for (const auto& [key, rec] : jobtracker_->checkpoint_store().records()) {
    const auto& segments = rec.blocks;
    for (auto it = segments.begin(); it != segments.end(); ++it) {
      const BlockId b = *it;
      // Segment lists are short: a prefix scan, no per-record hash set.
      if (std::find(segments.begin(), it, b) != it) {
        out.push_back({"checkpoint.segments",
                       checkpoint_str(key) + " logs segment " + block_str(b) +
                           " twice"});
        continue;
      }
      // Replica loss is legal (latest_live/is_dead handle it); a committed
      // segment pointing outside its own log file is not.
      if (!nn.file_exists(rec.file) || !nn.block_exists(b)) continue;
      if (nn.block(b).file != rec.file) {
        out.push_back({"checkpoint.segments",
                       checkpoint_str(key) + " segment " + block_str(b) +
                           " belongs to a different file"});
      }
    }
  }
}

}  // namespace moon::audit
