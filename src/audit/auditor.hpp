// Cross-component invariant auditor (DESIGN.md §13).
//
// Walks the NameNode/DataNodes, JobTracker/Jobs, and CheckpointStore and
// asserts the conservation invariants that hold at every event boundary,
// fault injection or not:
//
//   dfs.replica-consistency   NameNode replica lists, the per-node reverse
//                             index, and physical DataNode block sets agree
//                             (NameNode-side entries always have the bytes;
//                             DataNodes may additionally hold stale blocks
//                             of deleted files — that direction is not an
//                             error), and every replica names a node that
//                             hosts a DataNode.
//   mapred.task-attempts      Task state matches its live-attempt set
//                             (kPending = none, kRunning = some), the
//                             per-job live-attempt counter is conserved,
//                             and no live attempt runs on a tracker the
//                             JobTracker has declared dead.
//   mapred.sched-index        Every unfinished job's scheduling indices,
//                             counters and live sets equal their rebuild
//                             by scan (Job::check_indices), and the
//                             JobTracker's live-slot aggregates equal a
//                             recount over its trackers.
//   checkpoint.segments       Committed checkpoint records reference only
//                             blocks of their own log file, without
//                             duplicates.
//
// The auditor is strictly read-only — running it cannot perturb the
// simulation (same contract as obs::) — so it can ride as a periodic sim
// event during chaos sweeps and be called directly from tests. A pass that
// finds nothing builds no report: the DFS check decides exactly, in
// O(blocks + replicas), whether its forward report walk would find anything
// and runs that walk only when it would; the scheduler-index check does the
// same per job, in O(tasks + attempts + locality pairs) (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_store.hpp"
#include "dfs/dfs.hpp"
#include "mapred/jobtracker.hpp"

namespace moon::audit {

struct Violation {
  std::string invariant;  ///< e.g. "dfs.replica-consistency"
  std::string detail;

  friend bool operator==(const Violation&, const Violation&) = default;
  friend bool operator<(const Violation& a, const Violation& b) {
    return a.invariant != b.invariant ? a.invariant < b.invariant
                                      : a.detail < b.detail;
  }
};

class Auditor {
 public:
  /// Any ref may be null; the corresponding checks are skipped.
  Auditor(dfs::Dfs* dfs, mapred::JobTracker* jobtracker);

  /// Runs every applicable invariant once. Returns the violations found
  /// (sorted, empty when clean) and logs each at error level. Metered as
  /// sim::Profiler::Key::kAudit when a Dfs is attached.
  std::vector<Violation> run();

  [[nodiscard]] std::int64_t passes() const { return passes_; }
  [[nodiscard]] std::int64_t violations_total() const {
    return violations_total_;
  }

 private:
  /// Reverse walk, then an exact clean-pass test; the forward report walk
  /// runs only when that test fails (DESIGN.md §13).
  void check_dfs(std::vector<Violation>& out) const;
  void check_mapred(std::vector<Violation>& out);
  void check_checkpoints(std::vector<Violation>& out);

  dfs::Dfs* dfs_;
  mapred::JobTracker* jobtracker_;
  std::int64_t passes_ = 0;
  std::int64_t violations_total_ = 0;
};

}  // namespace moon::audit
