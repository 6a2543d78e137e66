// Scheduler hot-path microbenchmark: control-plane cost of the indexed
// scheduler under availability churn.
//
// Sweeps {64, 256, 1024}-node clusters x {Hadoop, LATE, MOON} speculators
// and runs one seeded workload (2 maps/node + n/2 reduces, sleep-sized
// data, scripted availability churn). Each heartbeat is served from the
// job's pending/locality buckets, running sets and counter aggregates;
// JobTracker::scheduling_wall_ns meters that hot path — the paper's
// Figure 4 "scheduling time" axis.
//
// Every cell runs at least twice with the same seed and must produce an
// identical fingerprint (completion, finish time, launches, speculative
// launches, events, heartbeats) and a completed job; the binary exits
// non-zero otherwise. The scan-vs-indexed speedups of the original full-
// scan scheduler are recorded in BENCH_sched_hotpath.json; this binary
// writes BENCH_sched_hotpath_indexed.json. MOON_BENCH_REPS controls
// repetitions (best-of); MOON_SCHED_NODES ("64,256") trims the sweep for
// smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dfs/dfs.hpp"
#include "mapred/jobtracker.hpp"
#include "simkit/simulation.hpp"

using namespace moon;

namespace {

struct Flip {
  sim::Time at;
  std::size_t node_index;
  sim::Duration down_for;
};

std::vector<Flip> make_churn(std::uint64_t seed, std::size_t nodes,
                             sim::Duration horizon) {
  Rng rng{seed};
  std::vector<Flip> script;
  sim::Time t = 30 * sim::kSecond;
  // ~1 outage per 8 nodes per minute: enough churn to keep the frozen/slow
  // lists and failed-task buckets busy without stalling the job.
  const auto step = std::max<sim::Duration>(
      sim::kSecond, 480 * sim::kSecond / static_cast<sim::Duration>(nodes));
  while (t < horizon) {
    t += step + rng.uniform_int(0, static_cast<std::int64_t>(step));
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    script.push_back(Flip{t, n, rng.uniform_int(20, 90) * sim::kSecond});
  }
  return script;
}

struct ArmResult {
  double wall_ms = 0.0;   ///< whole run (setup + sim + control plane)
  double sched_ms = 0.0;  ///< JobTracker::scheduling_wall_ns — the hot path
  std::uint64_t heartbeats = 0;
  bool completed = false;
  sim::Time finished_at = 0;
  int launched = 0;
  int speculative = 0;
  std::uint64_t events = 0;
};

ArmResult run_arm(int nodes, const mapred::SchedulerConfig& sched) {
  const auto wall_start = std::chrono::steady_clock::now();  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome

  sim::Simulation simu(7);
  cluster::Cluster cluster(simu);
  cluster::NodeConfig vcfg;
  vcfg.type = cluster::NodeType::kVolatile;
  const auto volatile_ids =
      cluster.add_nodes(static_cast<std::size_t>(nodes), vcfg);
  cluster::NodeConfig dcfg;
  dcfg.type = cluster::NodeType::kDedicated;
  cluster.add_nodes(static_cast<std::size_t>(std::max(1, nodes / 16)), dcfg);

  dfs::DfsConfig dfs_cfg;
  dfs::Dfs dfs(simu, cluster, dfs_cfg, 5);
  dfs.start();
  mapred::JobTracker jobtracker(simu, cluster, dfs, sched, 5);
  jobtracker.add_all_trackers();
  jobtracker.start();

  const int num_maps = nodes * 2;
  const int num_reduces = nodes / 2;
  const FileId input = dfs.stage_blocks("in", dfs::FileKind::kReliable, {1, 2},
                                        num_maps, kKiB);
  mapred::JobSpec spec;
  spec.name = "sched_hotpath";
  spec.num_maps = num_maps;
  spec.num_reduces = num_reduces;
  spec.input_file = input;
  spec.intermediate_per_map = kKiB;
  spec.output_per_reduce = kKiB;
  spec.map_compute = 100 * sim::kSecond;
  spec.reduce_compute = 60 * sim::kSecond;
  spec.intermediate_kind = dfs::FileKind::kReliable;
  spec.intermediate_factor = {1, 1};
  spec.output_factor = {1, 2};
  const JobId job_id = jobtracker.submit(spec);
  mapred::Job& job = jobtracker.job(job_id);

  const sim::Duration horizon = 15 * sim::kMinute;
  for (const Flip& f :
       make_churn(20100621, static_cast<std::size_t>(nodes), horizon)) {
    if (job.finished()) break;
    if (simu.now() < f.at) simu.run_until(f.at);
    const NodeId victim = volatile_ids[f.node_index];
    if (!cluster.node(victim).available()) continue;
    cluster.node(victim).set_available(false);
    simu.schedule_after(f.down_for, [&cluster, victim] {
      if (!cluster.node(victim).available()) {
        cluster.node(victim).set_available(true);
      }
    });
  }
  const sim::Time deadline = simu.now() + 4 * sim::kHour;
  while (!job.finished() && simu.now() < deadline) {
    if (!simu.step()) break;
  }

  ArmResult r;
  r.completed = job.metrics().completed;
  r.finished_at = job.metrics().finished_at;
  r.launched = job.metrics().launched_map_attempts +
               job.metrics().launched_reduce_attempts;
  r.speculative = job.metrics().speculative_attempts;
  r.events = simu.executed_events();
  r.sched_ms =
      static_cast<double>(jobtracker.scheduling_wall_ns()) / 1'000'000.0;
  r.heartbeats = jobtracker.heartbeats_served();
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)  // detlint: allow(wall-clock) -- bench wall metering: measures the simulator itself, never feeds a simulated outcome
                  .count();
  return r;
}

/// The simulated outcome of a run: equal for equal seeds, or the simulator
/// is nondeterministic.
bool same_outcome(const ArmResult& a, const ArmResult& b) {
  return a.completed == b.completed && a.finished_at == b.finished_at &&
         a.launched == b.launched && a.speculative == b.speculative &&
         a.events == b.events && a.heartbeats == b.heartbeats;
}

/// Best-of-`reps` wall times over at least two same-seed runs; nullopt when
/// the runs' outcomes differ.
std::optional<ArmResult> best_of(int reps, int nodes,
                                 const mapred::SchedulerConfig& sched) {
  ArmResult best;
  for (int i = 0; i < std::max(reps, 2); ++i) {
    ArmResult r = run_arm(nodes, sched);
    if (i > 0 && !same_outcome(r, best)) return std::nullopt;
    if (i == 0 || r.sched_ms < best.sched_ms) best = r;
  }
  return best;
}

std::vector<int> node_sweep() {
  std::vector<int> nodes;
  if (const char* env = std::getenv("MOON_SCHED_NODES")) {
    std::stringstream ss(env);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const int n = std::atoi(item.c_str());
      if (n > 0) nodes.push_back(n);
    }
  }
  if (nodes.empty()) nodes = {64, 256, 1024};
  return nodes;
}

mapred::SchedulerConfig hadoop_cfg() {
  mapred::SchedulerConfig cfg;
  cfg.tracker_expiry = 60 * sim::kSecond;
  return cfg;
}

mapred::SchedulerConfig late_cfg() {
  mapred::SchedulerConfig cfg = hadoop_cfg();
  cfg.speculator = mapred::SchedulerConfig::Speculator::kLate;
  return cfg;
}

mapred::SchedulerConfig moon_cfg() {
  mapred::SchedulerConfig cfg;
  cfg.tracker_expiry = 30 * sim::kMinute;
  cfg.suspension_interval = 30 * sim::kSecond;
  cfg.moon_scheduling = true;
  return cfg;
}

}  // namespace

int main() {
  const int reps = bench::repetitions();
  bench::JsonEmitter json("sched_hotpath_indexed");
  Table table("sched_hotpath");
  table.columns({"nodes", "speculator", "sched ms", "total ms", "heartbeats",
                 "launches", "finish s"});

  struct Policy {
    const char* name;
    mapred::SchedulerConfig sched;
  };
  const std::vector<Policy> policies{
      {"Hadoop", hadoop_cfg()}, {"LATE", late_cfg()}, {"MOON", moon_cfg()}};

  for (const int nodes : node_sweep()) {
    for (const Policy& policy : policies) {
      const std::optional<ArmResult> arm = best_of(reps, nodes, policy.sched);
      if (!arm) {
        std::cerr << "FATAL: same-seed runs diverged at " << nodes
                  << " nodes (" << policy.name << ")\n";
        return 1;
      }
      if (!arm->completed) {
        std::cerr << "FATAL: job did not complete at " << nodes << " nodes ("
                  << policy.name << ")\n";
        return 1;
      }
      table.add_row({std::to_string(nodes), policy.name,
                     Table::num(arm->sched_ms, 1), Table::num(arm->wall_ms, 1),
                     std::to_string(arm->heartbeats),
                     std::to_string(arm->launched),
                     Table::num(sim::to_seconds(arm->finished_at), 0)});
      json.begin_row()
          .field("nodes", static_cast<std::int64_t>(nodes))
          .field("speculator", policy.name)
          .field("sched_wall_ms", arm->sched_ms)
          .field("total_wall_ms", arm->wall_ms)
          .field("heartbeats", static_cast<std::int64_t>(arm->heartbeats))
          .field("completed", static_cast<std::int64_t>(arm->completed ? 1 : 0))
          .field("finished_at_s", sim::to_seconds(arm->finished_at))
          .field("launched_attempts", static_cast<std::int64_t>(arm->launched))
          .field("speculative_attempts",
                 static_cast<std::int64_t>(arm->speculative))
          .field("sim_events", static_cast<std::int64_t>(arm->events));
    }
  }

  std::cout << "Scheduler hot path under availability churn (indexed "
               "scheduler); same-seed runs identical, best of "
            << std::max(reps, 2) << " run(s).\n\n";
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
