// CI smoke: one table of scenarios covering fault injection under the
// invariant auditor (DESIGN.md §13), master crash-recovery (§14) and
// steady-state serving through admission control with job GC (§16). Every
// row runs each seed TWICE. The binary exits non-zero when
//  * the two runs' fingerprints differ (NONDETERMINISTIC): the fingerprint
//    covers the MultiJobResult and every retained JobRun, so it certifies
//    the determinism contract (§2) for single jobs and streams alike;
//  * the auditor found a violation (AUDIT-VIOLATIONS) or a journal replay
//    diverged from live master state (JOURNAL-DIVERGENCE), in either run;
//  * a row's own gates fail, in either run (see the table): a chaos row that
//    injected nothing, a failover row that crashed no master or left its job
//    unfinished, a steady row with no reject/shed, no retired job, or
//    retained job state over its ceiling.
//
//   ./bench_smoke        9 scenarios x 2 seeds x 2 runs (~seconds)
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "experiment/multi_job.hpp"

using namespace moon;

namespace {

using experiment::MultiJobConfig;
using experiment::MultiJobResult;
using Gates = std::vector<std::string>;

struct Row {
  std::string name;
  MultiJobConfig config;  ///< base.seed is set per run
  /// Row-specific gates: the failure tags of one run (empty when it passes).
  Gates (*gates)(const MultiJobResult&);
};

/// Short sort keeps the single-job rows fast while still exercising maps,
/// shuffle, reduces, checkpointing, and output replication.
workload::WorkloadModel smoke_workload() {
  workload::WorkloadModel m;
  m.name = "smoke";
  m.kind = workload::AppKind::kSort;
  m.num_maps = 24;
  m.fixed_reduces = 8;
  m.map_compute = sim::seconds(8);
  m.reduce_compute = sim::seconds(90);
  m.intermediate_per_map = mib(4.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(4.0);
  m.total_output = mib(96.0);
  m.input_block_bytes = mib(4.0);
  return m;
}

/// One smoke job arriving at base.submit_at (what run_scenario runs).
MultiJobConfig single_job(const experiment::ScenarioConfig& base) {
  MultiJobConfig cfg;
  cfg.base = base;
  cfg.base.app = smoke_workload();
  cfg.arrivals.process = workload::ArrivalConfig::Process::kFixedOffset;
  cfg.arrivals.num_jobs = 1;
  cfg.arrivals.first_arrival = base.submit_at;
  cfg.arrivals.mix = {{cfg.base.app, 1.0}};
  return cfg;
}

/// 64 nodes under the chaos spec `faults`, auditor sweeping every minute.
MultiJobConfig chaos_config(const std::string& faults,
                            const mapred::SchedulerConfig& sched,
                            bool quarantine) {
  experiment::ScenarioConfig cfg;
  cfg.volatile_nodes = 56;
  cfg.dedicated_nodes = 8;
  cfg.dedicated_known = true;
  cfg.dfs = experiment::moon_dfs_config();
  cfg.sched = sched;
  if (quarantine) cfg.sched.quarantine_threshold = 3;
  cfg.unavailability_rate = 0.3;
  cfg.max_sim_time = 4 * sim::kHour;
  if (!experiment::apply_fault_spec(faults, cfg.faults)) std::exit(2);
  cfg.faults.audit_interval = 60 * sim::kSecond;
  // Outage cadence scaled to the short smoke job.
  cfg.faults.outages.mean_interval = 5 * sim::kMinute;
  cfg.faults.outages.mean_outage = 90 * sim::kSecond;
  return single_job(cfg);
}

/// 28 nodes; the chosen masters crash inside the ~4-minute job, early and
/// with a visible outage.
MultiJobConfig failover_config(bool namenode, bool jobtracker) {
  experiment::ScenarioConfig cfg;
  cfg.volatile_nodes = 24;
  cfg.dedicated_nodes = 4;
  cfg.dedicated_known = true;
  cfg.dfs = experiment::moon_dfs_config();
  cfg.sched = experiment::moon_scheduler(true);
  cfg.unavailability_rate = 0.3;
  cfg.max_sim_time = 4 * sim::kHour;
  cfg.faults.enabled = true;
  cfg.faults.master_crash.enabled = true;
  cfg.faults.master_crash.namenode = namenode;
  cfg.faults.master_crash.jobtracker = jobtracker;
  cfg.faults.master_crash.mean_interval = 2 * sim::kMinute;
  cfg.faults.master_crash.min_interval = 45 * sim::kSecond;
  cfg.faults.master_crash.mean_downtime = 60 * sim::kSecond;
  cfg.faults.master_crash.min_downtime = 20 * sim::kSecond;
  cfg.faults.master_crash.max_crashes = 2;
  return single_job(cfg);
}

workload::WorkloadModel steady_job(const std::string& name, int priority) {
  workload::WorkloadModel m;
  m.name = name;
  m.kind = workload::AppKind::kSort;
  m.num_maps = 10;
  m.fixed_reduces = 2;
  m.reduce_slot_fraction = 0.0;
  m.map_compute = sim::seconds(25);
  m.reduce_compute = sim::seconds(30);
  m.intermediate_per_map = mib(1.0);
  m.input_size = static_cast<Bytes>(m.num_maps) * mib(2.0);
  m.total_output = mib(4.0);
  m.input_block_bytes = mib(2.0);
  m.priority = priority;
  m.deadline = 20 * sim::kMinute;
  return m;
}

/// Overloaded open stream on a small churning cluster: arrivals every 20 s
/// against a 3-live-job cap, heartbeat faults on, auditor sweeping, retired
/// jobs garbage-collected.
MultiJobConfig steady_config(mapred::AdmissionConfig::Policy policy) {
  MultiJobConfig cfg;
  cfg.base.volatile_nodes = 8;
  cfg.base.dedicated_nodes = 2;
  cfg.base.dedicated_known = true;
  cfg.base.sched = experiment::moon_scheduler(true);
  cfg.base.dfs = experiment::moon_dfs_config();
  cfg.base.intermediate_kind = dfs::FileKind::kOpportunistic;
  cfg.base.intermediate_factor = {1, 1};
  cfg.base.input_factor = {1, 2};
  cfg.base.output_factor = {1, 2};
  cfg.base.unavailability_rate = 0.3;
  cfg.base.max_sim_time = sim::kHour;
  cfg.base.sched.admission.enabled = true;
  cfg.base.sched.admission.policy = policy;
  cfg.base.sched.admission.max_queued_jobs = 3;
  cfg.base.faults.enabled = true;
  cfg.base.faults.heartbeats.enabled = true;
  cfg.base.faults.heartbeats.drop_probability = 0.05;
  cfg.base.faults.audit_interval = sim::kMinute;

  cfg.arrivals.process = workload::ArrivalConfig::Process::kPoisson;
  cfg.arrivals.num_jobs = 0;  // open-ended to the horizon
  cfg.arrivals.first_arrival = 30 * sim::kSecond;
  cfg.arrivals.mean_interarrival = 20 * sim::kSecond;
  cfg.arrivals.round_robin_mix = true;
  cfg.arrivals.mix = {{steady_job("steady-lo", 0), 1.0},
                      {steady_job("steady-hi", 2), 1.0}};
  cfg.retain_job_results = false;  // GC mode — the contract under test
  return cfg;
}

Gates chaos_gates(const MultiJobResult& r) {
  if (r.fault_stats.total_injected() == 0) return {"VACUOUS"};
  return {};
}

Gates failover_gates(const MultiJobResult& r) {
  Gates failed;
  // The job must ride out every master outage.
  if (r.completed_jobs != 1) failed.push_back("DNF");
  if (r.fault_stats.namenode_crashes + r.fault_stats.jobtracker_crashes == 0) {
    failed.push_back("VACUOUS");
  }
  return failed;
}

Gates steady_gates(const MultiJobResult& r) {
  // Retained state may hold the live-job window (cap 3) plus any DNF jobs
  // pinned at the horizon — far under 1 MiB for these 10-task jobs. An
  // unbounded-retention regression (GC not firing) blows through this
  // immediately: the ~180 arrivals would retain tens of MiB.
  constexpr std::size_t kRetainedCeiling = 1 << 20;
  Gates failed;
  if (r.rejected_jobs + r.shed_jobs == 0) failed.push_back("VACUOUS");
  if (r.peak_retained_bytes > kRetainedCeiling) {
    failed.push_back("RETAINED-OVER-CEILING");
  }
  if (r.jobs_retired == 0) failed.push_back("NO-GC");
  return failed;
}

/// Everything the run decided, flattened. Two runs of the same (row, seed)
/// must agree byte for byte.
std::string fingerprint(const MultiJobResult& r) {
  std::ostringstream os;
  const dfs::DfsStats& d = r.dfs_stats;
  os << d.bytes_written << '|' << d.bytes_read << '|' << d.replication_bytes
     << '|' << d.dedicated_writes_declined << '|' << d.re_replications << '|'
     << d.hibernate_transitions << '|' << d.dead_transitions << '|'
     << d.read_failures << '|' << d.adaptive_v_raises << '|'
     << d.writes_rejected << '|' << d.corruptions_detected << '|'
     << d.block_reports << '|' << d.removals_deferred << '|' << d.ops_parked
     << '|' << d.master_retries << '|' << d.heartbeats_skipped << '|'
     << r.replication_queue_depth;
  const faults::FaultStats& f = r.fault_stats;
  os << "|F" << f.outages_injected << '|' << f.heartbeats_dropped << '|'
     << f.heartbeats_delayed << '|' << f.replicas_corrupted << '|'
     << f.writes_rejected << '|' << f.corruptions_detected << '|'
     << f.stragglers_injected << '|' << f.namenode_crashes << '|'
     << f.jobtracker_crashes << '|' << f.master_recoveries << '|'
     << f.master_downtime << '|' << r.quarantines << '|' << r.audit_passes;
  os << "|J" << r.journal.records_appended << '|' << r.journal.bytes_journaled
     << '|' << r.journal.snapshots_taken << '|' << r.journal.replays << '|'
     << r.recovery.heartbeats_missed << '|' << r.recovery.reports_parked
     << '|' << r.recovery.reports_replayed << '|'
     << r.recovery.reregistrations << '|' << r.recovery.orphans_killed;
  os << "|S" << r.submitted_jobs << '|' << r.completed_jobs << '|'
     << r.aborted_jobs << '|' << r.shed_jobs << '|' << r.dnf_jobs << '|'
     << r.rejected_jobs << '|' << r.sla_eligible_jobs << '|'
     << r.sla_missed_jobs << '|' << r.admission.offered << '|'
     << r.admission.admitted << '|' << r.admission.rejected << '|'
     << r.admission.deferred << '|' << r.admission.defer_rounds << '|'
     << r.admission.shed << '|' << r.admission_sequence_hash << '|'
     << r.jobs_retired << '|' << r.peak_live_jobs << '|'
     << r.peak_retained_bytes << '|' << r.final_retained_bytes << '|'
     << std::hexfloat << r.makespan_s << '|' << r.mean_latency_s << '|'
     << r.p95_latency_s << '|' << r.p99_latency_s << '|' << r.jain_fairness
     << std::defaultfloat;
  for (const experiment::JobOutcome& job : r.jobs) {
    const mapred::JobMetrics& m = job.run.metrics;
    os << "|#" << job.index << '|' << job.submitted_at << '|' << std::hexfloat
       << job.latency_s << '|' << job.queue_wait_s << '|'
       << job.run.execution_time_s << std::defaultfloat << '|'
       << job.run.finished << '|' << job.run.completed_maps << '|'
       << job.run.completed_reduces << '|' << job.run.outputs_committed << '|'
       << m.completed << '|' << m.failed << '|'
       << mapred::to_string(m.failure_reason) << '|' << m.finished_at << '|'
       << m.first_launch_at << '|' << m.peak_running_attempts << '|'
       << m.launched_map_attempts << '|' << m.launched_reduce_attempts << '|'
       << m.speculative_attempts << '|' << m.killed_map_attempts << '|'
       << m.killed_reduce_attempts << '|' << m.failed_map_attempts << '|'
       << m.failed_reduce_attempts << '|' << m.map_reexecutions << '|'
       << m.fetch_failures << '|' << m.checkpoints_written << '|'
       << m.checkpoint_bytes << '|' << m.checkpoint_resumes;
  }
  return os.str();
}

void add_gate(Gates& verdict, const std::string& tag) {
  for (const std::string& seen : verdict) {
    if (seen == tag) return;
  }
  verdict.push_back(tag);
}

}  // namespace

int main() {
  using Policy = mapred::AdmissionConfig::Policy;
  const std::vector<Row> rows{
      {"chaos/all+ckpt",
       chaos_config("all", experiment::moon_checkpoint_scheduler(false), true),
       chaos_gates},
      {"chaos/outages+heartbeats",
       chaos_config("outages,heartbeats:0.1", experiment::moon_scheduler(true),
                    false),
       chaos_gates},
      {"chaos/storage+stragglers",
       chaos_config("storage:0.05,stragglers:0.2",
                    experiment::moon_scheduler(false), false),
       chaos_gates},
      {"chaos/all+hadoop",
       chaos_config("all", experiment::hadoop_scheduler(5 * sim::kMinute),
                    true),
       chaos_gates},
      {"failover/namenode", failover_config(true, false), failover_gates},
      {"failover/jobtracker", failover_config(false, true), failover_gates},
      {"failover/both", failover_config(true, true), failover_gates},
      {"steady/reject", steady_config(Policy::kRejectNewest), steady_gates},
      {"steady/shed", steady_config(Policy::kShedLowestPriority),
       steady_gates},
  };
  const std::vector<std::uint64_t> seeds{20100621u, 7u};

  std::cout << "=== Smoke: chaos, master failover and steady-state rows, "
               "each run twice ===\n";
  int failures = 0;
  for (const Row& row : rows) {
    for (std::uint64_t seed : seeds) {
      MultiJobConfig cfg = row.config;
      cfg.base.seed = seed;
      const MultiJobResult first = experiment::run_multi_job_scenario(cfg);
      const MultiJobResult second = experiment::run_multi_job_scenario(cfg);
      const std::string fp1 = fingerprint(first);
      const std::string fp2 = fingerprint(second);

      Gates verdict;
      if (fp1 != fp2) {
        verdict.push_back("NONDETERMINISTIC");
        std::cerr << "  run1: " << fp1 << "\n  run2: " << fp2 << "\n";
      }
      for (const MultiJobResult* run : {&first, &second}) {
        if (run->audit_violations != 0) add_gate(verdict, "AUDIT-VIOLATIONS");
        if (run->journal.divergences != 0) {
          add_gate(verdict, "JOURNAL-DIVERGENCE");
        }
        for (const std::string& tag : row.gates(*run)) add_gate(verdict, tag);
      }
      failures += static_cast<int>(verdict.size());

      std::cout << "  " << row.name << " seed=" << seed << ":";
      if (verdict.empty()) std::cout << " ok";
      for (const std::string& tag : verdict) std::cout << ' ' << tag;
      std::cout << " (completed=" << first.completed_jobs << '/'
                << first.submitted_jobs
                << ", injected=" << first.fault_stats.total_injected()
                << ", audits=" << first.audit_passes
                << ", quarantines=" << first.quarantines
                << ", rereg=" << first.recovery.reregistrations
                << ", rejected+shed=" << first.rejected_jobs + first.shed_jobs
                << ", retired=" << first.jobs_retired
                << ", peak_retained=" << first.peak_retained_bytes / 1024
                << " KiB)\n";
    }
  }
  if (failures != 0) {
    std::cerr << "FAIL: " << failures << " smoke failures\n";
    return 1;
  }
  std::cout << "smoke: all rows deterministic, non-vacuous, audit- and "
               "journal-clean, failover jobs completed, retained memory "
               "bounded\n";
  return 0;
}
