// moonbench — the repository benchmark (README.md in this directory has the
// workload rationale, the layer -> end-to-end -> workload table and the
// profiler-overlap note).
//
//   moonbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--spans PATH] [--perturb-fingerprint]
//
// Every workload is driven through the public experiment API
// (experiment::run_scenario, experiment::run_multi_job_scenario,
// experiment::Environment) and measured from outside: host CPU time of the
// benchmark's own calls, the public result structs and the sim::Profiler
// snapshot they carry. Nothing in the simulator is instrumented for it.
//
// --trace 0 repeats the workload in rounds until S seconds have passed (at
// least three rounds, so every input is simulated three times and its
// fingerprint compared) and reports the end-to-end metrics, their host
// times calibrated against a fixed kernel timed between the runs. --trace 1 makes the traced
// run instead: spans around the calls into each layer, kept in memory and
// written to --spans at exit, and the per-layer metrics.
//
// Output: one JSON record per round (each carrying the run metadata), a
// human-readable table, and last one JSON line {"correct", "attempted",
// "failed", "metrics"}. The exit code is non-zero when any check fails.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/environment.hpp"
#include "experiment/multi_job.hpp"
#include "experiment/scenario.hpp"
#include "workload/arrival.hpp"

using namespace moon;

namespace {

using Clock = std::chrono::steady_clock;
using Profile = sim::Profiler::Snapshot;
using PKey = sim::Profiler::Key;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the process has run. Host costs are taken in CPU time, not
/// wall time: on a shared host, wall time also counts the time the scheduler
/// gave other processes, which says nothing about the program.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const sim::Profiler::Counter& counter(const Profile& p, PKey key) {
  return p[static_cast<std::size_t>(key)];
}

/// Peak resident memory of the process, less `held_bytes` the benchmark
/// itself keeps resident for the whole process.
double peak_rss_mb(std::size_t held_bytes) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double kib = static_cast<double>(usage.ru_maxrss);  // ru_maxrss is KiB
  return (kib - static_cast<double>(held_bytes) / 1024.0) / 1024.0;
}

// ---- host-speed calibration -------------------------------------------------

/// A fixed kernel, timed between the simulated runs, that says how fast the
/// host is at the moment. On a shared host the same run's CPU time drifts by
/// 20% and more within a minute, because neighbours load the shared cache,
/// memory and clock. The kernel is a dependent multiply-add chain (clock
/// speed) plus a pointer chase around an 8 MiB ring (cache and memory
/// latency). Host times are divided by the kernel's time measured alongside
/// them and multiplied by kReferenceS: they read as seconds on a host where
/// the kernel takes 20 ms (it took 25-30 ms on the 4-core Xeon VM the
/// benchmark was sized on, with that host's usual neighbours). The kernel is
/// part of the benchmark, not of the simulator, so a change to the simulator
/// moves the numbers and a change in the host's speed does not.
class Calibration {
 public:
  static constexpr double kReferenceS = 0.020;

  Calibration() : ring_(kRingSize) {
    // Sattolo's shuffle: one cycle through every slot, fixed by the seed.
    for (std::uint32_t i = 0; i < kRingSize; ++i) ring_[i] = i;
    std::uint64_t z = 0x6d6f6f6e62656e63ULL;
    for (std::uint32_t i = kRingSize - 1; i > 0; --i) {
      z = z * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(ring_[i], ring_[(z >> 33) % i]);
    }
  }

  /// CPU seconds of one pass of the kernel.
  double sample() {
    const double c0 = cpu_now();
    std::uint64_t x = sink_ | 1;
    for (int i = 0; i < kMultiplySteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    std::uint32_t at = static_cast<std::uint32_t>(x >> 40) % kRingSize;
    for (int i = 0; i < kChaseSteps; ++i) at = ring_[at];
    sink_ = x + at;
    return cpu_now() - c0;
  }

  [[nodiscard]] std::size_t bytes() const {
    return ring_.size() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kRingSize = 1u << 21;  // 8 MiB
  static constexpr int kMultiplySteps = 4'000'000;
  static constexpr int kChaseSteps = 120'000;
  std::vector<std::uint32_t> ring_;
  volatile std::uint64_t sink_ = 0;
};

// ---- workloads --------------------------------------------------------------

enum class Kind { kSort, kStream };

struct Workload {
  const char* name;
  Kind kind;
  // Sort job shape (unused by the stream): fairness model and size.
  bool maxmin;
  int volatile_nodes;
  int dedicated_nodes;
  int maps;
  /// Inputs (availability traces, and arrivals for the stream) simulated
  /// per run, all derived from --seed. Host cost varies up to 4x between
  /// traces of one sort shape, so a run averages many small inputs rather
  /// than timing a few large ones.
  int inputs;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const Workload kWorkloads[] = {
    {"sort-maxmin", Kind::kSort, true, 48, 5, 96, 64},
    {"sort-bshare", Kind::kSort, false, 128, 13, 256, 32},
    {"stream-chaos", Kind::kStream, false, 0, 0, 0, 4},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// One MOON-Hybrid sort job of `w.maps` x 64 MiB maps at 0.3 trace-driven
/// unavailability.
experiment::ScenarioConfig sort_config(const Workload& w, std::uint64_t seed) {
  experiment::ScenarioConfig c;
  c.volatile_nodes = static_cast<std::size_t>(w.volatile_nodes);
  c.dedicated_nodes = static_cast<std::size_t>(w.dedicated_nodes);
  c.fairness = w.maxmin ? sim::FairnessModel::kMaxMin
                        : sim::FairnessModel::kBottleneckShare;
  c.unavailability_rate = 0.3;
  c.sched = experiment::moon_scheduler(/*hybrid=*/true);
  c.dfs = experiment::moon_dfs_config();
  c.app = workload::sort_workload();
  const Bytes per_map = c.app.input_size / c.app.num_maps;
  c.app.num_maps = w.maps;
  c.app.input_size = per_map * w.maps;
  c.app.total_output = per_map * w.maps;
  c.seed = seed;
  return c;
}

workload::WorkloadModel stream_job(const char* name, int priority) {
  workload::WorkloadModel m;
  m.name = name;
  m.kind = workload::AppKind::kSort;
  m.num_maps = 12;
  m.fixed_reduces = 3;
  m.map_compute = sim::seconds(20);
  m.reduce_compute = sim::seconds(30);
  m.intermediate_per_map = mib(1.0);
  m.input_size = 12 * mib(2.0);
  m.total_output = mib(8.0);
  m.input_block_bytes = mib(2.0);
  m.deadline = 30 * sim::kMinute;
  m.priority = priority;
  return m;
}

/// Open-loop Poisson stream of small sort jobs at ~3x overload on 24 + 3
/// nodes for 4 simulated hours: shedding admission, retired-job GC,
/// checkpointing, chaos faults and a 5-minute auditor.
experiment::MultiJobConfig stream_config(std::uint64_t seed) {
  experiment::MultiJobConfig c;
  experiment::ScenarioConfig& b = c.base;
  b.volatile_nodes = 24;
  b.dedicated_nodes = 3;
  b.unavailability_rate = 0.3;
  b.sched = experiment::moon_checkpoint_scheduler(/*hybrid=*/true);
  b.dfs = experiment::moon_dfs_config();
  b.input_factor = {1, 2};
  b.output_factor = {1, 2};
  b.max_sim_time = 2 * sim::kHour;
  b.seed = seed;
  b.sched.admission.enabled = true;
  b.sched.admission.policy =
      mapred::AdmissionConfig::Policy::kShedLowestPriority;
  b.sched.admission.max_queued_jobs = 8;
  b.faults.enabled = true;
  b.faults.outages.enabled = true;
  b.faults.outages.mean_interval = 10 * sim::kMinute;
  b.faults.outages.mean_outage = 2 * sim::kMinute;
  b.faults.heartbeats.enabled = true;
  b.faults.heartbeats.drop_probability = 0.05;
  b.faults.heartbeats.delay_probability = 0.05;
  b.faults.audit_interval = 5 * sim::kMinute;
  c.arrivals.process = workload::ArrivalConfig::Process::kPoisson;
  c.arrivals.num_jobs = 0;  // open-ended, to the horizon
  c.arrivals.horizon = b.max_sim_time;
  c.arrivals.first_arrival = sim::kMinute;
  c.arrivals.mean_interarrival = 7 * sim::kSecond;
  c.arrivals.round_robin_mix = true;
  c.arrivals.mix = {{stream_job("stream-lo", 0), 1.0},
                    {stream_job("stream-hi", 2), 1.0}};
  c.retain_job_results = false;
  return c;
}

// ---- one simulated run, flattened -----------------------------------------

/// What one run of one input produced. `values` holds every modelled and
/// per-layer number this run can give. `fingerprint` covers the simulated
/// outcomes (no host times, no audit counters: an auditor on/off pair must
/// match); `work` adds the deterministic work counters (the auditor's own
/// periodic events move these, nothing else may).
struct Run {
  double run_s = 0.0;   ///< host CPU seconds of the call
  double wall_s = 0.0;  ///< host wall seconds of the call (reported only)
  std::string fingerprint;
  std::string work;
  std::map<std::string, double> values;
  std::vector<std::string> failures;  ///< correctness violations
};

void put_profile(Run& r, const Profile& p) {
  const auto ms = [&](PKey k) { return counter(p, k).ms(); };
  const auto calls = [&](PKey k) {
    return static_cast<double>(counter(p, k).calls);
  };
  auto& v = r.values;
  v["simkit.events"] = calls(PKey::kEventDispatch);
  v["simkit.dispatch_ms"] = ms(PKey::kEventDispatch);
  v["simkit.settle_ms"] = ms(PKey::kSettle);
  v["simkit.settle_calls"] = calls(PKey::kSettle);
  v["simkit.recompute_ms"] = ms(PKey::kRecompute);
  v["simkit.recompute_calls"] = calls(PKey::kRecompute);
  v["dfs.probe_ms"] = ms(PKey::kDfsProbe);
  v["dfs.probe_calls"] = calls(PKey::kDfsProbe);
  v["dfs.repl_scan_ms"] = ms(PKey::kReplicationScan);
  v["dfs.repl_scan_calls"] = calls(PKey::kReplicationScan);
  v["mapred.heartbeat_ms"] = ms(PKey::kHeartbeat);
  v["mapred.heartbeats"] = calls(PKey::kHeartbeat);
  v["mapred.speculation_ms"] = ms(PKey::kSpeculation);
  v["mapred.speculation_calls"] = calls(PKey::kSpeculation);
  v["checkpoint.ms"] = ms(PKey::kCheckpoint);
  v["checkpoint.calls"] = calls(PKey::kCheckpoint);
}

void put_dfs(Run& r, const dfs::DfsStats& s) {
  r.values["dfs.bytes_read"] = static_cast<double>(s.bytes_read);
  r.values["dfs.bytes_written"] = static_cast<double>(s.bytes_written);
  r.values["dfs.replication_bytes"] = static_cast<double>(s.replication_bytes);
}

void put_attempts(Run& r, const mapred::JobMetrics& m, int tasks) {
  auto& v = r.values;
  v["mapred.tasks"] += tasks;
  v["mapred.attempts"] += m.launched_map_attempts + m.launched_reduce_attempts;
  v["mapred.speculative_attempts"] += m.speculative_attempts;
  v["mapred.reexecutions"] += m.map_reexecutions;
  v["checkpoint.emits"] += m.checkpoints_written;
}

/// Deterministic work counters: equal inputs must do equal work, whatever
/// the host.
std::string work_counters(const Profile& p) {
  std::ostringstream os;
  for (PKey k : {PKey::kEventDispatch, PKey::kSettle, PKey::kRecompute,
                 PKey::kDfsProbe, PKey::kReplicationScan, PKey::kHeartbeat,
                 PKey::kSpeculation, PKey::kCheckpoint}) {
    os << counter(p, k).calls << ',';
  }
  return os.str();
}

std::string sort_fingerprint(bool finished, double job_s,
                             const mapred::JobMetrics& m,
                             const dfs::DfsStats& d) {
  std::ostringstream fp;
  fp << finished << '|' << std::hexfloat << job_s << std::defaultfloat << '|'
     << d.bytes_read << '|' << d.bytes_written << '|' << d.replication_bytes
     << '|' << m.launched_map_attempts << '|' << m.launched_reduce_attempts
     << '|' << m.speculative_attempts << '|' << m.killed_map_attempts << '|'
     << m.killed_reduce_attempts << '|' << m.map_reexecutions;
  return fp.str();
}

Run sort_run(const experiment::ScenarioConfig& cfg) {
  Run r;
  const auto t0 = Clock::now();
  const double c0 = cpu_now();
  const experiment::RunResult res = experiment::run_scenario(cfg);
  r.run_s = cpu_now() - c0;
  r.wall_s = since(t0);

  const double job_s = res.execution_time_s;
  r.values["job_s"] = job_s;
  put_profile(r, res.profile);
  put_dfs(r, res.dfs_stats);
  put_attempts(r, res.metrics, res.num_maps + res.num_reduces);
  r.values["faults.injected"] =
      static_cast<double>(res.fault_stats.total_injected());
  r.values["faults.quarantines"] = static_cast<double>(res.quarantines);
  r.values["audit.passes"] = static_cast<double>(res.audit_passes);
  r.values["audit.violations"] = static_cast<double>(res.audit_violations);

  r.fingerprint =
      sort_fingerprint(res.finished, job_s, res.metrics, res.dfs_stats);
  r.work = work_counters(res.profile);

  if (!res.finished) r.failures.push_back("sort job did not finish");
  if (res.audit_violations != 0) r.failures.push_back("audit violations");
  return r;
}

/// Stream aggregates, equal in the GC and retained modes (the harness folds
/// both at the same events in the same order) and with the auditor off.
std::string stream_fingerprint(const experiment::MultiJobResult& res) {
  std::ostringstream fp;
  fp << res.submitted_jobs << '|' << res.completed_jobs << '|'
     << res.aborted_jobs << '|' << res.shed_jobs << '|' << res.dnf_jobs << '|'
     << res.rejected_jobs << '|' << res.sla_eligible_jobs << '|'
     << res.sla_missed_jobs << '|' << res.admission.offered << '|'
     << res.admission.admitted << '|' << res.admission.rejected << '|'
     << res.admission.shed << '|' << res.admission_sequence_hash << '|'
     << res.peak_live_jobs << '|'
     << res.fault_stats.total_injected() << '|' << res.quarantines << '|'
     << res.dfs_stats.bytes_read << '|' << res.dfs_stats.bytes_written << '|'
     << res.dfs_stats.replication_bytes << '|' << std::hexfloat
     << res.makespan_s << '|' << res.mean_latency_s << '|'
     << res.p99_latency_s << '|' << res.jain_fairness;
  return fp.str();
}

Run stream_run(const experiment::MultiJobConfig& cfg) {
  Run r;
  const auto t0 = Clock::now();
  const double c0 = cpu_now();
  const experiment::MultiJobResult res =
      experiment::run_multi_job_scenario(cfg);
  r.run_s = cpu_now() - c0;
  r.wall_s = since(t0);

  const double hours = sim::to_seconds(cfg.base.max_sim_time) / 3600.0;
  const double offered = static_cast<double>(res.admission.offered);
  auto& v = r.values;
  v["job_s"] = res.mean_latency_s;
  v["stream.latency_mean_s"] = res.mean_latency_s;
  v["stream.latency_p99_s"] = res.p99_latency_s;
  v["stream.completed_jobs"] = res.completed_jobs;
  v["stream.sla_miss_rate"] = res.sla_miss_rate();
  v["stream.goodput_jobs_per_h"] = res.completed_jobs / hours;
  v["stream.failed_share"] =
      offered > 0 ? (offered - res.completed_jobs) / offered : 0.0;
  v["admission.offered"] = offered;
  v["admission.rejected"] = static_cast<double>(res.admission.rejected);
  v["admission.shed"] = static_cast<double>(res.admission.shed);
  v["stream.peak_live_jobs"] = res.peak_live_jobs;
  v["stream.peak_retained_kb"] =
      static_cast<double>(res.peak_retained_bytes) / 1024.0;
  put_profile(r, res.profile);
  put_dfs(r, res.dfs_stats);
  for (const experiment::JobOutcome& job : res.jobs) {  // retained mode only
    put_attempts(r, job.run.metrics, job.run.num_maps + job.run.num_reduces);
  }
  v["faults.injected"] = static_cast<double>(res.fault_stats.total_injected());
  v["faults.quarantines"] = static_cast<double>(res.quarantines);
  v["audit.passes"] = static_cast<double>(res.audit_passes);
  v["audit.violations"] = static_cast<double>(res.audit_violations);
  r.fingerprint = stream_fingerprint(res);
  r.work = work_counters(res.profile);

  if (res.completed_jobs == 0) r.failures.push_back("no stream job completed");
  if (res.audit_violations != 0) r.failures.push_back("audit violations");
  return r;
}

// ---- set-up probes ----------------------------------------------------------

/// Host CPU time to build the stack before the first event, taken the way the
/// public run calls build it: Environment (nodes, traces, DFS, JobTracker,
/// faults, auditor), then input staging (and, for the stream, arrival
/// generation).
struct Setup {
  double env_s = 0.0;
  double stage_s = 0.0;
  [[nodiscard]] double total_s() const { return env_s + stage_s; }
};

Setup sort_setup(const experiment::ScenarioConfig& cfg) {
  Setup s;
  double c0 = cpu_now();
  experiment::Environment env(cfg);
  s.env_s = cpu_now() - c0;
  c0 = cpu_now();
  env.dfs->stage_blocks(cfg.app.name + ".input", dfs::FileKind::kReliable,
                        cfg.input_factor, cfg.app.num_maps,
                        cfg.app.input_block_bytes);
  s.stage_s = cpu_now() - c0;
  return s;
}

Setup stream_setup(const experiment::MultiJobConfig& cfg) {
  Setup s;
  double c0 = cpu_now();
  experiment::Environment env(cfg.base);
  s.env_s = cpu_now() - c0;
  c0 = cpu_now();
  const auto arrivals =
      workload::JobArrivalStream(cfg.arrivals, cfg.base.seed).generate();
  for (const workload::JobArrival& a : arrivals) {
    env.dfs->stage_blocks(a.model.name + ".input", dfs::FileKind::kReliable,
                          cfg.base.input_factor, a.model.num_maps,
                          a.model.input_block_bytes);
  }
  s.stage_s = cpu_now() - c0;
  return s;
}

// ---- spans (traced run only) ----------------------------------------------

/// In-memory span recorder: name, start, end and parent, all spans of one
/// run sharing one run id. Written out once, at exit.
class Spans {
 public:
  explicit Spans(std::string run_id) : run_id_(std::move(run_id)) {}

  int open(const std::string& name, int parent) {
    spans_.push_back({name, since(epoch_), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = since(epoch_);
  }

  /// Self time per span name: duration minus the time its children cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += 1e3 * self[i];
    }
    return out;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"run\":\"" << run_id_ << "\",\"id\":" << i << ",\"name\":\""
         << s.name << "\",\"start_s\":" << s.start_s
         << ",\"end_s\":" << s.end_s << ",\"parent\":" << s.parent << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };
  std::string run_id_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// The sort job driven from the benchmark itself, the way run_scenario
/// drives it, with the step loop cut into `slices` spans of simulated time
/// (the last one runs to completion). Its fingerprint must equal the public
/// call's.
Run sort_run_traced(const experiment::ScenarioConfig& cfg, double job_s,
                    int slices, Spans& spans, int parent) {
  Run r;
  const auto t0 = Clock::now();
  const double c0 = cpu_now();
  const int run_span = spans.open("run", parent);

  int span = spans.open("setup.env", run_span);
  auto env = std::make_unique<experiment::Environment>(cfg);
  spans.close(span);
  span = spans.open("setup.stage", run_span);
  const FileId input = env->dfs->stage_blocks(
      cfg.app.name + ".input", dfs::FileKind::kReliable, cfg.input_factor,
      cfg.app.num_maps, cfg.app.input_block_bytes);
  mapred::JobSpec spec = workload::make_job_spec(
      cfg.app, input, static_cast<int>(env->cluster.size()) * cfg.reduce_slots,
      cfg.intermediate_kind, cfg.intermediate_factor, cfg.output_factor);
  spans.close(span);

  sim::Simulation& sim = env->sim;
  bool done = false;
  mapred::Job* job = nullptr;
  env->jobtracker->on_job_finished([&](mapred::Job&) { done = true; });
  sim.schedule_at(cfg.submit_at, [&] {
    job = &env->jobtracker->job(env->jobtracker->submit(spec));
  });
  for (int k = 1; k <= slices && !done; ++k) {
    const sim::Time until =
        k == slices ? cfg.max_sim_time
                    : cfg.submit_at + sim::seconds(job_s * k / slices);
    span = spans.open("run.slice", run_span);
    while (!done && sim.now() < until) {
      if (!sim.step()) break;
    }
    spans.close(span);
  }
  if (job == nullptr || !job->metrics().completed) {
    r.failures.push_back("traced sort job did not finish");
  } else {
    const mapred::JobMetrics& m = job->metrics();
    r.fingerprint =
        sort_fingerprint(true, m.execution_time_s(), m, env->dfs->stats());
    r.work = work_counters(sim.profiler().snapshot());
  }
  env.reset();  // teardown is part of the public call's time too
  spans.close(run_span);
  r.run_s = cpu_now() - c0;
  r.wall_s = since(t0);
  return r;
}

// ---- options and output -------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string spans_path;
  bool perturb = false;  ///< corrupt one fingerprint: the check must trip
};

std::string json_number(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Run metadata carried by every output record.
std::string meta_json(const Options& m) {
  std::ostringstream os;
  os << "{\"commit\":\"" << m.commit << "\",\"build_type\":\""
     << MOONBENCH_BUILD_TYPE << "\",\"compiler\":\"" << MOONBENCH_COMPILER
     << "\",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"workload\":\"" << m.workload << "\",\"seed\":" << m.seed
     << ",\"trace\":" << m.trace << "}";
  return os.str();
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << "\n" << title << "\n";
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
}

// ---- driver -----------------------------------------------------------------

/// The i-th input of a run, splitmix64-mixed from (seed, i), so that the
/// input sets of nearby seeds share no structure.
std::uint64_t input_seed(std::uint64_t seed, int i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Run run_input(const Workload& w, std::uint64_t seed) {
  return w.kind == Kind::kSort ? sort_run(sort_config(w, seed))
                               : stream_run(stream_config(seed));
}

Setup setup_input(const Workload& w, std::uint64_t seed) {
  return w.kind == Kind::kSort ? sort_setup(sort_config(w, seed))
                               : stream_setup(stream_config(seed));
}

/// The work each workload exists for must actually happen.
std::vector<std::string> vacuity(const Workload& w, const Run& r) {
  std::vector<std::string> out;
  const auto need = [&](const char* key) {
    const auto it = r.values.find(key);
    if (it == r.values.end() || it->second <= 0) {
      out.push_back(std::string("vacuous: ") + key + " is 0");
    }
  };
  need("simkit.events");
  need("simkit.settle_calls");
  need("mapred.heartbeats");
  if (std::string(w.name) == "sort-maxmin") {
    need("simkit.recompute_calls");
    need("dfs.probe_calls");
  }
  if (w.kind == Kind::kStream) {
    need("faults.injected");
    need("admission.shed");
    need("audit.passes");
    need("checkpoint.calls");
  }
  return out;
}

struct Verdict {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;

  void add(const std::string& what, std::vector<std::string> fails) {
    ++attempted;
    if (fails.empty()) return;
    ++failed;
    for (const std::string& f : fails) problems.push_back(what + ": " + f);
  }
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// `r`'s own failures, plus a mismatch when it does not reproduce `ref`'s
/// simulated outcome (and, with `work`, its work counters too).
std::vector<std::string> compare(const Run& ref, const Run& r, bool work) {
  std::vector<std::string> fails = r.failures;
  if (r.fingerprint != ref.fingerprint || (work && r.work != ref.work)) {
    fails.push_back("fingerprint differs:\n  " + ref.fingerprint + " " +
                    ref.work + "\n  " + r.fingerprint + " " + r.work);
  }
  return fails;
}

void report_problems(const Verdict& v) {
  for (const std::string& p : v.problems) {
    std::cerr << "CHECK FAILED " << p << "\n";
  }
}

/// Set-up probes per input and round. Set-up takes milliseconds and its
/// first probe after a run meets a cold heap, so setup_s is the median of
/// many probes.
constexpr int kSetupProbes = 5;

/// Rounds per untraced run, at least. Every workload is sized so that this
/// many fit in 30 s on a slow shared host.
constexpr int kMinRounds = 3;

/// CPU seconds of simulation between two calibration samples, at most.
constexpr double kCalibrateEveryS = 0.4;

int untraced(const Workload& w, const Options& opt) {
  Verdict verdict;
  Calibration calibration;
  std::vector<Run> first(static_cast<std::size_t>(w.inputs));
  std::vector<double> round_run_s;      // per round: mean over inputs, CPU
  std::vector<double> round_scaled_s;   // the same, calibrated
  std::vector<double> setup_scaled_s;   // every set-up probe, calibrated
  std::vector<double> calibration_s;    // every calibration sample
  const auto t0 = Clock::now();
  // Rounds continue while the next one is expected to end within the
  // budget; kMinRounds at least. Each round simulates every input once;
  // the host's speed in that round is the median of the calibration
  // samples taken during it.
  for (int round = 0;; ++round) {
    const double elapsed = since(t0);
    if (round >= kMinRounds && elapsed * (round + 1) / round > opt.seconds) {
      break;
    }
    double run_sum = 0.0;
    double wall_sum = 0.0;
    std::vector<double> setup_s;
    std::vector<double> cal_s{calibration.sample()};
    double since_cal_s = 0.0;
    std::ostringstream per_input;
    for (int i = 0; i < w.inputs; ++i) {
      const std::uint64_t seed = input_seed(opt.seed, i);
      if (since_cal_s >= kCalibrateEveryS) {
        cal_s.push_back(calibration.sample());
        since_cal_s = 0.0;
      }
      for (int k = 0; k < kSetupProbes; ++k) {
        setup_s.push_back(setup_input(w, seed).total_s());
      }
      Run r = run_input(w, seed);
      since_cal_s += r.run_s;
      if (opt.perturb && round == 1 && i == 0) r.fingerprint += "#perturbed";
      Run& ref = first[static_cast<std::size_t>(i)];
      if (round == 0) ref = r;
      std::vector<std::string> fails = compare(ref, r, true);
      for (std::string& f : vacuity(w, r)) fails.push_back(std::move(f));
      verdict.add("round " + std::to_string(round) + " input " +
                      std::to_string(seed),
                  std::move(fails));
      run_sum += r.run_s;
      wall_sum += r.wall_s;
      per_input << (i ? ", " : "") << "{\"seed\": " << seed
                << ", \"run_s\": " << json_number(r.run_s)
                << ", \"wall_s\": " << json_number(r.wall_s)
                << ", \"job_s\": " << json_number(r.values.at("job_s"))
                << ", \"events\": "
                << json_number(r.values.at("simkit.events")) << "}";
    }
    cal_s.push_back(calibration.sample());
    const double scale = Calibration::kReferenceS / median(cal_s);
    round_run_s.push_back(run_sum / w.inputs);
    round_scaled_s.push_back(scale * round_run_s.back());
    for (double x : setup_s) setup_scaled_s.push_back(scale * x);
    calibration_s.insert(calibration_s.end(), cal_s.begin(), cal_s.end());
    std::cout << "{\"record\": \"round\", \"meta\": " << meta_json(opt)
              << ", \"round\": " << round
              << ", \"run_s\": " << json_number(round_scaled_s.back())
              << ", \"run_cpu_s\": " << json_number(round_run_s.back())
              << ", \"run_wall_s\": " << json_number(wall_sum / w.inputs)
              << ", \"calibration_ms\": " << json_number(1e3 * median(cal_s))
              << ", \"inputs\": [" << per_input.str() << "]}" << std::endl;
  }

  const auto mean_of = [&](const char* key) {
    double sum = 0.0;
    for (const Run& r : first) sum += r.values.at(key);
    return sum / static_cast<double>(first.size());
  };
  const std::vector<Metric> metrics{
      {"run_s", "s", median(round_scaled_s)},
      {"setup_s", "s", median(setup_scaled_s)},
      {"peak_rss_mb", "MB", peak_rss_mb(calibration.bytes())},
      {"job_s", "s", mean_of("job_s")},
  };
  std::vector<Metric> table = metrics;
  table.push_back({"run_cpu_s", "s", median(round_run_s)});
  table.push_back({"calibration_ms", "ms", 1e3 * median(calibration_s)});
  if (w.kind == Kind::kStream) {
    table.push_back({"latency_mean_s", "s", mean_of("stream.latency_mean_s")});
    table.push_back({"latency_p99_s", "s", mean_of("stream.latency_p99_s")});
    table.push_back({"sla_miss_rate", "ratio", mean_of("stream.sla_miss_rate")});
    table.push_back(
        {"goodput_jobs_per_h", "1/h", mean_of("stream.goodput_jobs_per_h")});
    table.push_back({"failed_share", "ratio", mean_of("stream.failed_share")});
  } else {
    table.push_back({"failed_share", "ratio",
                     static_cast<double>(verdict.failed) / verdict.attempted});
  }
  print_table(std::string(w.name) + " seed " + std::to_string(opt.seed) +
                  ": " + std::to_string(round_run_s.size()) + " rounds x " +
                  std::to_string(w.inputs) + " inputs",
              table);
  report_problems(verdict);
  print_result(verdict.correct(), verdict.attempted, verdict.failed, metrics);
  return verdict.correct() ? 0 : 1;
}

int traced(const Workload& w, const Options& opt) {
  Verdict verdict;
  const std::uint64_t seed = input_seed(opt.seed, 0);
  const auto t0 = Clock::now();
  Spans spans(std::string(w.name) + "/" + std::to_string(opt.seed));
  const int root = spans.open(w.name, -1);

  std::vector<double> env_ms;
  std::vector<double> stage_ms;
  for (int i = 0; i < 5; ++i) {
    const int setup_span = spans.open("setup.env+stage", root);
    const Setup s = setup_input(w, seed);
    spans.close(setup_span);
    env_ms.push_back(1e3 * s.env_s);
    stage_ms.push_back(1e3 * s.stage_s);
  }

  // The first run of the public call is the outcome reference and warms
  // the process (a process's first simulation runs measurably slower).
  // Then untraced and traced runs alternate, swapping order each pair, until
  // half the budget is spent; their medians give the tracing overhead.
  int span = spans.open("warmup", root);
  const Run ref = run_input(w, seed);
  spans.close(span);
  std::vector<std::string> fails = ref.failures;
  for (std::string& f : vacuity(w, ref)) fails.push_back(std::move(f));
  verdict.add("reference", std::move(fails));

  std::vector<double> ref_s;
  std::vector<double> traced_s;
  std::map<std::string, double> v;  // per-layer values of a warm untraced run
  const auto untraced_run = [&] {
    span = spans.open("reference", root);
    const Run r = run_input(w, seed);
    spans.close(span);
    verdict.add("reference", compare(ref, r, true));
    ref_s.push_back(r.run_s);
    v = r.values;
  };
  const auto traced_run = [&] {
    Run t;
    if (w.kind == Kind::kSort) {
      // Driven from here in 8 slices of the simulated job.
      t = sort_run_traced(sort_config(w, seed), ref.values.at("job_s"), 8,
                          spans, root);
    } else {
      span = spans.open("run", root);
      t = stream_run(stream_config(seed));
      spans.close(span);
    }
    if (opt.perturb) t.fingerprint += "#perturbed";
    verdict.add("traced", compare(ref, t, true));
    traced_s.push_back(t.run_s);
  };
  Calibration calibration;
  std::vector<double> calibration_s;
  while (ref_s.empty() || since(t0) < opt.seconds / 2) {
    calibration_s.push_back(calibration.sample());
    if (ref_s.size() % 2 == 0) {
      untraced_run();
      traced_run();
    } else {
      traced_run();
      untraced_run();
    }
  }

  v["audit.ms"] = 0.0;
  if (w.kind == Kind::kStream) {
    // The auditor is read-only: without it the outcome must not move, and
    // the run-time difference is its cost.
    experiment::MultiJobConfig no_audit = stream_config(seed);
    no_audit.base.faults.audit_interval = 0;
    span = spans.open("run.audit_off", root);
    const Run off = stream_run(no_audit);
    spans.close(span);
    verdict.add("audit off", compare(ref, off, false));
    v["audit.ms"] = 1e3 * (median(ref_s) - off.run_s);

    // Retained mode: the same aggregates, plus the per-job attempt and
    // checkpoint counters the garbage-collecting harness folds away.
    experiment::MultiJobConfig retained = stream_config(seed);
    retained.retain_job_results = true;
    span = spans.open("run.retained", root);
    const Run kept = stream_run(retained);
    spans.close(span);
    fails = compare(ref, kept, true);
    if (kept.values.at("checkpoint.emits") <= 0) {
      fails.push_back("vacuous: checkpoint.emits is 0");
    }
    verdict.add("retained", std::move(fails));
    for (const char* key : {"mapred.tasks", "mapred.attempts",
                            "mapred.speculative_attempts",
                            "mapred.reexecutions", "checkpoint.emits"}) {
      v[key] = kept.values.at(key);
    }
  }
  spans.close(root);

  v["setup.env_ms"] = median(env_ms);
  v["setup.stage_ms"] = median(stage_ms);
  v["mapred.useful_attempt_ratio"] =
      v["mapred.attempts"] > 0 ? v["mapred.tasks"] / v["mapred.attempts"] : 0.0;
  v["simkit.ns_per_event"] = 1e9 * median(ref_s) / v["simkit.events"];
  v["trace.overhead_s"] = median(traced_s) - median(ref_s);

  struct Unit {
    const char* name;
    const char* unit;
  };
  static const Unit kPerLayer[] = {
      {"setup.env_ms", "ms"}, {"setup.stage_ms", "ms"},
      {"simkit.events", "count"}, {"simkit.ns_per_event", "ns"},
      {"simkit.dispatch_ms", "ms"}, {"simkit.settle_ms", "ms"},
      {"simkit.settle_calls", "count"}, {"simkit.recompute_ms", "ms"},
      {"simkit.recompute_calls", "count"}, {"dfs.probe_ms", "ms"},
      {"dfs.probe_calls", "count"}, {"dfs.repl_scan_ms", "ms"},
      {"dfs.repl_scan_calls", "count"}, {"dfs.bytes_read", "B"},
      {"dfs.bytes_written", "B"}, {"dfs.replication_bytes", "B"},
      {"mapred.heartbeat_ms", "ms"}, {"mapred.heartbeats", "count"},
      {"mapred.speculation_ms", "ms"}, {"mapred.speculation_calls", "count"},
      {"mapred.attempts", "count"}, {"mapred.speculative_attempts", "count"},
      {"mapred.reexecutions", "count"}, {"mapred.useful_attempt_ratio", "ratio"},
      {"admission.offered", "count"}, {"admission.rejected", "count"},
      {"admission.shed", "count"}, {"stream.peak_live_jobs", "count"},
      {"stream.peak_retained_kb", "KiB"}, {"stream.latency_p99_s", "s"},
      {"stream.sla_miss_rate", "ratio"}, {"stream.goodput_jobs_per_h", "1/h"},
      {"stream.failed_share", "ratio"}, {"checkpoint.ms", "ms"},
      {"checkpoint.emits", "count"}, {"faults.injected", "count"},
      {"faults.quarantines", "count"}, {"audit.ms", "ms"},
      {"audit.passes", "count"}, {"audit.violations", "count"},
      {"trace.overhead_s", "s"},
  };
  std::vector<Metric> metrics;
  for (const Unit& u : kPerLayer) {
    const auto it = v.find(u.name);
    metrics.push_back({u.name, u.unit, it == v.end() ? 0.0 : it->second});
  }
  std::vector<Metric> self;
  for (const auto& [name, ms] : spans.self_ms()) {
    self.push_back({name, "ms self", ms});
  }
  print_table(std::string(w.name) + " seed " + std::to_string(opt.seed) +
                  ": per-layer (last untraced reference run; profiler keys "
                  "nest, do not sum them)",
              metrics);
  print_table("spans: self time summed per name", self);
  if (!opt.spans_path.empty() && !spans.write(opt.spans_path)) {
    verdict.add("spans", {"cannot write " + opt.spans_path});
  }
  std::cout << "{\"record\": \"traced\", \"meta\": " << meta_json(opt)
            << ", \"pairs\": " << ref_s.size()
            << ", \"reference_run_s\": " << json_number(median(ref_s))
            << ", \"traced_run_s\": " << json_number(median(traced_s))
            << ", \"calibration_ms\": "
            << json_number(1e3 * median(calibration_s))
            << "}"
            << std::endl;
  report_problems(verdict);
  print_result(verdict.correct(), verdict.attempted, verdict.failed, metrics);
  return verdict.correct() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: moonbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--spans PATH] "
               "[--perturb-fingerprint]\n  workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--perturb-fingerprint") {
        opt.perturb = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value);
      } else if (arg == "--commit") {
        opt.commit = value;
      } else if (arg == "--spans") {
        opt.spans_path = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr || (opt.trace != 0 && opt.trace != 1) || opt.seconds <= 0) {
    return usage();
  }
  return opt.trace == 1 ? traced(*w, opt) : untraced(*w, opt);
}
