// Shared command-line flags for examples and benches.
//
// parse_cli() makes one pass over argv: it captures the flags below and
// compacts the remaining (positional) arguments in place, in their original
// order, updating argc. A repeated flag keeps its last value; an empty value
// counts as absent. Values are checked where they are applied: a malformed
// one is reported to stderr and the apply call returns false, on which
// callers exit non-zero.
//
//   --faults=SPEC      comma-separated chaos tokens (apply_fault_spec):
//       all              every fault class at its canonical chaos level
//       outages          correlated lab power-cycles (config defaults)
//       heartbeats[:P]   heartbeat loss/delay; P sets both probabilities (0.05)
//       storage[:P]      replica corruption + disk-full; P sets both (0.02)
//       stragglers[:F]   seeded capacity degradation; F = fleet fraction (0.1)
//       audit[:SECONDS]  periodic invariant auditor sweep (60)
//       master_crash[:DOWNTIME_SECONDS]  NameNode/JobTracker crash-recovery
//   --admission=POLICY[:MAX_QUEUED[:MAX_LIVE_ATTEMPTS]]   (DESIGN.md §16)
//       POLICY is reject | defer | shed. MAX_QUEUED caps unfinished
//       admitted jobs (default 8, 0 = unlimited); MAX_LIVE_ATTEMPTS caps
//       in-flight attempts (default 0 = unlimited).
//   --deadline=SECONDS  relative SLA deadline (> 0) stamped on every model
//       of the workload mix, for kDeadlineEdf runs and SLA-miss accounting
//   --trace=FILE       Chrome trace-event JSON (open in ui.perfetto.dev)
//   --metrics=FILE     gauge time-series CSV (one row per sampling tick)
//   --events=FILE      structured event log as JSONL
//
// e.g. `quickstart --faults=all,audit:30`,
//      `multi_job --admission=defer:4:40 --deadline=1800 --trace=t.json`.
#pragma once

#include <string>

#include "faults/fault_config.hpp"
#include "mapred/types.hpp"
#include "obs/observability.hpp"
#include "workload/arrival.hpp"

namespace moon::experiment {

/// Parses one chaos spec token list into `config` (additive — earlier
/// settings survive unless a token overwrites them). Returns false and
/// reports to stderr on a malformed token; `config` may be partially
/// updated in that case.
bool apply_fault_spec(const std::string& spec, faults::FaultConfig& config);

/// Parses one POLICY[:MAX_QUEUED[:MAX_LIVE_ATTEMPTS]] spec into `config`
/// (sets enabled = true). Returns false and reports to stderr on a
/// malformed spec; `config` may be partially updated in that case.
bool apply_admission_spec(const std::string& spec,
                          mapred::AdmissionConfig& config);

struct FaultCli {
  std::string spec;  ///< raw --faults= value; empty when the flag was absent

  [[nodiscard]] bool any() const { return !spec.empty(); }

  /// Applies the captured spec; no-op when the flag was absent.
  bool apply(faults::FaultConfig& config) const {
    return spec.empty() || apply_fault_spec(spec, config);
  }
};

struct AdmissionCli {
  std::string spec;      ///< raw --admission= value; empty when absent
  std::string deadline;  ///< raw --deadline= value; empty when absent

  /// Applies the captured admission spec; no-op when the flag was absent.
  bool apply(mapred::AdmissionConfig& config) const {
    return spec.empty() || apply_admission_spec(spec, config);
  }

  /// The --deadline value in seconds; 0 when absent or malformed.
  [[nodiscard]] double deadline_s() const;

  /// Stamps the captured --deadline onto every model of `arrivals.mix`;
  /// no-op when the flag was absent, false on a malformed value.
  bool apply_deadline(workload::ArrivalConfig& arrivals) const;
};

struct ObsCli {
  std::string trace_path;
  std::string metrics_path;
  std::string events_path;

  [[nodiscard]] bool any() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !events_path.empty();
  }

  /// Enables the ObsConfig pieces the requested exports need.
  void apply(obs::ObsConfig& config) const;

  /// Writes the requested export files from a finalized bundle; prints one
  /// confirmation line per file to stderr. No-op on null `bundle` (obs was
  /// never enabled) — callers can pass RunTotals::obs.get() unconditionally.
  void export_run(const obs::Observability* bundle) const;
};

struct Cli {
  FaultCli faults;
  AdmissionCli admission;
  ObsCli obs;
};

/// Extracts every flag above from argv, compacting the remaining arguments
/// in place and updating argc.
Cli parse_cli(int& argc, char** argv);

}  // namespace moon::experiment
