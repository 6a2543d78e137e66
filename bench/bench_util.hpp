// Shared helpers for the per-figure/table bench harnesses.
//
// Each bench binary regenerates one table or figure from the paper: same
// rows/series, our measured values. Absolute numbers differ from System X;
// the *shapes* (orderings, crossovers, rough factors) are the reproduction
// target — see DESIGN.md §6 (calibration).
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/table.hpp"
#include "experiment/cli.hpp"
#include "experiment/scenario.hpp"

namespace moon::bench {

/// Machine-readable bench output: collects flat rows and writes
/// `BENCH_<name>.json` (an array of objects) so the perf trajectory can
/// accumulate across runs. Files land in $MOON_BENCH_JSON_DIR (default:
/// current directory); MOON_BENCH_JSON=0 disables emission entirely.
class JsonEmitter {
 public:
  using Value = std::variant<std::string, double, std::int64_t>;

  explicit JsonEmitter(std::string name) : name_(std::move(name)) {}

  JsonEmitter& begin_row() {
    rows_.emplace_back();
    return *this;
  }
  JsonEmitter& field(const std::string& key, Value value) {
    if (rows_.empty()) begin_row();
    rows_.back().emplace_back(key, std::move(value));
    return *this;
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "  {";
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        os << '"' << escape(rows_[r][f].first) << "\": ";
        const Value& v = rows_[r][f].second;
        if (const auto* s = std::get_if<std::string>(&v)) {
          os << '"' << escape(*s) << '"';
        } else if (const auto* d = std::get_if<double>(&v)) {
          os << *d;
        } else {
          os << std::get<std::int64_t>(v);
        }
        if (f + 1 < rows_[r].size()) os << ", ";
      }
      os << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    os << "]\n";
    return os.str();
  }

  /// Writes BENCH_<name>.json; returns the path, or "" when disabled.
  std::string write() const {
    if (const char* flag = std::getenv("MOON_BENCH_JSON")) {
      if (std::string(flag) == "0") return {};
    }
    std::string dir = ".";
    if (const char* env = std::getenv("MOON_BENCH_JSON_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) return {};
    out << to_json();
    return path;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, Value>>> rows_;
};

/// `--trace=FILE` / `--metrics=FILE` / `--events=FILE` / `--faults=SPEC`
/// support for the fig benches. A bench sweeps many configurations;
/// exporting every run would overwrite itself, so the convention is:
/// collection is enabled on every swept config and the *last* finished
/// run's bundle wins — rerun with a narrower sweep (e.g. MOON_BENCH_REPS=1)
/// to trace a specific cell. `--faults=` layers the same chaos spec on every
/// swept config. All no-ops when no flag was given.
class ObsBench {
 public:
  ObsBench(int& argc, char** argv)
      : cli_(experiment::parse_cli(argc, argv)) {}

  [[nodiscard]] bool any() const { return cli_.obs.any(); }

  /// Switches collection / fault injection on for `cfg` when flags were
  /// given. A malformed --faults= spec exits (already reported to stderr).
  void apply(experiment::ScenarioConfig& cfg) const {
    cli_.obs.apply(cfg.obs);
    if (!cli_.faults.apply(cfg.faults)) std::exit(2);
  }

  /// run_repetitions observer: remembers the latest run's bundle.
  [[nodiscard]] std::function<void(const experiment::RunResult&)> observer() {
    if (!cli_.obs.any()) return {};
    return [this](const experiment::RunResult& run) {
      if (run.obs) bundle_ = run.obs;
    };
  }

  /// Writes the captured bundle's exports (call once, at bench exit).
  void export_all() const { cli_.obs.export_run(bundle_.get()); }

 private:
  experiment::Cli cli_;
  std::shared_ptr<obs::Observability> bundle_;
};

/// Repetitions per configuration; override with MOON_BENCH_REPS.
inline int repetitions() {
  if (const char* env = std::getenv("MOON_BENCH_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 3;
}

/// The unavailability rates every figure sweeps.
inline const std::vector<double>& rates() {
  static const std::vector<double> kRates{0.1, 0.3, 0.5};
  return kRates;
}

/// Formats "mean" or "DNF" when not all repetitions completed.
inline std::string time_cell(const experiment::Summary& summary) {
  std::string cell = Table::num(summary.execution_time_s.mean(), 0);
  if (summary.completed_runs < summary.total_runs) {
    cell += " (" + std::to_string(summary.total_runs - summary.completed_runs) +
            " DNF)";
  }
  return cell;
}

/// Scenario skeleton for the paper's testbed: 60 volatile + 6 dedicated
/// nodes, MOON data management, {1,3} input/output replication.
inline experiment::ScenarioConfig paper_testbed() {
  experiment::ScenarioConfig cfg;
  cfg.volatile_nodes = 60;
  cfg.dedicated_nodes = 6;
  cfg.dedicated_known = true;
  cfg.dfs = experiment::moon_dfs_config();
  cfg.input_factor = {1, 3};
  cfg.output_factor = {1, 3};
  cfg.seed = 20100621;  // HPDC 2010 :-)
  return cfg;
}

struct PolicyVariant {
  std::string name;
  mapred::SchedulerConfig sched;
};

/// The five §VI-A scheduling policy variants.
inline std::vector<PolicyVariant> scheduling_policies() {
  return {
      {"Hadoop10Min", experiment::hadoop_scheduler(10 * sim::kMinute)},
      {"Hadoop5Min", experiment::hadoop_scheduler(5 * sim::kMinute)},
      {"Hadoop1Min", experiment::hadoop_scheduler(1 * sim::kMinute)},
      {"MOON", experiment::moon_scheduler(false)},
      {"MOON-Hybrid", experiment::moon_scheduler(true)},
  };
}

}  // namespace moon::bench
