// Observability bundle: owns a run's Tracer, MetricsRegistry, and EventLog
// and wires them into a Simulation.
//
// Lifecycle:
//   Observability obs(cfg, sim);   // construct (off-pieces stay null)
//   obs.tracer()->name_process…    // wiring: tracks, gauges (Environment)
//   obs.attach();                  // install sim pointers, log sink, sampler
//   … run …
//   obs.finalize();                // final sample, close open spans, detach
//
// finalize() MUST run before the Simulation (and anything the gauges probe)
// dies: gauges capture raw pointers into the environment. The experiment
// run harness calls it before tearing the environment down; after that the
// snapshots (series, trace records, log ring) remain valid and are what
// RunTotals::obs carries out.
//
// Zero-perturbation contract (enforced by tests/obs/perturbation_test):
// everything here only *reads* simulation state. The sampler adds events to
// the queue, but they draw no randomness and mutate nothing, and event
// ordering among the simulation's own events is unaffected (FIFO seq values
// stay strictly increasing). Gauges must never call settle-on-read APIs.
#pragma once

#include <memory>

#include "common/log.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simkit/periodic.hpp"
#include "simkit/simulation.hpp"

namespace moon::obs {

struct ObsConfig {
  bool trace = false;        ///< record spans/instants (Chrome trace export)
  bool metrics = false;      ///< sample gauges on a simulated-time cadence
  bool capture_log = false;  ///< capture moon::log records into the event log
  TraceConfig trace_cfg;
  MetricsConfig metrics_cfg;
  std::size_t event_log_capacity = 65536;
  /// Sink capture threshold when capture_log (or trace) is on.
  log::Level capture_level = log::Level::kDebug;

  [[nodiscard]] bool any() const { return trace || metrics || capture_log; }
};

class Observability {
 public:
  Observability(ObsConfig config, sim::Simulation& sim);
  ~Observability();

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  [[nodiscard]] const ObsConfig& config() const { return config_; }

  /// Null when the corresponding piece is disabled.
  [[nodiscard]] Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] const Tracer* tracer() const { return tracer_.get(); }
  [[nodiscard]] MetricsRegistry* metrics() { return metrics_.get(); }
  [[nodiscard]] const MetricsRegistry* metrics() const {
    return metrics_.get();
  }
  [[nodiscard]] EventLog& events() { return events_; }
  [[nodiscard]] const EventLog& events() const { return events_; }

  /// Installs the simulation pointers and log sink, takes the first metrics
  /// sample, and starts the sampling cadence. Call after gauges are wired.
  void attach();

  /// Final sample, closes open spans at sim.now(), detaches everything.
  /// Idempotent; also run by the destructor as a backstop.
  void finalize();

 private:
  ObsConfig config_;
  sim::Simulation& sim_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  EventLog events_;
  sim::PeriodicTask sampler_;
  bool attached_ = false;
  bool finalized_ = false;
};

}  // namespace moon::obs
