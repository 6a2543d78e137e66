#include "experiment/cli.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace moon::experiment {
namespace {

bool parse_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

void enable_outages(faults::FaultConfig& config) {
  config.outages.enabled = true;
}

void enable_heartbeats(faults::FaultConfig& config, double p) {
  config.heartbeats.enabled = true;
  config.heartbeats.drop_probability = p;
  config.heartbeats.delay_probability = p;
}

void enable_storage(faults::FaultConfig& config, double p) {
  config.storage.enabled = true;
  config.storage.corrupt_probability = p;
  config.storage.reject_probability = p;
}

void enable_stragglers(faults::FaultConfig& config, double fraction) {
  config.stragglers.enabled = true;
  config.stragglers.fraction = fraction;
}

bool parse_int(const std::string& text, int& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0 ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

}  // namespace

bool apply_fault_spec(const std::string& spec, faults::FaultConfig& config) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;

    const std::size_t colon = token.find(':');
    const std::string name = token.substr(0, colon);
    const bool has_value = colon != std::string::npos;
    double value = 0.0;
    if (has_value && !parse_number(token.substr(colon + 1), value)) {
      std::cerr << "--faults: bad value in token '" << token << "'\n";
      return false;
    }

    if (name == "all" && !has_value) {
      enable_outages(config);
      enable_heartbeats(config, 0.05);
      enable_storage(config, 0.02);
      enable_stragglers(config, config.stragglers.fraction);
    } else if (name == "outages" && !has_value) {
      enable_outages(config);
    } else if (name == "heartbeats") {
      enable_heartbeats(config, has_value ? value : 0.05);
    } else if (name == "storage") {
      enable_storage(config, has_value ? value : 0.02);
    } else if (name == "stragglers") {
      enable_stragglers(config,
                        has_value ? value : config.stragglers.fraction);
    } else if (name == "audit") {
      config.audit_interval = sim::seconds(has_value ? value : 60.0);
    } else if (name == "master_crash") {
      config.master_crash.enabled = true;
      if (has_value) config.master_crash.mean_downtime = sim::seconds(value);
    } else {
      std::cerr << "--faults: unknown token '" << token
                << "' (expected all | outages | heartbeats[:P] | storage[:P]"
                   " | stragglers[:F] | audit[:SECONDS]"
                   " | master_crash[:DOWNTIME_SECONDS])\n";
      return false;
    }
    config.enabled = true;
  }
  return true;
}

bool apply_admission_spec(const std::string& spec,
                          mapred::AdmissionConfig& config) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t colon = spec.find(':', pos);
    parts.push_back(spec.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos));
    pos = colon == std::string::npos ? spec.size() + 1 : colon + 1;
  }
  if (parts.empty() || parts.size() > 3) {
    std::cerr << "--admission: expected POLICY[:MAX_QUEUED[:MAX_LIVE_ATTEMPTS]]"
                 ", got '" << spec << "'\n";
    return false;
  }
  if (parts[0] == "reject") {
    config.policy = mapred::AdmissionConfig::Policy::kRejectNewest;
  } else if (parts[0] == "defer") {
    config.policy = mapred::AdmissionConfig::Policy::kDeferWithBackoff;
  } else if (parts[0] == "shed") {
    config.policy = mapred::AdmissionConfig::Policy::kShedLowestPriority;
  } else {
    std::cerr << "--admission: unknown policy '" << parts[0]
              << "' (expected reject | defer | shed)\n";
    return false;
  }
  if (parts.size() >= 2 && !parse_int(parts[1], config.max_queued_jobs)) {
    std::cerr << "--admission: bad MAX_QUEUED '" << parts[1] << "'\n";
    return false;
  }
  if (parts.size() >= 3 && !parse_int(parts[2], config.max_live_attempts)) {
    std::cerr << "--admission: bad MAX_LIVE_ATTEMPTS '" << parts[2] << "'\n";
    return false;
  }
  config.enabled = true;
  return true;
}

double AdmissionCli::deadline_s() const {
  // Half the time range keeps arrival + deadline from overflowing; the
  // comparisons also reject NaN and infinity.
  double seconds = 0.0;
  const bool ok = parse_number(deadline, seconds) && seconds > 0.0 &&
                  seconds <= sim::to_seconds(sim::kTimeMax) / 2;
  return ok ? seconds : 0.0;
}

bool AdmissionCli::apply_deadline(workload::ArrivalConfig& arrivals) const {
  if (deadline.empty()) return true;
  const double seconds = deadline_s();
  if (seconds <= 0.0) {
    std::cerr << "--deadline: expected positive seconds, got '" << deadline
              << "'\n";
    return false;
  }
  for (workload::JobMix& entry : arrivals.mix) {
    entry.model.deadline = sim::seconds(seconds);
  }
  return true;
}

void ObsCli::apply(obs::ObsConfig& config) const {
  if (!trace_path.empty()) config.trace = true;
  if (!metrics_path.empty()) config.metrics = true;
  if (!events_path.empty()) config.capture_log = true;
}

void ObsCli::export_run(const obs::Observability* bundle) const {
  if (bundle == nullptr) return;
  if (!trace_path.empty() && bundle->tracer() != nullptr) {
    std::ofstream out(trace_path);
    bundle->tracer()->write_chrome_trace(out);
    std::cerr << "trace: " << trace_path << " ("
              << bundle->tracer()->event_count() << " events, "
              << bundle->tracer()->dropped() << " dropped)\n";
  }
  if (!metrics_path.empty() && bundle->metrics() != nullptr) {
    std::ofstream out(metrics_path);
    bundle->metrics()->write_csv(out);
    std::cerr << "metrics: " << metrics_path << " ("
              << bundle->metrics()->gauge_count() << " gauges, "
              << bundle->metrics()->sample_count() << " samples)\n";
  }
  if (!events_path.empty()) {
    std::ofstream out(events_path);
    bundle->events().write_jsonl(out);
    std::cerr << "events: " << events_path << " ("
              << bundle->events().size() << " records)\n";
  }
}

Cli parse_cli(int& argc, char** argv) {
  Cli cli;
  const std::pair<const char*, std::string*> flags[] = {
      {"--faults=", &cli.faults.spec},
      {"--admission=", &cli.admission.spec},
      {"--deadline=", &cli.admission.deadline},
      {"--trace=", &cli.obs.trace_path},
      {"--metrics=", &cli.obs.metrics_path},
      {"--events=", &cli.obs.events_path},
  };
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    bool captured = false;
    for (const auto& [prefix, value] : flags) {
      const std::size_t n = std::strlen(prefix);
      if (std::strncmp(argv[i], prefix, n) == 0) {
        *value = argv[i] + n;
        captured = true;
        break;
      }
    }
    if (!captured) argv[kept++] = argv[i];
  }
  argc = kept;
  return cli;
}

}  // namespace moon::experiment
