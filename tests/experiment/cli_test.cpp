// Shared command-line flags: one argv pass captures every flag, leaves the
// positional arguments in order, and malformed values fail at apply time.
#include "experiment/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace moon::experiment {
namespace {

/// Owns mutable argv storage for one parse_cli call.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& s : storage) pointers.push_back(s.data());
    argc = static_cast<int>(pointers.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> pointers;
  int argc = 0;

  [[nodiscard]] std::vector<std::string> remaining() const {
    return {pointers.begin(), pointers.begin() + argc};
  }
};

TEST(Cli, CapturesEveryFlagAndKeepsPositionalsInOrder) {
  Argv args({"prog", "0.4", "--faults=all,audit:30", "first",
             "--admission=defer:4:40", "--deadline=1800", "second",
             "--trace=t.json", "--metrics=m.csv", "--events=e.jsonl", "third"});
  const Cli cli = parse_cli(args.argc, args.pointers.data());
  EXPECT_EQ(args.remaining(),
            (std::vector<std::string>{"prog", "0.4", "first", "second",
                                      "third"}));
  EXPECT_EQ(cli.faults.spec, "all,audit:30");
  EXPECT_EQ(cli.admission.spec, "defer:4:40");
  EXPECT_EQ(cli.admission.deadline, "1800");
  EXPECT_EQ(cli.obs.trace_path, "t.json");
  EXPECT_EQ(cli.obs.metrics_path, "m.csv");
  EXPECT_EQ(cli.obs.events_path, "e.jsonl");
}

TEST(Cli, AbsentFlagsApplyAsNoOps) {
  Argv args({"prog", "--unknown=1", "x"});
  const Cli cli = parse_cli(args.argc, args.pointers.data());
  // Flags the pass does not know stay positional.
  EXPECT_EQ(args.remaining(),
            (std::vector<std::string>{"prog", "--unknown=1", "x"}));
  EXPECT_FALSE(cli.faults.any());
  EXPECT_FALSE(cli.obs.any());

  faults::FaultConfig faults;
  EXPECT_TRUE(cli.faults.apply(faults));
  EXPECT_FALSE(faults.enabled);
  mapred::AdmissionConfig admission;
  EXPECT_TRUE(cli.admission.apply(admission));
  EXPECT_FALSE(admission.enabled);
  workload::ArrivalConfig arrivals;
  arrivals.mix = {{workload::sort_workload(), 1.0}};
  EXPECT_TRUE(cli.admission.apply_deadline(arrivals));
  EXPECT_EQ(arrivals.mix.front().model.deadline, 0);
  EXPECT_EQ(cli.admission.deadline_s(), 0.0);
  obs::ObsConfig obs;
  cli.obs.apply(obs);
  EXPECT_FALSE(obs.any());
}

TEST(Cli, RepeatedFlagKeepsLastValue) {
  Argv args({"prog", "--faults=outages", "--faults=storage:0.05"});
  const Cli cli = parse_cli(args.argc, args.pointers.data());
  EXPECT_EQ(args.argc, 1);
  EXPECT_EQ(cli.faults.spec, "storage:0.05");
}

TEST(Cli, FaultSpecAppliesEveryTokenAndRejectsBadOnes) {
  const FaultCli cli{
      "heartbeats:0.1,storage,stragglers:0.2,audit:30,master_crash:45"};
  faults::FaultConfig config;
  ASSERT_TRUE(cli.apply(config));
  EXPECT_TRUE(config.enabled);
  EXPECT_TRUE(config.heartbeats.enabled);
  EXPECT_DOUBLE_EQ(config.heartbeats.drop_probability, 0.1);
  EXPECT_TRUE(config.storage.enabled);
  EXPECT_DOUBLE_EQ(config.storage.corrupt_probability, 0.02);
  EXPECT_DOUBLE_EQ(config.stragglers.fraction, 0.2);
  EXPECT_EQ(config.audit_interval, 30 * sim::kSecond);
  EXPECT_TRUE(config.master_crash.enabled);
  EXPECT_EQ(config.master_crash.mean_downtime, 45 * sim::kSecond);

  for (const char* bad : {"bogus", "heartbeats:x", "all:1", "storage:"}) {
    SCOPED_TRACE(bad);
    faults::FaultConfig c;
    EXPECT_FALSE(FaultCli{bad}.apply(c));
  }
}

TEST(Cli, AdmissionSpecParsesPolicyAndCaps) {
  const AdmissionCli cli{"shed:6:40", ""};
  mapred::AdmissionConfig config;
  ASSERT_TRUE(cli.apply(config));
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.policy,
            mapred::AdmissionConfig::Policy::kShedLowestPriority);
  EXPECT_EQ(config.max_queued_jobs, 6);
  EXPECT_EQ(config.max_live_attempts, 40);

  for (const char* bad : {"lifo", "reject:-1", "defer:4:x", "reject:1:2:3",
                          "shed:99999999999"}) {
    SCOPED_TRACE(bad);
    mapred::AdmissionConfig c;
    EXPECT_FALSE((AdmissionCli{bad, ""}.apply(c)));
  }
}

TEST(Cli, DeadlineStampsEveryModel) {
  const AdmissionCli cli{"", "1800"};
  EXPECT_DOUBLE_EQ(cli.deadline_s(), 1800.0);
  workload::ArrivalConfig arrivals;
  arrivals.mix = {{workload::sort_workload(), 1.0},
                  {workload::wordcount_workload(), 1.0}};
  ASSERT_TRUE(cli.apply_deadline(arrivals));
  for (const workload::JobMix& entry : arrivals.mix) {
    EXPECT_EQ(entry.model.deadline, 1800 * sim::kSecond);
  }
}

// A malformed --deadline fails at apply time like a malformed --faults,
// rather than being reported and silently dropped.
TEST(Cli, MalformedDeadlineFailsToApply) {
  for (const char* bad : {"abc", "-5", "0", "12s", "inf", "nan", "1e300"}) {
    SCOPED_TRACE(bad);
    Argv args({"prog", std::string("--deadline=") + bad});
    const Cli cli = parse_cli(args.argc, args.pointers.data());
    EXPECT_EQ(args.argc, 1);
    EXPECT_EQ(cli.admission.deadline_s(), 0.0);
    workload::ArrivalConfig arrivals;
    arrivals.mix = {{workload::sort_workload(), 1.0}};
    EXPECT_FALSE(cli.admission.apply_deadline(arrivals));
    EXPECT_EQ(arrivals.mix.front().model.deadline, 0);
  }
}

TEST(Cli, ObsFlagsEnableTheirPieces) {
  const ObsCli cli{"t.json", "", "e.jsonl"};
  EXPECT_TRUE(cli.any());
  obs::ObsConfig config;
  cli.apply(config);
  EXPECT_TRUE(config.trace);
  EXPECT_FALSE(config.metrics);
  EXPECT_TRUE(config.capture_log);
}

}  // namespace
}  // namespace moon::experiment
