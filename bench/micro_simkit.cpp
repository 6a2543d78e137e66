// google-benchmark microbenchmarks for the simulation substrate: event
// queue throughput, flow-network churn under both fairness models, and
// trace generation. These bound how much simulated work the figure benches
// can afford.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "simkit/flow_network.hpp"
#include "simkit/simulation.hpp"
#include "trace/trace_generator.hpp"

namespace {

using namespace moon;

void BM_EventScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < events; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_EventCancelHalf(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    std::vector<EventId> ids;
    ids.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i) ids.push_back(sim.schedule_at(i, [] {}));
    for (int i = 0; i < events; i += 2) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventCancelHalf)->Arg(100000);

// Cancel-and-rearm churn: each live event is rescheduled `rearms` times, the
// pattern the flow network's completion event produces. Exercises tombstone
// compaction — without it the heap holds rearms+1 entries per event.
void BM_EventCancelRearm(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  const auto rearms = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::Simulation sim;
    std::vector<EventId> ids;
    ids.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i) ids.push_back(sim.schedule_at(i, [] {}));
    for (int round = 0; round < rearms; ++round) {
      for (int i = 0; i < events; ++i) {
        auto& id = ids[static_cast<std::size_t>(i)];
        sim.cancel(id);
        id = sim.schedule_at(i + round + 1, [] {});
      }
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * events * (rearms + 1));
}
BENCHMARK(BM_EventCancelRearm)
    ->ArgsProduct({{10000}, {4, 16}})
    ->ArgNames({"events", "rearms"});

void BM_FlowChurn(benchmark::State& state) {
  const auto model = state.range(1) == 0 ? sim::FairnessModel::kMaxMin
                                         : sim::FairnessModel::kBottleneckShare;
  const auto concurrent = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::FlowNetwork net(sim, model);
    // A 64-node cluster's worth of resources.
    std::vector<sim::FlowNetwork::ResourceId> resources;
    for (int i = 0; i < 192; ++i) {
      resources.push_back(net.add_resource(mibps(80.0)));
    }
    Rng rng{42};
    int completed = 0;
    // Keep `concurrent` flows alive; each completion starts a replacement.
    std::function<void()> spawn = [&] {
      const auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(resources.size() - 1)));
      const auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(resources.size() - 1)));
      net.start_flow({resources[a], resources[b]}, mib(4.0), [&](FlowId) {
        ++completed;
        if (completed < 2000) spawn();
      });
    };
    for (std::size_t i = 0; i < concurrent; ++i) spawn();
    sim.run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_FlowChurn)
    ->ArgsProduct({{64, 256}, {0, 1}})
    ->ArgNames({"flows", "bshare"});

void BM_TraceGeneration(benchmark::State& state) {
  trace::GeneratorConfig cfg;
  cfg.unavailability_rate = 0.4;
  trace::TraceGenerator gen(cfg);
  Rng rng{7};
  for (auto _ : state) {
    auto fleet = gen.generate_fleet(rng, 60);
    benchmark::DoNotOptimize(fleet.size());
  }
  state.SetItemsProcessed(state.iterations() * 60);
}
BENCHMARK(BM_TraceGeneration);

}  // namespace

BENCHMARK_MAIN();
