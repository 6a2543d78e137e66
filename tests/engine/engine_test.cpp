#include "engine/mapreduce.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "engine/record.hpp"

namespace moon::engine {
namespace {

MapFn wordcount_map() {
  return [](const Record& r, const Emit& emit) {
    for (const auto& word : tokenize(r.value)) emit({word, "1"});
  };
}

ReduceFn counting_reduce() {
  return [](const std::string& key, const std::vector<std::string>& values,
            const Emit& emit) {
    long total = 0;
    for (const auto& v : values) total += std::stol(v);
    emit({key, std::to_string(total)});
  };
}

TEST(Engine, WordCountOnSmallText) {
  MapReduceJob job(wordcount_map(), counting_reduce());
  const auto input = records_from_lines("the quick brown fox\nthe lazy dog\nthe end");
  const auto result = job.run(input);

  std::map<std::string, std::string> counts;
  for (const auto& r : result.output) counts[r.key] = r.value;
  EXPECT_EQ(counts["the"], "3");
  EXPECT_EQ(counts["quick"], "1");
  EXPECT_EQ(counts["dog"], "1");
  EXPECT_EQ(counts.size(), 7u);
  EXPECT_EQ(result.metrics.output_records, 7u);
}

TEST(Engine, OutputIsSortedByKey) {
  MapReduceJob job(wordcount_map(), counting_reduce());
  const auto result = job.run(records_from_lines("b a c b a"));
  ASSERT_EQ(result.output.size(), 3u);
  EXPECT_EQ(result.output[0].key, "a");
  EXPECT_EQ(result.output[1].key, "b");
  EXPECT_EQ(result.output[2].key, "c");
}

TEST(Engine, IdentityJobSortsRecords) {
  // The paper's `sort` benchmark: identity map + identity reduce; the
  // framework's grouping/ordering does the sorting.
  MapReduceJob job(
      [](const Record& r, const Emit& emit) { emit(r); },
      [](const std::string& key, const std::vector<std::string>& values,
         const Emit& emit) {
        for (const auto& v : values) emit({key, v});
      },
      EngineConfig{.num_map_tasks = 4, .num_reduce_tasks = 3});
  Records input;
  for (int i = 99; i >= 0; --i) {
    input.push_back({std::string("k") + std::to_string(1000 + i),
                     std::string("v") + std::to_string(i)});
  }
  const auto result = job.run(input);
  ASSERT_EQ(result.output.size(), 100u);
  EXPECT_TRUE(std::is_sorted(result.output.begin(), result.output.end()));
  EXPECT_EQ(result.output.front().key, "k1000");
  EXPECT_EQ(result.output.back().key, "k1099");
}

TEST(Engine, EmptyInputYieldsEmptyOutput) {
  MapReduceJob job(wordcount_map(), counting_reduce());
  const auto result = job.run({});
  EXPECT_TRUE(result.output.empty());
  EXPECT_GE(result.metrics.map_tasks, 1);
}

TEST(Engine, CombinerPreAggregatesIntermediateData) {
  MapReduceJob with(wordcount_map(), counting_reduce(),
                    EngineConfig{.num_map_tasks = 2, .num_reduce_tasks = 2});
  with.set_combiner(counting_reduce());
  MapReduceJob without(wordcount_map(), counting_reduce(),
                       EngineConfig{.num_map_tasks = 2, .num_reduce_tasks = 2});

  std::string text;
  for (int i = 0; i < 500; ++i) text += "alpha beta alpha\n";
  const auto input = records_from_lines(text);

  const auto a = with.run(input);
  const auto b = without.run(input);
  // Same answer...
  EXPECT_EQ(a.output, b.output);
  // ...but far fewer intermediate records cross the shuffle.
  EXPECT_LT(a.metrics.intermediate_records, b.metrics.intermediate_records / 10);
}

TEST(Engine, MapTaskCountHonoursConfig) {
  MapReduceJob job(wordcount_map(), counting_reduce(),
                   EngineConfig{.num_map_tasks = 7});
  const auto result = job.run(records_from_lines("a b c"));
  EXPECT_EQ(result.metrics.map_tasks, 7);
}

TEST(Engine, AutomaticSplittingByRecordCount) {
  MapReduceJob job(wordcount_map(), counting_reduce(),
                   EngineConfig{.num_map_tasks = 0, .records_per_split = 10});
  Records input;
  for (int i = 0; i < 95; ++i) input.push_back({std::to_string(i), "x"});
  const auto result = job.run(input);
  EXPECT_EQ(result.metrics.map_tasks, 10);  // ceil(95/10)
}

TEST(Engine, FailedAttemptsAreRetried) {
  MapReduceJob job(wordcount_map(), counting_reduce(),
                   EngineConfig{.num_map_tasks = 3, .num_reduce_tasks = 2,
                                .max_attempts = 4});
  // First two attempts of map task 1 fail; everything else succeeds.
  job.set_fault_injector([](const TaskContext& ctx) {
    return ctx.is_map && ctx.task_index == 1 && ctx.attempt < 2;
  });
  const auto result = job.run(records_from_lines("a b\nc d\ne f"));
  EXPECT_EQ(result.metrics.failed_attempts, 2);
  EXPECT_GT(result.metrics.map_attempts, 3);
  EXPECT_EQ(result.output.size(), 6u);  // correct despite the failures
}

TEST(Engine, ReduceFailuresAreRetriedToo) {
  MapReduceJob job(wordcount_map(), counting_reduce(),
                   EngineConfig{.num_reduce_tasks = 2, .max_attempts = 3});
  std::atomic<int> injected{0};
  job.set_fault_injector([&](const TaskContext& ctx) {
    if (!ctx.is_map && ctx.attempt == 0) {
      ++injected;
      return true;
    }
    return false;
  });
  const auto result = job.run(records_from_lines("x y z"));
  EXPECT_EQ(injected.load(), 2);  // both reduce tasks failed once
  EXPECT_EQ(result.output.size(), 3u);
}

TEST(Engine, JobFailsWhenAttemptsExhausted) {
  MapReduceJob job(wordcount_map(), counting_reduce(),
                   EngineConfig{.num_map_tasks = 2, .max_attempts = 3});
  job.set_fault_injector([](const TaskContext& ctx) {
    return ctx.is_map && ctx.task_index == 0;  // always fails
  });
  EXPECT_THROW(job.run(records_from_lines("a b c")), JobFailedError);
}

TEST(Engine, UserExceptionsCountAsFailures) {
  int calls = 0;
  MapReduceJob job(
      [&calls](const Record& r, const Emit& emit) {
        if (r.value == "poison" && calls++ == 0) {
          throw std::runtime_error("bad record");
        }
        emit({r.value, "1"});
      },
      counting_reduce(), EngineConfig{.num_map_tasks = 1, .max_attempts = 2});
  const auto result = job.run({{"0", "poison"}});
  EXPECT_EQ(result.metrics.failed_attempts, 1);
  EXPECT_EQ(result.output.size(), 1u);
}

TEST(Engine, DeterministicAcrossThreadCounts) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += std::string("w") + std::to_string(i % 17) + " w" +
            std::to_string(i % 5) + "\n";
  }
  const auto input = records_from_lines(text);

  MapReduceJob one(wordcount_map(), counting_reduce(),
                   EngineConfig{.num_map_tasks = 8, .num_reduce_tasks = 3,
                                .threads = 1});
  MapReduceJob many(wordcount_map(), counting_reduce(),
                    EngineConfig{.num_map_tasks = 8, .num_reduce_tasks = 3,
                                 .threads = 8});
  EXPECT_EQ(one.run(input).output, many.run(input).output);
}

TEST(Engine, RejectsBadConfig) {
  EXPECT_THROW(MapReduceJob(nullptr, counting_reduce()), std::logic_error);
  EXPECT_THROW(MapReduceJob(wordcount_map(), nullptr), std::logic_error);
  EXPECT_THROW(MapReduceJob(wordcount_map(), counting_reduce(),
                            EngineConfig{.num_reduce_tasks = 0}),
               std::logic_error);
  EXPECT_THROW(MapReduceJob(wordcount_map(), counting_reduce(),
                            EngineConfig{.max_attempts = 0}),
               std::logic_error);
}

TEST(Records, FromLinesNumbersKeys) {
  const auto records = records_from_lines("alpha\nbeta\n\ngamma");
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], (Record{"0", "alpha"}));
  EXPECT_EQ(records[2], (Record{"2", ""}));
  EXPECT_EQ(records[3], (Record{"3", "gamma"}));
}

TEST(Records, TokenizeHandlesWhitespaceRuns) {
  EXPECT_EQ(tokenize("  a\t b\n\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(tokenize("   ").empty());
  EXPECT_TRUE(tokenize("").empty());
}

/// Property sweep: word counts are exact for any partition/split geometry.
class EngineGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineGeometry, CountsAreExact) {
  const auto [maps, reduces] = GetParam();
  MapReduceJob job(wordcount_map(), counting_reduce(),
                   EngineConfig{.num_map_tasks = maps,
                                .num_reduce_tasks = reduces});
  std::string text;
  for (int i = 0; i < 100; ++i) text += "tok" + std::to_string(i % 7) + "\n";
  const auto result = job.run(records_from_lines(text));
  ASSERT_EQ(result.output.size(), 7u);
  long total = 0;
  for (const auto& r : result.output) total += std::stol(r.value);
  EXPECT_EQ(total, 100);
}

INSTANTIATE_TEST_SUITE_P(Geometries, EngineGeometry,
                         ::testing::Combine(::testing::Values(1, 3, 16),
                                            ::testing::Values(1, 2, 8)));

}  // namespace
}  // namespace moon::engine
