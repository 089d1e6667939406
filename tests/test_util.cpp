// Tests for lhd/util: rng, check macros, table, cli, stopwatch, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "lhd/util/check.hpp"
#include "lhd/util/cli.hpp"
#include "lhd/util/rng.hpp"
#include "lhd/util/stopwatch.hpp"
#include "lhd/util/table.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd {
namespace {

// ----------------------------------------------------------------- check --

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(LHD_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsError) {
  EXPECT_THROW(LHD_CHECK(false, "context"), Error);
}

TEST(Check, ErrorMessageContainsExpressionAndContext) {
  try {
    LHD_CHECK(2 > 3, "two is not greater");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("two is not greater"), std::string::npos);
  }
}

TEST(Check, StreamedMessageFormats) {
  try {
    LHD_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Check, ErrorIsRuntimeError) {
  EXPECT_THROW(LHD_CHECK(false), std::runtime_error);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextIntSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.next_int(5, 5), 5);
}

TEST(Rng, NextIntInvertedRangeThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.next_int(3, 2), Error);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NextGaussianMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.1);
}

TEST(Rng, NextBoolProbability) {
  Rng rng(17);
  int heads = 0;
  constexpr int n = 10000;
  for (int i = 0; i < n; ++i) heads += rng.next_bool(0.25);
  EXPECT_NEAR(heads / static_cast<double>(n), 0.25, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream must differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedResetsSequence) {
  Rng rng(99);
  const auto first = rng.next_u64();
  rng.next_u64();
  rng.reseed(99);
  EXPECT_EQ(rng.next_u64(), first);
}

// ----------------------------------------------------------------- table --

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, HeaderAfterRowsThrows) {
  Table t("demo");
  t.set_header({"a"});
  t.add_row({"x"});
  EXPECT_THROW(t.set_header({"b"}), Error);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t("csv");
  t.set_header({"a", "b"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(static_cast<long long>(42)), "42");
  EXPECT_EQ(Table::cell(100.0, 0), "100");
}

TEST(Table, RowCount) {
  Table t("n");
  t.set_header({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

// ------------------------------------------------------------------- cli --

TEST(Cli, ParsesStringIntDoubleBool) {
  const char* argv[] = {"prog", "--name=hello", "--count=42",
                        "--ratio=0.5", "--flag"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_string("name"), "hello");
  EXPECT_EQ(cli.get_int("count", 0), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_string("missing", "def"), "def");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, IgnoresPositionalArguments) {
  const char* argv[] = {"prog", "positional", "--x=1"};
  Cli cli(3, argv);
  EXPECT_FALSE(cli.has("positional"));
  EXPECT_EQ(cli.get_int("x", 0), 1);
}

TEST(Cli, ProgramName) {
  const char* argv[] = {"myprog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.program(), "myprog");
}

// -------------------------------------------------------------- stopwatch --

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.seconds(), 0.005);
  EXPECT_LT(sw.seconds(), 5.0);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sw.reset();
  EXPECT_LT(sw.seconds(), 0.010);
}

// ------------------------------------------------------------ thread pool --

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForAwaitsAllChunksWhenOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  bool threw = false;
  try {
    pool.parallel_for(0, 8, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("boom");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      completed.fetch_add(1);
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  // Every non-throwing iteration must have finished before parallel_for
  // returned; the pre-fix code unwound on the first failed future while
  // later chunks still referenced the callback in the dead frame.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPool, ParallelForRethrowsFirstOfManyExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 8,
                        [](std::size_t) { throw std::runtime_error("each"); }),
      std::runtime_error);
}

TEST(ThreadPool, SingleWorkerParallelForRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(0, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, SubmitAfterShutdownReturnsPoolStoppedFuture) {
  ThreadPool pool(2);
  pool.shutdown();
  bool ran = false;
  auto future = pool.submit([&] { ran = true; });
  EXPECT_THROW(future.get(), PoolStopped);
  EXPECT_FALSE(ran);  // the rejected task must never run
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // second call (and the destructor after it) must no-op
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
  }
  pool.shutdown();
  for (auto& f : futures) f.get();  // all were accepted, so all ran
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SubmitShutdownRaceNeverAborts) {
  // Regression: submit used to LHD_CHECK(!stop_) and abort the process
  // when it lost the race against shutdown. Now every submit either runs
  // the task or surfaces PoolStopped through the future — under TSan this
  // also proves the race itself is clean.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(2);
    std::atomic<bool> go{false};
    std::atomic<int> accepted{0}, rejected{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        while (!go.load()) {
        }
        for (int i = 0; i < 64; ++i) {
          auto f = pool.submit([] {});
          try {
            f.get();
            accepted.fetch_add(1);
          } catch (const PoolStopped&) {
            rejected.fetch_add(1);
          }
        }
      });
    }
    go = true;
    pool.shutdown();
    for (auto& t : submitters) t.join();
    EXPECT_EQ(accepted.load() + rejected.load(), 4 * 64);
  }
}

}  // namespace
}  // namespace lhd
