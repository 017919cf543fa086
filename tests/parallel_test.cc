// Tests for the thread pool and for the determinism guarantee of the
// parallel sections: any thread count must produce bit-identical results.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "holoclean/core/evaluation.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/util/thread_pool.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

TEST(ThreadPool, RunsAllIterations) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksCoverRangeDisjointly) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(5000);
  pool.ParallelChunks(5000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SingleWorkerInline) {
  ThreadPool pool(1);
  int sum = 0;  // No atomics needed: single worker executes inline.
  pool.ParallelFor(100, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, NestedUseFromResults) {
  // Sequential reuse of the pool for several sections.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(200, [&](size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 5L * 19900L);
}

TEST(ThreadPool, EnqueueRunsEveryTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Enqueue([&count] { count.fetch_add(1); });
    }
    // The destructor drains the queue, so all 100 ran exactly once.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskGroup, RunsAllTasksWithNullPoolInline) {
  TaskGroup group(nullptr);
  int sum = 0;  // Inline execution: no atomics needed.
  for (int i = 0; i < 50; ++i) {
    group.Submit([&sum, i] { sum += i; });
  }
  group.Wait();
  EXPECT_EQ(sum, 1225);
}

TEST(TaskGroup, CallerDrainsGroupWhileWorkersAreBusy) {
  // A single-worker pool whose worker is parked on a gate: the group's
  // tasks can only complete because Wait() runs them on the calling
  // thread. Without caller participation this test would deadlock.
  ThreadPool pool(1);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.Enqueue([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  });
  std::atomic<int> count{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 20; ++i) {
      group.Submit([&count] { count.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(count.load(), 20);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
}

TEST(TaskGroup, NestedGroupsFromPoolTasksComplete) {
  // A pool task that opens its own parallel section (the batch-job shape:
  // jobs run on workers and their stages fan out on the same pool).
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  TaskGroup outer(&pool);
  for (int job = 0; job < 4; ++job) {
    outer.Submit([&pool, &inner_total] {
      pool.ParallelFor(100, [&inner_total](size_t) {
        inner_total.fetch_add(1);
      });
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_total.load(), 400);
}

TEST(ThreadPool, ConcurrentParallelSectionsFromManyThreads) {
  // Several caller threads share one pool; every section's iterations
  // must run exactly once despite interleaving on the shared queue.
  ThreadPool pool(4);
  constexpr size_t kCallers = 4;
  constexpr size_t kIterations = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kIterations);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      pool.ParallelFor(kIterations, [&hits, c](size_t i) {
        hits[c][i].fetch_add(1);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& section : hits) {
    for (const auto& h : section) EXPECT_EQ(h.load(), 1);
  }
}

class ThreadCountSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadCountSweep, ViolationDetectionIdentical) {
  GeneratedData data = MakeHospital({300, 0.08, 81});
  ThreadPool pool(GetParam());
  ViolationDetector::Options options;
  options.pool = &pool;
  ViolationDetector parallel(&data.dataset.dirty(), &data.dcs, options);
  ViolationDetector sequential(&data.dataset.dirty(), &data.dcs);
  auto a = parallel.Detect();
  auto b = sequential.Detect();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dc_index, b[i].dc_index);
    EXPECT_EQ(a[i].t1, b[i].t1);
    EXPECT_EQ(a[i].t2, b[i].t2);
  }
}

TEST_P(ThreadCountSweep, PipelineRepairsIdentical) {
  auto run = [](size_t threads) {
    GeneratedData data = MakeFood({800, 0.06, 82});
    HoloCleanConfig config;
    config.tau = 0.5;
    config.num_threads = threads;
    config.dc_mode = DcMode::kBoth;
    config.partitioning = true;
    config.gibbs_burn_in = 5;
    config.gibbs_samples = 20;
    auto report = test_helpers::RunOnce(config, &data.dataset, data.dcs);
    EXPECT_TRUE(report.ok());
    return report.value().repairs;
  };
  auto sequential = run(1);
  auto parallel = run(GetParam());
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].cell, parallel[i].cell);
    EXPECT_EQ(sequential[i].new_value, parallel[i].new_value);
    EXPECT_DOUBLE_EQ(sequential[i].probability, parallel[i].probability);
  }
}

TEST_P(ThreadCountSweep, PartitionParallelMarginalsMatchSequential) {
  // Partition-parallel grounding + per-component Gibbs chains must produce
  // the same posterior marginals as the fully sequential run (the engine
  // guarantees bit-identical results; assert within a tight tolerance).
  auto marginals_of = [](size_t threads) {
    GeneratedData data = MakeFood({600, 0.06, 83});
    HoloCleanConfig config;
    config.tau = 0.5;
    config.num_threads = threads;
    config.dc_mode = DcMode::kBoth;
    config.partitioning = true;
    config.gibbs_burn_in = 5;
    config.gibbs_samples = 20;
    auto opened = test_helpers::OpenSessionOver(config, &data.dataset, data.dcs);
    EXPECT_TRUE(opened.ok());
    Session session = std::move(opened).value();
    EXPECT_TRUE(session.Run().ok());
    const PipelineContext& ctx = session.context();
    std::vector<std::pair<CellRef, std::vector<double>>> out;
    for (int32_t v : ctx.graph.query_vars()) {
      out.emplace_back(ctx.graph.variable(v).cell, ctx.marginals.Of(v));
    }
    return out;
  };
  auto sequential = marginals_of(1);
  auto parallel = marginals_of(GetParam());
  ASSERT_EQ(sequential.size(), parallel.size());
  ASSERT_FALSE(sequential.empty());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].first, parallel[i].first);
    ASSERT_EQ(sequential[i].second.size(), parallel[i].second.size());
    for (size_t k = 0; k < sequential[i].second.size(); ++k) {
      EXPECT_NEAR(sequential[i].second[k], parallel[i].second[k], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace holoclean
