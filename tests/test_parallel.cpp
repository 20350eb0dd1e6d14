// The deterministic work-sharding harness (src/harness/parallel.hpp):
// static sharding, inline serial degeneration, exception surfacing,
// jobs-independent seed derivation, group sharding, per-worker
// contexts, and the per-worker metrics merge.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/parallel.hpp"
#include "obs/metrics.hpp"

using namespace koika;
using namespace koika::harness;

TEST(ResolveJobs, PositivePassesThroughZeroMeansHardware)
{
    EXPECT_EQ(resolve_jobs(1), 1);
    EXPECT_EQ(resolve_jobs(7), 7);
    int hw = resolve_jobs(0);
    EXPECT_GE(hw, 1);
    EXPECT_EQ(resolve_jobs(-3), hw);
}

TEST(DeriveSeed, IsDeterministicAndSpreadsItems)
{
    EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
    std::set<uint64_t> seeds;
    for (uint64_t i = 0; i < 1000; ++i)
        seeds.insert(derive_seed(42, i));
    EXPECT_EQ(seeds.size(), 1000u);
    // Different base seeds diverge too.
    EXPECT_NE(derive_seed(42, 5), derive_seed(43, 5));
}

TEST(ParallelFor, VisitsEveryItemExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        std::vector<std::atomic<int>> visits(100);
        parallel_for(100, jobs, [&](const Shard& s) { visits[s.first]++; });
        for (auto& v : visits)
            EXPECT_EQ(v.load(), 1) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, ZeroItemsIsANoOp)
{
    parallel_for(0, 4, [&](const Shard&) { FAIL(); });
}

TEST(ParallelFor, GroupsAreContiguousWithAShortLastGroup)
{
    for (int jobs : {1, 3}) {
        std::vector<std::atomic<int>> visits(10);
        std::vector<std::pair<uint64_t, uint64_t>> groups(3);
        parallel_for(
            10, jobs,
            [&](const Shard& s) {
                groups[s.first / 4] = {s.first, s.count};
                for (uint64_t i = s.first; i < s.first + s.count; ++i)
                    visits[i]++;
            },
            {.group = 4});
        for (auto& v : visits)
            EXPECT_EQ(v.load(), 1) << "jobs=" << jobs;
        EXPECT_EQ(groups[0], std::make_pair(uint64_t{0}, uint64_t{4}));
        EXPECT_EQ(groups[1], std::make_pair(uint64_t{4}, uint64_t{4}));
        EXPECT_EQ(groups[2], std::make_pair(uint64_t{8}, uint64_t{2}));
    }
}

TEST(ThreadPool, StaticShardingItemToWorkerIsIModJobs)
{
    ThreadPool pool(4);
    ASSERT_EQ(pool.jobs(), 4);
    std::vector<int> worker_of(64, -1);
    pool.run(64, [&](uint64_t i, int w) { worker_of[i] = w; });
    for (uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(worker_of[i], (int)(i % 4));
}

TEST(ThreadPool, EachWorkerWalksItsItemsInIncreasingOrder)
{
    ThreadPool pool(3);
    std::mutex mu;
    std::vector<std::vector<uint64_t>> order(3);
    pool.run(50, [&](uint64_t i, int w) {
        std::lock_guard<std::mutex> lock(mu);
        order[w].push_back(i);
    });
    for (int w = 0; w < 3; ++w) {
        for (size_t k = 1; k < order[w].size(); ++k)
            EXPECT_LT(order[w][k - 1], order[w][k]);
    }
}

TEST(ThreadPool, SerialPoolRunsInlineOnTheCallingThread)
{
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    bool inline_run = false;
    pool.run(5, [&](uint64_t, int worker) {
        inline_run = std::this_thread::get_id() == caller && worker == 0;
    });
    EXPECT_TRUE(inline_run);
}

TEST(ThreadPool, IsReusableAcrossRuns)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int round = 0; round < 10; ++round)
        pool.run(7, [&](uint64_t, int) { total++; });
    EXPECT_EQ(total.load(), 70);
}

TEST(ThreadPool, RethrowsLowestItemsExceptionLikeASerialRun)
{
    for (int jobs : {1, 4}) {
        ThreadPool pool(jobs);
        std::atomic<int> ran{0};
        try {
            pool.run(20, [&](uint64_t i, int) {
                ran++;
                if (i == 3 || i == 11)
                    throw std::runtime_error("item " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "item 3") << "jobs=" << jobs;
        }
        // The pool joins before rethrowing: every item still ran.
        EXPECT_EQ(ran.load(), 20) << "jobs=" << jobs;
    }
}

TEST(ParallelForMetrics, MergedCountersMatchSerialTally)
{
    auto work = [](const Shard& s) {
        s.metrics->inc("items");
        s.metrics->inc("weighted", s.first);
        s.metrics->observe("value", (double)(s.first % 5));
    };
    obs::MetricsRegistry serial;
    parallel_for(40, 1, work, {.metrics = &serial});
    obs::MetricsRegistry sharded;
    parallel_for(40, 8, work, {.metrics = &sharded});
    EXPECT_EQ(serial.to_json().dump(2), sharded.to_json().dump(2));
    EXPECT_EQ(sharded.counter("items"), 40u);
    EXPECT_EQ(sharded.counter("weighted"), (uint64_t)40 * 39 / 2);
}

TEST(MetricsMerge, CountersAddGaugesTakeOtherHistogramsFold)
{
    obs::MetricsRegistry a, b;
    a.inc("c", 2);
    b.inc("c", 3);
    b.inc("only_b");
    a.set_gauge("g", 1.0);
    b.set_gauge("g", 7.0);
    a.observe("h", 0.5);
    b.observe("h", 2.0);
    a.merge_from(b);
    EXPECT_EQ(a.counter("c"), 5u);
    EXPECT_EQ(a.counter("only_b"), 1u);
    EXPECT_EQ(a.gauge("g"), 7.0);
    ASSERT_NE(a.histogram("h"), nullptr);
    EXPECT_EQ(a.histogram("h")->total, 2u);
    EXPECT_DOUBLE_EQ(a.histogram("h")->sum, 2.5);
}

TEST(MetricsMerge, MergingAnEmptyRegistryIsIdentity)
{
    obs::MetricsRegistry a, empty;
    a.inc("c", 4);
    a.set_gauge("g", 2.5);
    std::string before = a.to_json().dump(2);
    a.merge_from(empty);
    EXPECT_EQ(a.to_json().dump(2), before);
}

// -- Per-worker contexts (WorkerContext/ContextFactory): the hooks the
// warm fault-trial loop hangs its per-worker state on. Contexts must be
// created lazily on the owning worker, be stable for every item that
// worker handles, and live exactly as long as one parallel_for call.

namespace {

struct CountingContext final : WorkerContext
{
    explicit CountingContext(std::atomic<int>* live) : live_(live)
    {
        ++*live_;
    }
    ~CountingContext() override { --*live_; }
    std::atomic<int>* live_;
};

} // namespace

TEST(ThreadPool, ContextsLiveExactlyOneRunBatch)
{
    std::atomic<int> live{0};
    std::atomic<int> created{0};
    ContextFactory make = [&](int) {
        created++;
        return std::make_unique<CountingContext>(&live);
    };
    for (int round = 0; round < 2; ++round) {
        parallel_for(
            12, 3,
            [&](const Shard& s) {
                ASSERT_NE(s.context, nullptr);
                EXPECT_GE(live.load(), 1);
            },
            {.context = make});
        // Teardown happens before parallel_for returns — never later:
        // a context may pin a whole model pair, and the next call may
        // use a different factory.
        EXPECT_EQ(live.load(), 0) << "round " << round;
    }
    // Fresh contexts each round: 3 workers x 2 rounds.
    EXPECT_EQ(created.load(), 6);
}

TEST(ThreadPool, EachWorkerSeesOneStableContextPerRun)
{
    std::atomic<int> live{0};
    std::vector<WorkerContext*> ctx_of(40, nullptr);
    parallel_for(
        40, 4, [&](const Shard& s) { ctx_of[s.first] = s.context; },
        {.context = [&](int) {
             return std::make_unique<CountingContext>(&live);
         }});
    // Static sharding: item i belongs to worker i % 4, and every item
    // of a worker saw the same context object.
    for (uint64_t i = 0; i < 40; ++i) {
        ASSERT_NE(ctx_of[i], nullptr) << "item " << i;
        EXPECT_EQ(ctx_of[i], ctx_of[i % 4]) << "item " << i;
    }
    std::set<WorkerContext*> distinct(ctx_of.begin(), ctx_of.end());
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(live.load(), 0);
}

TEST(ThreadPool, SerialContextRunStaysInlineAndTearsDown)
{
    std::atomic<int> live{0};
    std::thread::id caller = std::this_thread::get_id();
    bool inline_run = false;
    parallel_for(
        5, 1,
        [&](const Shard& s) {
            ASSERT_NE(s.context, nullptr);
            inline_run = std::this_thread::get_id() == caller;
        },
        {.context = [&](int) {
             return std::make_unique<CountingContext>(&live);
         }});
    EXPECT_TRUE(inline_run);
    EXPECT_EQ(live.load(), 0);
}

TEST(ParallelForCtx, ContextsTornDownEvenWhenAnItemThrows)
{
    std::atomic<int> live{0};
    try {
        parallel_for(
            16, 4,
            [&](const Shard& s) {
                if (s.first == 5)
                    throw std::runtime_error("item 5");
            },
            {.context = [&](int) {
                 return std::make_unique<CountingContext>(&live);
             }});
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "item 5");
    }
    EXPECT_EQ(live.load(), 0);
}

TEST(ParallelForMetrics, CompletedShardsMergeEvenWhenAnItemThrows)
{
    // A failed campaign must still report accurate trial counters:
    // the merge happens before the lowest-item exception resurfaces.
    obs::MetricsRegistry merged;
    std::atomic<int> ran{0};
    try {
        parallel_for(
            24, 4,
            [&](const Shard& s) {
                ran++;
                s.metrics->inc("trials");
                if (s.first == 7)
                    throw std::runtime_error("item 7");
            },
            {.metrics = &merged});
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "item 7");
    }
    // The pool joins before rethrowing, so every item ran and every
    // shard's counters — the throwing one's included — are merged.
    EXPECT_EQ(ran.load(), 24);
    EXPECT_EQ(merged.counter("trials"), 24u);
}
