/**
 * @file
 * Deterministic work sharding across a fixed thread pool.
 *
 * The repository's expensive workloads — fault-injection campaigns
 * (src/fault/), scheduler-fuzz trials, bench repetitions — are
 * embarrassingly parallel: N independent items, each producing a result
 * that only depends on its index. This module shards such work across a
 * fixed pool of worker threads *without* giving up the repo's hard
 * determinism contracts:
 *
 *   - Sharding is static: item i always runs on worker (i % jobs), and
 *     each worker processes its items in increasing index order. Which
 *     thread computes an item never depends on timing.
 *   - Results are owned per item (the caller indexes a pre-sized
 *     vector), so the assembled output is identical to a serial run.
 *   - Observability is per worker: each worker fills a private
 *     obs::MetricsRegistry and the shards are merged in worker order at
 *     join (obs::MetricsRegistry::merge_from), so merged metrics are
 *     byte-identical no matter how threads interleave.
 *   - Stochastic work derives per-item seeds from one base seed
 *     (derive_seed, a splitmix64 step), so results are independent of
 *     the job count — `--jobs=8` replays `--jobs=1` exactly.
 *
 * Worker callables must only touch their own item's state (plus
 * read-only shared inputs such as a typechecked Design); the pool
 * provides no locking for shared mutable state.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "obs/metrics.hpp"

namespace koika::harness {

/**
 * Base class for per-worker state that outlives a single item but not a
 * parallel_for call: warm fault-trial model pairs (fault::TrialContext),
 * opened compile-cache handles, scratch arenas. parallel_for creates one
 * lazily per worker (on the worker's own thread, the first time that
 * worker receives an item) and destroys all of them before it returns
 * — contexts live exactly as long as one call, so state can never leak
 * across campaigns.
 */
class WorkerContext
{
  public:
    virtual ~WorkerContext() = default;
};

/**
 * Builds worker `id`'s context. Called on the worker's own thread
 * (thread-affine resources like dlopen handles or thread-local caches
 * land on the thread that will use them). May return nullptr to run
 * that worker context-free; a throwing factory fails the worker's first
 * item (surfaced via the pool's usual lowest-index error contract).
 */
using ContextFactory =
    std::function<std::unique_ptr<WorkerContext>(int worker)>;

/**
 * Resolve a --jobs request: values >= 1 pass through; 0 (or negative)
 * means one job per hardware thread. Always returns >= 1.
 */
int resolve_jobs(int jobs);

/**
 * Per-item seed derivation (splitmix64 over base + item). Use one base
 * seed per campaign/sweep and one derived seed per item so the draw for
 * item i is the same whether items run serially or sharded.
 */
uint64_t derive_seed(uint64_t base, uint64_t item);

/**
 * A fixed pool of `jobs` worker threads. Threads are started once and
 * reused across run() calls (the "fixed thread pool" of the campaign
 * runner); a pool of one job degenerates to inline execution on the
 * calling thread, so serial runs stay single-threaded and debuggable.
 */
class ThreadPool
{
  public:
    /** `jobs` as for resolve_jobs (0 = hardware concurrency). */
    explicit ThreadPool(int jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int jobs() const { return jobs_; }

    /**
     * Run fn(item, worker) for every item in [0, n), item i on worker
     * (i % jobs), each worker walking its items in increasing order.
     * Blocks until all items finished. If workers threw, rethrows the
     * exception of the lowest-indexed failing item after the join (the
     * same exception a serial run would have surfaced first); the
     * remaining items still run.
     */
    void run(uint64_t n,
             const std::function<void(uint64_t item, int worker)>& fn);

  private:
    struct Impl;
    Impl* impl_;
    int jobs_;
};

/** One parallel_for body call: a group of items and its worker's state. */
struct Shard
{
    /** Items [first, first + count): `count` is ParallelOptions::group
     *  except for a short last group. */
    uint64_t first = 0;
    uint64_t count = 1;
    /** The worker's context (ParallelOptions::context), else nullptr. */
    WorkerContext* context = nullptr;
    /** The worker's private metrics shard (when ParallelOptions::metrics
     *  is set), else nullptr. */
    obs::MetricsRegistry* metrics = nullptr;
};

struct ParallelOptions
{
    /** Items per body call. Groups are contiguous index ranges, so a
     *  caller's per-item result slots fill exactly as a serial run's
     *  would; one group is, e.g., one lockstep fault batch. */
    uint64_t group = 1;
    /** Per-worker context factory (may be empty: no contexts). */
    ContextFactory context;
    /** When set, each worker fills a private registry, and the shards
     *  are folded into this one in worker order at join — before a
     *  failure is rethrown, so a failed campaign still reports the
     *  counters of the work that did finish. */
    obs::MetricsRegistry* metrics = nullptr;
};

/**
 * The sharded loop: fn runs once per group of `options.group`
 * consecutive items of [0, n), group g on worker (g % jobs) of a
 * transient ThreadPool (static sharding, increasing order per worker,
 * inline on the calling thread when jobs == 1). Worker contexts are
 * created lazily on their worker's thread and destroyed before this
 * returns, normally or by rethrow. Rethrows the lowest-indexed group's
 * exception after every group ran (ThreadPool::run's contract).
 */
void parallel_for(uint64_t n, int jobs,
                  const std::function<void(const Shard&)>& fn,
                  const ParallelOptions& options = {});

} // namespace koika::harness
