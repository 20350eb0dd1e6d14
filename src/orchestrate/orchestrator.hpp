/**
 * @file
 * Crash-resilient multi-process campaign orchestration.
 *
 * ROADMAP item 2's distribution story: a fault-injection campaign is
 * drained by a fleet of worker *processes* over a shared campaign
 * directory, and the merged report comes out byte-identical to a
 * single-process `--jobs=1` run no matter how many workers ran, how
 * the trials were chunked, or which workers crashed or hung along the
 * way. The design splits into three small protocols, all built on the
 * repo's existing atomic-publish machinery (base/io.hpp):
 *
 *   Work claims — the campaign's fault list (drawn deterministically
 *   from the manifest's seed, identical in every process) is cut into
 *   fixed-size chunks. A worker claims chunk C by publishing
 *   `leases/chunk-C.lease` with publish_file_exclusive: link(2)
 *   arbitration means exactly one claimer wins and losers just move to
 *   the next chunk. Completed chunks are published atomically as
 *   `chunks/chunk-C.json` (schema cuttlesim-orch-chunk-v1), so a chunk
 *   result either exists completely or not at all — re-running a chunk
 *   is idempotent by determinism, which makes every crash/reclaim race
 *   benign: any two publishes of the same chunk carry the same bytes.
 *
 *   Supervision — the orchestrator fork/execs N `cuttlec
 *   --fault-worker` processes (each its own process group, the same
 *   containment codegen's compile watchdog uses) and watches two
 *   signals: child exits (reaped non-blockingly; abnormal exits
 *   respawn the slot up to --max-retries) and lease heartbeats
 *   (workers rewrite `leases/chunk-C.hb` while they work; a lease
 *   whose owner died or whose heartbeat went stale past
 *   --worker-timeout is reclaimed — the owner's process group is
 *   killed and the chunk goes back to the pool after a capped
 *   exponential backoff). A chunk that exhausts its retry budget is
 *   marked failed (`chunks/chunk-C.failed`) and the campaign degrades
 *   gracefully instead of aborting: the final report carries an
 *   `incomplete` block naming the missing work.
 *
 *   Merge — chunk records reuse the exact serialization functions of
 *   the fault library (fault::injection_to_json and friends), fold in
 *   chunk order through the same commutative coverage/metrics merges
 *   run_campaign uses, and the final fault report is assembled by the
 *   same fault::campaign_report_json that cuttlec's single-process
 *   path calls — byte-identity by shared code, not by convention.
 *
 * `--chaos=P` arms a self-test mode in the workers: with probability P
 * per claim a worker deliberately crashes mid-chunk, hangs (stops
 * heartbeating), or crashes after publishing but before releasing its
 * lease. CI drains a chaos campaign and diffs the merged report
 * against the single-process bytes (ctest label `orch`).
 *
 * Everything lives in the campaign directory, so a killed
 * *orchestrator* is recoverable too: a rerun with the same flags keeps
 * completed chunks, clears orphan leases and failed markers, and
 * finishes the remainder.
 *
 * The fleet is observable while it runs and after it dies
 * (src/obs/telemetry.hpp): every process appends spans, metrics
 * snapshots, and lifecycle events to `telemetry/<proc>.jsonl`; worker
 * stderr lands in `workers/worker-K.log` (rotated to `.log.N` per
 * respawn); the supervisor publishes an atomic `status.json`
 * (cuttlesim-status-v1, read live by `cuttlec --fault-status=`) and,
 * after the drain, merges the telemetry into `fleet.prof.json`,
 * `fleet.trace.json`, and `events.json`.
 */
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

#include "codegen/dlmodel.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace koika::orchestrate {

/** Exit code for "campaign drained but some chunks exhausted their
 *  retry budget": the report exists and carries an `incomplete`
 *  block. Distinct from success (0), failure (1), usage (2), and
 *  interruption (koika::kExitInterrupted). */
constexpr int kExitIncomplete = 4;

struct OrchestratorConfig
{
    /** Campaign directory (created if missing): manifest, chunk
     *  results, leases, worker logs, final report. */
    std::string dir;
    /** Registry design name (workers rebuild it from the manifest). */
    std::string design;
    /** In-process engine name: T0..T5, "ref" or "compiled". */
    std::string engine;
    /** For engine "compiled": the compiler flags and the object cache
     *  (empty dir = no cache), forwarded to workers through the
     *  manifest. `workdir` is not forwarded: each worker emits its
     *  sources into its own per-process scratch directory. */
    codegen::DlModelOptions dlopts;
    /** What to inject: seed/count/cycles/stuck_at/max_stuck_cycles and
     *  collect_coverage are honored; jobs is the per-worker thread
     *  count; checkpoint/progress fields are ignored (the chunk files
     *  ARE the progress format here). */
    fault::CampaignConfig campaign;
    /** Worker processes to supervise. */
    int workers = 2;
    /** Injections per chunk (the claim granularity). */
    int chunk_size = 16;
    /** Reclaim a lease once its heartbeat is older than this. */
    double worker_timeout_seconds = 10;
    /** Per-chunk reclaim budget and per-slot respawn budget; past it
     *  the chunk is marked failed / the slot stays down. */
    int max_retries = 3;
    /** Self-test: probability per claim that the worker deliberately
     *  crashes or hangs mid-chunk (0 = off). */
    double chaos = 0;
    /** Worker executable; empty = this binary (/proc/self/exe). */
    std::string worker_binary;
};

struct OrchestratorReport
{
    /** The merged campaign: injections in fault-list order (failed
     *  chunks leave their records default-initialized — see
     *  missing_injections), coverage merged in chunk order, outcome
     *  tallies over present records only. */
    fault::CampaignReport campaign;

    uint64_t chunks_total = 0;
    uint64_t chunks_completed = 0;
    uint64_t chunks_failed = 0;

    /** Chunk ids that exhausted their retry budget, ascending. */
    std::vector<int> failed_chunks;
    /** Global injection indices with no record, ascending. */
    std::vector<uint64_t> missing_injections;

    /** Echo of the supervision knobs (workers, chunk_size,
     *  worker_timeout_seconds, max_retries, chaos) — the report's
     *  `orchestration` block. */
    obs::Json orchestration_config = obs::Json::object();

    /** Orchestration counters (orch/chunks_claimed, orch/...retried,
     *  ...reclaimed, ...failed, orch/worker_restarts,
     *  orch/lease_conflicts) merged with the campaign's own fault
     *  metrics. */
    obs::MetricsRegistry metrics;

    /** Supervisor wall clock, spawn to merge. */
    double wall_seconds = 0;

    /** Campaign directory the drain ran over (for diagnostics: worker
     *  logs and telemetry artifacts live under it). */
    std::string dir;

    /** A shutdown signal stopped the drain early; nothing was merged
     *  and no orchestrator report file was written. Rerun with the
     *  same flags to resume from the completed chunks. */
    bool interrupted = false;

    bool complete() const { return chunks_failed == 0 && !interrupted; }

    /**
     * The cuttlesim-orch-v1 report (EXPERIMENTS.md has the
     * field-by-field schema). The embedded `report` block is exactly
     * the artifact fault::campaign_report_json produces, filtered to
     * present records when incomplete — for a fully drained campaign
     * it is byte-identical to the single-process --fault-report.
     */
    obs::Json to_json() const;

    /** Human summary: chunk/worker/retry tallies + campaign table. */
    std::string to_text() const;
};

/**
 * Drain a campaign: write the manifest (or validate an existing one —
 * resuming with different flags is fatal), clear orphan leases and
 * failed markers, spawn and supervise the worker fleet, and merge the
 * chunk results. Writes `<dir>/orchestrate.json` unless interrupted.
 */
OrchestratorReport run_orchestrator(const OrchestratorConfig& config);

/**
 * Worker-process entry (`cuttlec --fault-worker=DIR --worker-id=K`):
 * load the manifest, regenerate the fault list, then claim-run-publish
 * chunks until every chunk is resolved. Returns a process exit code
 * (0 = all chunks resolved, koika::kExitInterrupted on signal).
 */
int run_worker(const std::string& dir, int worker_id);

// -- Lease primitives (exposed for the race/reclaim unit tests) -------------

struct LeaseInfo
{
    int chunk = -1;
    int worker = -1;
    pid_t pid = -1;
};

std::string manifest_path(const std::string& dir);
/** `<dir>/workers/worker-K.log`: the slot's current stderr capture
 *  (earlier incarnations are rotated to `.log.N`). */
std::string worker_log_path(const std::string& dir, int slot);
/** `<dir>/status.json`: the supervisor's live cuttlesim-status-v1. */
std::string status_path(const std::string& dir);
std::string chunk_result_path(const std::string& dir, int chunk);
std::string chunk_failed_path(const std::string& dir, int chunk);
std::string lease_path(const std::string& dir, int chunk);
std::string heartbeat_path(const std::string& dir, int chunk);

/**
 * Claim chunk `chunk` for `worker`: exclusive-publish the lease file.
 * Exactly one concurrent claimer returns true; everyone else gets
 * false (and moves on — losing a claim is not an error).
 */
bool try_claim_lease(const std::string& dir, int chunk, int worker);

/** Parse a lease file. False when missing or malformed. */
bool read_lease(const std::string& path, LeaseInfo* info);

/** Drop the lease and its heartbeat (idempotent). */
void release_lease(const std::string& dir, int chunk);

/** Refresh the lease's heartbeat (rewrites the hb file). */
void touch_heartbeat(const std::string& dir, int chunk);

/**
 * Seconds since chunk's last heartbeat (falling back to the lease
 * file's own mtime before the first heartbeat lands); -1 when neither
 * file exists. The supervisor reclaims once this exceeds
 * worker_timeout_seconds — or immediately when the owning pid is
 * known-dead.
 */
double heartbeat_age_seconds(const std::string& dir, int chunk);

} // namespace koika::orchestrate
