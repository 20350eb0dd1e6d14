/**
 * @file
 * Orchestrator implementation. The header's comment covers the three
 * protocols (claims, supervision, merge); this file's invariants:
 *
 *   - Every cross-process artifact (manifest, lease, chunk result,
 *     failed marker) is published atomically, so readers never see a
 *     torn file: write_file_atomic for plain publishes,
 *     publish_file_exclusive for the one path that needs arbitration
 *     (the lease claim).
 *
 *   - Chunk results are idempotent: the fault list is a pure function
 *     of the manifest, so two workers that both end up running chunk C
 *     (an ABA reclaim race: slow-but-alive owner publishes after its
 *     lease was reclaimed and re-claimed) publish byte-identical
 *     files, and publish order cannot change the merged report.
 *
 *   - The supervisor never blocks on a child: reaps are WNOHANG,
 *     liveness is judged from heartbeat file mtimes, and hung workers
 *     are killed by process group so compiler/driver grandchildren die
 *     with them.
 *
 *   - Reclaim backoff holds the *stale lease file in place* until the
 *     hold expires; workers skip leased chunks, so the backoff needs no
 *     cooperation from them. The lease is unlinked when the hold ends,
 *     which is the moment the chunk becomes claimable again.
 */
#include "orchestrate/orchestrator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include <ctime>

#include <errno.h>
#include <signal.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include "base/error.hpp"
#include "base/io.hpp"
#include "base/signal.hpp"
#include "codegen/compile.hpp"
#include "designs/designs.hpp"
#include "designs/targets.hpp"
#include "harness/parallel.hpp"
#include "obs/coverage.hpp"
#include "obs/prof.hpp"
#include "obs/telemetry.hpp"

namespace koika::orchestrate {

namespace {

constexpr const char* kReportSchema = "cuttlesim-orch-v1";
constexpr const char* kManifestSchema = "cuttlesim-orch-manifest-v1";
constexpr const char* kChunkSchema = "cuttlesim-orch-chunk-v1";
constexpr const char* kLeaseSchema = "cuttlesim-orch-lease-v1";
constexpr const char* kFailedSchema = "cuttlesim-orch-failed-v1";

double
monotonic_seconds()
{
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

double
realtime_seconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

void
sleep_ms(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool
file_exists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** File mtime with nanosecond resolution; -1 when the file is gone. */
double
file_mtime(const std::string& path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return (double)st.st_mtim.tv_sec + (double)st.st_mtim.tv_nsec * 1e-9;
}

void
mkdir_p(const std::string& path)
{
    std::string prefix;
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            prefix.push_back(path[i]);
            continue;
        }
        if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
            errno != EEXIST)
            fatal("cannot create directory '%s': %s", prefix.c_str(),
                  std::strerror(errno));
        if (i < path.size())
            prefix.push_back('/');
    }
}

std::string
chunk_tag(int chunk)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%06d", chunk);
    return buf;
}

obs::Json
read_json_file(const std::string& path)
{
    return obs::Json::parse(read_file(path));
}

const obs::Json&
jget(const obs::Json& j, const char* key, const std::string& what)
{
    const obs::Json* p = j.find(key);
    if (p == nullptr)
        fatal("%s: missing field '%s'", what.c_str(), key);
    return *p;
}

void
check_schema(const obs::Json& j, const char* schema,
             const std::string& what)
{
    if (jget(j, "schema", what).as_string() != schema)
        fatal("%s: expected schema %s, got %s", what.c_str(), schema,
              jget(j, "schema", what).as_string().c_str());
}

int
num_chunks_for(int count, int chunk_size)
{
    return (count + chunk_size - 1) / chunk_size;
}

// -- Manifest ----------------------------------------------------------------

obs::Json
manifest_json(const OrchestratorConfig& config, int num_chunks)
{
    obs::Json m = obs::Json::object();
    m["schema"] = kManifestSchema;
    m["design"] = config.design;
    m["engine"] = config.engine;
    m["config"] = fault::campaign_config_echo(config.campaign);
    m["collect_coverage"] = config.campaign.collect_coverage;
    m["chunk_size"] = (int64_t)config.chunk_size;
    m["num_chunks"] = (int64_t)num_chunks;
    m["worker_jobs"] = (int64_t)config.campaign.jobs;
    m["worker_batch"] = (int64_t)config.campaign.batch;
    m["worker_cxxflags"] = config.dlopts.cxxflags;
    m["worker_cache_dir"] = config.dlopts.cache.dir;
    m["worker_timeout_seconds"] = config.worker_timeout_seconds;
    m["chaos"] = config.chaos;
    return m;
}

/**
 * A resumed campaign directory must describe the same campaign: the
 * fields that determine the fault list and the chunk boundaries have
 * to match (supervision knobs — workers, timeout, retries, chaos — may
 * change between runs; the manifest is rewritten with the new values).
 */
void
check_manifest_identity(const obs::Json& have, const obs::Json& want,
                        const std::string& path)
{
    static const char* kIdentity[] = {"schema",   "design",
                                      "engine",   "config",
                                      "collect_coverage", "chunk_size"};
    for (const char* key : kIdentity) {
        std::string h = jget(have, key, path).dump();
        std::string w = jget(want, key, path).dump();
        if (h != w)
            fatal("campaign directory was started with different flags: "
                  "'%s' field '%s' is %s, current flags say %s (use a "
                  "fresh --fault-orchestrate directory, or rerun with "
                  "the original flags to resume)",
                  path.c_str(), key, h.c_str(), w.c_str());
    }
}

} // namespace

// -- Paths and lease primitives ----------------------------------------------

std::string
manifest_path(const std::string& dir)
{
    return dir + "/campaign.json";
}

std::string
worker_log_path(const std::string& dir, int slot)
{
    return dir + "/workers/worker-" + std::to_string(slot) + ".log";
}

std::string
status_path(const std::string& dir)
{
    return dir + "/status.json";
}

std::string
chunk_result_path(const std::string& dir, int chunk)
{
    return dir + "/chunks/chunk-" + chunk_tag(chunk) + ".json";
}

std::string
chunk_failed_path(const std::string& dir, int chunk)
{
    return dir + "/chunks/chunk-" + chunk_tag(chunk) + ".failed";
}

std::string
lease_path(const std::string& dir, int chunk)
{
    return dir + "/leases/chunk-" + chunk_tag(chunk) + ".lease";
}

std::string
heartbeat_path(const std::string& dir, int chunk)
{
    return dir + "/leases/chunk-" + chunk_tag(chunk) + ".hb";
}

bool
try_claim_lease(const std::string& dir, int chunk, int worker)
{
    obs::Json j = obs::Json::object();
    j["schema"] = kLeaseSchema;
    j["chunk"] = (int64_t)chunk;
    j["worker"] = (int64_t)worker;
    j["pid"] = (int64_t)::getpid();
    return publish_file_exclusive(lease_path(dir, chunk),
                                  j.dump(2) + "\n");
}

bool
read_lease(const std::string& path, LeaseInfo* info)
{
    try {
        obs::Json j = obs::Json::parse(read_file(path));
        const obs::Json* chunk = j.find("chunk");
        const obs::Json* worker = j.find("worker");
        const obs::Json* pid = j.find("pid");
        if (chunk == nullptr || worker == nullptr || pid == nullptr)
            return false;
        info->chunk = (int)chunk->as_int();
        info->worker = (int)worker->as_int();
        info->pid = (pid_t)pid->as_int();
        return true;
    } catch (const std::exception&) {
        return false; // vanished mid-read or malformed: caller decides
    }
}

void
release_lease(const std::string& dir, int chunk)
{
    std::remove(lease_path(dir, chunk).c_str());
    std::remove(heartbeat_path(dir, chunk).c_str());
}

void
touch_heartbeat(const std::string& dir, int chunk)
{
    // The content is irrelevant; the supervisor reads the mtime. The
    // atomic rewrite keeps the file present at all times.
    write_file_atomic(heartbeat_path(dir, chunk), "beat\n");
}

double
heartbeat_age_seconds(const std::string& dir, int chunk)
{
    double mt = file_mtime(heartbeat_path(dir, chunk));
    if (mt < 0)
        mt = file_mtime(lease_path(dir, chunk));
    if (mt < 0)
        return -1;
    return std::max(0.0, realtime_seconds() - mt);
}

// -- Worker ------------------------------------------------------------------

namespace {

struct WorkerContext
{
    std::string dir;
    int worker_id = -1;
    const Design* design = nullptr;
    sim::SystemFactory factory;
    fault::CampaignConfig campaign;
    std::vector<fault::FaultSpec> faults;
    int chunk_size = 0;
    int num_chunks = 0;
    double worker_timeout = 10;
    double chaos = 0;
    /** Lost claim races since this worker's last published chunk;
     *  echoed into the next chunk record for the merged counter. */
    uint64_t lease_conflicts = 0;
    /** This process's telemetry stream (owned by run_worker). */
    obs::TelemetryWriter* telemetry = nullptr;
    /** Worker-local counters published in telemetry snapshots. */
    obs::MetricsRegistry* wmetrics = nullptr;
};

enum class ChunkStatus { kDone, kInterrupted };

/** Chaos modes a worker can draw per claim (self-test only). */
enum ChaosMode {
    kChaosNone = 0,
    kChaosCrashMid,      // _exit(43) halfway through the chunk
    kChaosHang,          // stop heartbeating, stall, _exit(44)
    kChaosCrashAfterPublish, // publish the result, _exit(45), lease left
};

ChunkStatus
run_claimed_chunk(WorkerContext& ctx, int chunk, std::mt19937_64& chaos_rng)
{
    const std::string& dir = ctx.dir;
    int first = chunk * ctx.chunk_size;
    int count = std::min(ctx.chunk_size, (int)ctx.faults.size() - first);

    touch_heartbeat(dir, chunk);

    // Heartbeat thread: rewrite the hb file well inside the supervisor's
    // timeout so a healthy worker is never reclaimed, however long its
    // injections take.
    std::atomic<bool> hb_stop{false};
    double interval = std::clamp(ctx.worker_timeout / 4.0, 0.05, 1.0);
    std::thread hb_thread([&ctx, &hb_stop, &dir, chunk, interval] {
        (void)ctx;
        while (!hb_stop.load()) {
            sleep_ms((int)(interval * 1000));
            if (hb_stop.load())
                break;
            try {
                touch_heartbeat(dir, chunk);
            } catch (const std::exception&) {
                // Campaign dir yanked from under us; the supervisor (or
                // the absence of one) will sort the rest out.
            }
        }
    });
    auto stop_heartbeat = [&] {
        hb_stop.store(true);
        if (hb_thread.joinable())
            hb_thread.join();
    };

    int mode = kChaosNone;
    if (ctx.chaos > 0) {
        double u = (double)(chaos_rng() >> 11) / (double)(1ull << 53);
        if (u < ctx.chaos * 0.5)
            mode = kChaosCrashMid;
        else if (u < ctx.chaos * 0.75)
            mode = kChaosHang;
        else if (u < ctx.chaos)
            mode = kChaosCrashAfterPublish;
    }

    if (mode == kChaosHang) {
        // Simulate a wedged worker: the lease is held, the heartbeat
        // goes stale, and we stall until the supervisor's group-kill
        // takes us out (the deadline below is a backstop for
        // supervisor-less tests).
        stop_heartbeat();
        double deadline =
            monotonic_seconds() + std::min(ctx.worker_timeout * 50.0, 120.0);
        while (monotonic_seconds() < deadline)
            sleep_ms(100);
        _exit(44);
    }

    bool collect = ctx.campaign.collect_coverage;
    std::vector<fault::InjectionRecord> records((size_t)count);
    std::vector<obs::CoverageMap> coverage;
    if (collect)
        coverage.resize((size_t)count);

    // The injections themselves run through the exact dispatch
    // run_campaign uses (fault::run_injection_range); the chaos
    // mid-chunk crash rides in on the per-item hook so it still fires
    // when the crashing index falls inside a lockstep batch.
    auto chaos_crash = [&](uint64_t k0, uint64_t n) {
        if (mode == kChaosCrashMid && (uint64_t)(count / 2) >= k0 &&
            (uint64_t)(count / 2) < k0 + n)
            _exit(43);
    };
    obs::ProfScope chunk_span("orch/chunk");
    bool ok = false;
    try {
        ok = fault::run_injection_range(
            *ctx.design, ctx.factory, ctx.faults, (size_t)first,
            (size_t)count, ctx.campaign.cycles, ctx.campaign.jobs,
            ctx.campaign.batch, records.data(),
            collect ? coverage.data() : nullptr, chaos_crash);
    } catch (...) {
        // A failed target build (say, a compiler rejecting --cxxflags)
        // must reach the worker log as a diagnostic; unwinding past a
        // joinable heartbeat thread would std::terminate instead.
        stop_heartbeat();
        throw;
    }
    chunk_span.close();

    if (!ok) {
        stop_heartbeat();
        release_lease(dir, chunk);
        return ChunkStatus::kInterrupted;
    }

    obs::Json cj = obs::Json::object();
    cj["schema"] = kChunkSchema;
    cj["chunk"] = (int64_t)chunk;
    cj["first"] = (int64_t)first;
    cj["count"] = (int64_t)count;
    cj["worker"] = (int64_t)ctx.worker_id;
    cj["lease_conflicts"] = ctx.lease_conflicts;
    obs::Json list = obs::Json::array();
    for (int k = 0; k < count; ++k)
        list.push_back(fault::injection_to_json((size_t)(first + k),
                                                records[(size_t)k]));
    cj["injections"] = std::move(list);
    if (collect) {
        // Same fold run_campaign does for this slice: zeroed per-design
        // base, per-injection maps merged in fault-list order. Merging
        // the chunk maps in chunk order at the supervisor is then
        // exactly the single-process merge, just reassociated.
        obs::CoverageMap merged = obs::CoverageMap::for_design(*ctx.design);
        for (int k = 0; k < count; ++k)
            merged.merge(coverage[(size_t)k]);
        cj["coverage"] = merged.to_json();
    }
    write_file_atomic(chunk_result_path(dir, chunk), cj.dump(2) + "\n");
    ctx.lease_conflicts = 0;

    // Telemetry flush straddles the chaos exit below on purpose: a
    // publish-then-crash worker still leaves its spans and counters in
    // the journal, which is exactly the autopsy story the fleet merge
    // exists for.
    if (ctx.telemetry != nullptr) {
        ctx.wmetrics->inc("worker/chunks_published");
        ctx.wmetrics->inc("worker/trials", (uint64_t)count);
        obs::Json args = obs::Json::object();
        args["chunk"] = (int64_t)chunk;
        args["count"] = (int64_t)count;
        ctx.telemetry->event("chunk/publish", std::move(args));
        ctx.telemetry->snapshot(*ctx.wmetrics);
    }

    if (mode == kChaosCrashAfterPublish)
        _exit(45); // result published, lease left behind

    stop_heartbeat();
    release_lease(dir, chunk);
    return ChunkStatus::kDone;
}

} // namespace

int
run_worker(const std::string& dir, int worker_id)
{
    install_shutdown_handlers();

    // Fleet telemetry: the worker's main thread is always named
    // "worker" — NOT worker-<id> — so the merged fleet report's lane
    // set is independent of worker count, respawns, and crash
    // schedule; every incarnation of every slot folds into one
    // logical lane.
    obs::Profiler& prof = obs::Profiler::instance();
    if (!prof.enabled())
        prof.enable();
    prof.set_thread_name("worker");

    std::string mpath = manifest_path(dir);
    obs::Json m = read_json_file(mpath);
    check_schema(m, kManifestSchema, mpath);

    WorkerContext ctx;
    ctx.dir = dir;
    ctx.worker_id = worker_id;

    obs::TelemetryWriter telemetry(dir,
                                   "worker-" + std::to_string(worker_id),
                                   codegen::compiler_identity_line());
    obs::MetricsRegistry wmetrics;
    ctx.telemetry = &telemetry;
    ctx.wmetrics = &wmetrics;
    {
        obs::Json args = obs::Json::object();
        args["worker"] = (int64_t)worker_id;
        args["pid"] = (int64_t)::getpid();
        telemetry.event("worker/start", std::move(args));
    }
    auto finish = [&](int code, const char* what) {
        obs::Json args = obs::Json::object();
        args["exit"] = (int64_t)code;
        telemetry.event(what, std::move(args));
        telemetry.snapshot(wmetrics);
        return code;
    };

    std::string design_name = jget(m, "design", mpath).as_string();
    std::string engine = jget(m, "engine", mpath).as_string();
    std::unique_ptr<Design> design = designs::build_design(design_name);
    ctx.design = design.get();
    // Operational like worker_batch (absent from the identity check and
    // from older manifests): the compiled engine's flags and cache.
    codegen::DlModelOptions dlopts;
    if (const obs::Json* f = m.find("worker_cxxflags"))
        dlopts.cxxflags = f->as_string();
    if (const obs::Json* c = m.find("worker_cache_dir"))
        dlopts.cache.dir = c->as_string();
    ctx.factory = designs::make_target_factory(*design, engine, dlopts);

    const obs::Json& cfg = jget(m, "config", mpath);
    ctx.campaign.seed = jget(cfg, "seed", mpath).as_u64();
    ctx.campaign.count = (int)jget(cfg, "count", mpath).as_int();
    ctx.campaign.cycles = jget(cfg, "cycles", mpath).as_u64();
    ctx.campaign.stuck_at = jget(cfg, "stuck_at", mpath).as_bool();
    ctx.campaign.max_stuck_cycles =
        jget(cfg, "max_stuck_cycles", mpath).as_u64();
    ctx.campaign.collect_coverage =
        jget(m, "collect_coverage", mpath).as_bool();
    ctx.campaign.jobs = (int)jget(m, "worker_jobs", mpath).as_int();
    // Operational like worker_jobs (absent from the identity check and
    // from pre-batching manifests): lane count per lockstep batch.
    if (const obs::Json* wb = m.find("worker_batch"))
        ctx.campaign.batch = (int)wb->as_int();
    ctx.chunk_size = (int)jget(m, "chunk_size", mpath).as_int();
    ctx.num_chunks = (int)jget(m, "num_chunks", mpath).as_int();
    ctx.worker_timeout = jget(m, "worker_timeout_seconds", mpath).as_double();
    ctx.chaos = jget(m, "chaos", mpath).as_double();

    // The whole fault list, drawn exactly as run_campaign draws it:
    // every worker (and the merge) agrees on what injection i is.
    ctx.faults = fault::generate_faults(*design, ctx.campaign);

    std::mt19937_64 chaos_rng((uint64_t)std::random_device{}() ^
                              ((uint64_t)::getpid() << 20) ^
                              (uint64_t)worker_id);

    for (;;) {
        if (shutdown_requested())
            return finish(kExitInterrupted, "worker/interrupted");
        bool all_resolved = true;
        bool claimed_any = false;
        for (int c = 0; c < ctx.num_chunks; ++c) {
            if (file_exists(chunk_result_path(dir, c)) ||
                file_exists(chunk_failed_path(dir, c)))
                continue;
            all_resolved = false;
            if (shutdown_requested())
                return finish(kExitInterrupted, "worker/interrupted");
            if (file_exists(lease_path(dir, c)))
                continue; // held (or in reclaim backoff) — skip
            if (!try_claim_lease(dir, c, worker_id)) {
                ctx.lease_conflicts++;
                wmetrics.inc("worker/lease_conflicts");
                obs::Json args = obs::Json::object();
                args["chunk"] = (int64_t)c;
                telemetry.event("lease/conflict", std::move(args));
                continue; // lost the race; not an error
            }
            claimed_any = true;
            {
                obs::Json args = obs::Json::object();
                args["chunk"] = (int64_t)c;
                telemetry.event("lease/claim", std::move(args));
            }
            if (run_claimed_chunk(ctx, c, chaos_rng) ==
                ChunkStatus::kInterrupted)
                return finish(kExitInterrupted, "worker/interrupted");
        }
        if (all_resolved)
            return finish(0, "worker/done");
        if (!claimed_any)
            sleep_ms(100); // everything leased out; wait for reclaims
    }
}

// -- Supervisor --------------------------------------------------------------

namespace {

struct Slot
{
    codegen::ChildProcess child;
    int restarts = 0;
    bool up = false;
};

std::string
resolve_worker_binary(const OrchestratorConfig& config)
{
    if (!config.worker_binary.empty())
        return config.worker_binary;
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        fatal("cannot resolve the worker binary (readlink /proc/self/exe: "
              "%s); set OrchestratorConfig::worker_binary",
              std::strerror(errno));
    buf[n] = '\0';
    return buf;
}

codegen::ChildProcess
spawn_worker(const OrchestratorConfig& config, const std::string& binary,
             int slot_id, int attempt, obs::MetricsRegistry& metrics,
             obs::TelemetryWriter& telemetry)
{
    obs::ProfScope span("orch/spawn");
    std::string log = worker_log_path(config.dir, slot_id);
    if (attempt > 0) {
        // Rotate the dead incarnation's stderr out of the way so each
        // attempt's last words survive: worker-K.log.N is attempt N's
        // capture, worker-K.log the live one.
        std::rename(log.c_str(),
                    (log + "." + std::to_string(attempt - 1)).c_str());
    }
    std::vector<std::string> argv = {
        binary,
        "--fault-worker=" + config.dir,
        "--worker-id=" + std::to_string(slot_id),
    };
    codegen::ChildProcess child = codegen::spawn_process(argv, log);
    metrics.inc("orch/workers_spawned");
    obs::Json args = obs::Json::object();
    args["slot"] = (int64_t)slot_id;
    args["pid"] = (int64_t)child.pid;
    args["attempt"] = (int64_t)attempt;
    args["log"] = log;
    telemetry.event("worker/spawn", std::move(args));
    return child;
}

/** SIGTERM, grace period, then group SIGKILL; always reaps. */
void
terminate_workers(std::vector<Slot>& slots)
{
    for (Slot& slot : slots)
        if (slot.up)
            ::kill(slot.child.pid, SIGTERM);
    int exit_code = 0, term_signal = 0;
    double deadline = monotonic_seconds() + 2.0;
    for (;;) {
        bool any_up = false;
        for (Slot& slot : slots) {
            if (!slot.up)
                continue;
            if (codegen::try_reap(slot.child, &exit_code, &term_signal))
                slot.up = false;
            else
                any_up = true;
        }
        if (!any_up || monotonic_seconds() >= deadline)
            break;
        sleep_ms(20);
    }
    for (Slot& slot : slots)
        if (slot.up)
            codegen::kill_process_group(slot.child);
    deadline = monotonic_seconds() + 2.0;
    for (;;) {
        bool any_up = false;
        for (Slot& slot : slots) {
            if (!slot.up)
                continue;
            if (codegen::try_reap(slot.child, &exit_code, &term_signal))
                slot.up = false;
            else
                any_up = true;
        }
        if (!any_up || monotonic_seconds() >= deadline)
            break;
        sleep_ms(10);
    }
}

/**
 * Fold the chunk results into the final campaign report. Chunk files
 * are read in chunk order, so injections, coverage, and tallies come
 * out exactly as a single-process run produces them.
 */
void
merge_chunks(const OrchestratorConfig& config, int num_chunks,
             const std::vector<char>& resolved, OrchestratorReport& report,
             uint64_t* lease_conflicts)
{
    obs::ProfScope span("orch/merge");
    fault::CampaignReport& campaign = report.campaign;

    std::unique_ptr<Design> design = designs::build_design(config.design);
    campaign.design = design->name();
    campaign.engine = designs::engine_label(config.engine);
    campaign.config = config.campaign;

    int count = config.campaign.count;
    campaign.injections.assign((size_t)count, fault::InjectionRecord{});
    std::vector<char> present((size_t)count, 0);

    bool collect = config.campaign.collect_coverage;
    if (collect) {
        campaign.has_coverage = true;
        campaign.coverage = obs::CoverageMap::for_design(*design);
    }

    for (int c = 0; c < num_chunks; ++c) {
        if (resolved[(size_t)c] != 1)
            continue;
        std::string path = chunk_result_path(config.dir, c);
        obs::Json cj = read_json_file(path);
        check_schema(cj, kChunkSchema, path);
        if ((int)jget(cj, "chunk", path).as_int() != c)
            fatal("%s: chunk id mismatch", path.c_str());
        *lease_conflicts += jget(cj, "lease_conflicts", path).as_u64();
        const obs::Json& list = jget(cj, "injections", path);
        for (size_t i = 0; i < list.size(); ++i) {
            const obs::Json& e = list.at(i);
            uint64_t idx = jget(e, "index", path).as_u64();
            if (idx >= (uint64_t)count)
                fatal("%s: injection index %llu out of range", path.c_str(),
                      (unsigned long long)idx);
            campaign.injections[idx] = fault::injection_from_json(e);
            present[idx] = 1;
        }
        if (collect) {
            const obs::Json* cov = cj.find("coverage");
            if (cov == nullptr)
                fatal("%s: coverage-collecting campaign but chunk has no "
                      "coverage block",
                      path.c_str());
            campaign.coverage.merge(obs::CoverageMap::from_json(*cov));
        }
    }

    for (int i = 0; i < count; ++i) {
        if (!present[(size_t)i]) {
            report.missing_injections.push_back((uint64_t)i);
            continue;
        }
        switch (campaign.injections[(size_t)i].outcome) {
        case fault::Outcome::kMasked: campaign.masked++; break;
        case fault::Outcome::kSilentDataCorruption: campaign.sdc++; break;
        case fault::Outcome::kDetected: campaign.detected++; break;
        }
    }

    if (collect)
        campaign.coverage.add_engine(campaign.engine);
}

/**
 * The campaign with only the present records — what the fault metrics
 * tallies may see. For a complete campaign this is the campaign
 * itself, so the metrics (and the report block built from them) are
 * bitwise what the single-process path computes.
 */
fault::CampaignReport
present_only(const fault::CampaignReport& campaign,
             const std::vector<uint64_t>& missing)
{
    fault::CampaignReport tmp;
    tmp.design = campaign.design;
    tmp.engine = campaign.engine;
    tmp.config = campaign.config;
    tmp.masked = campaign.masked;
    tmp.sdc = campaign.sdc;
    tmp.detected = campaign.detected;
    if (missing.empty()) {
        tmp.injections = campaign.injections;
        return tmp;
    }
    std::vector<char> gone(campaign.injections.size(), 0);
    for (uint64_t idx : missing)
        gone[idx] = 1;
    for (size_t i = 0; i < campaign.injections.size(); ++i)
        if (!gone[i])
            tmp.injections.push_back(campaign.injections[i]);
    return tmp;
}

} // namespace

OrchestratorReport
run_orchestrator(const OrchestratorConfig& config)
{
    install_shutdown_handlers();
    double t0 = monotonic_seconds();

    if (config.workers < 1)
        fatal("--workers must be >= 1 (got %d)", config.workers);
    if (config.chunk_size < 1)
        fatal("--chunk-size must be >= 1 (got %d)", config.chunk_size);
    if (config.campaign.count < 0)
        fatal("--fault-count must be >= 0 (got %d)", config.campaign.count);

    int num_chunks = num_chunks_for(config.campaign.count, config.chunk_size);

    OrchestratorReport report;
    report.chunks_total = (uint64_t)num_chunks;
    report.dir = config.dir;
    obs::MetricsRegistry& metrics = report.metrics;

    mkdir_p(config.dir + "/chunks");
    mkdir_p(config.dir + "/leases");
    mkdir_p(config.dir + "/workers");

    // Fleet telemetry: the supervisor always records spans (lane
    // "supervisor"), appends its own telemetry stream, publishes a
    // live status.json, and merges every process's stream into the
    // fleet artifacts after the drain.
    obs::Profiler& prof = obs::Profiler::instance();
    if (!prof.enabled())
        prof.enable();
    prof.set_thread_name("supervisor");
    obs::TelemetryWriter telemetry(config.dir, "supervisor",
                                   codegen::compiler_identity_line());

    {
        obs::ProfScope span("orch/setup");
        obs::Json want = manifest_json(config, num_chunks);
        std::string mpath = manifest_path(config.dir);
        if (file_exists(mpath))
            check_manifest_identity(read_json_file(mpath), want, mpath);
        write_file_atomic(mpath, want.dump(2) + "\n");
        // Startup sweep: no worker of ours is alive yet, so every lease
        // is an orphan; failed markers get a fresh retry budget.
        for (int c = 0; c < num_chunks; ++c) {
            release_lease(config.dir, c);
            std::remove(chunk_failed_path(config.dir, c).c_str());
        }
        // Build one system before any worker starts: a target that
        // cannot be built (say, a compiler rejecting --cxxflags) would
        // fail every worker the same way, so the FatalError surfaces
        // here, once, with its diagnostic.
        std::unique_ptr<Design> design = designs::build_design(config.design);
        designs::make_target_factory(*design, config.engine, config.dlopts)();
    }

    std::string binary = resolve_worker_binary(config);
    std::vector<Slot> slots((size_t)config.workers);
    for (int k = 0; k < config.workers; ++k) {
        slots[(size_t)k].child =
            spawn_worker(config, binary, k, 0, metrics, telemetry);
        slots[(size_t)k].up = true;
    }

    // 0 = pending, 1 = completed, 2 = failed.
    std::vector<char> resolved((size_t)num_chunks, 0);
    std::vector<int> attempts((size_t)num_chunks, 0);
    std::vector<double> hold_until((size_t)num_chunks, 0.0);
    std::set<pid_t> dead_pids;
    int unresolved = num_chunks;
    uint64_t reclaimed = 0;
    uint64_t injections_done = 0;

    // Live introspection: an atomic cuttlesim-status-v1 snapshot of
    // the drain, rewritten throughout and readable mid-campaign by
    // `cuttlec --fault-status=DIR` (schema in docs/OBSERVABILITY.md).
    auto publish_status = [&](const char* state) {
        obs::Json s = obs::Json::object();
        s["schema"] = obs::kStatusSchema;
        s["state"] = state;
        s["campaign"] = config.design;
        s["design"] = config.design;
        s["engine"] = config.engine;
        s["updated_unix"] = (uint64_t)::time(nullptr);
        double wall = monotonic_seconds() - t0;
        s["wall_seconds"] = wall;
        obs::Json inj = obs::Json::object();
        inj["total"] = (uint64_t)config.campaign.count;
        inj["done"] = injections_done;
        s["injections"] = std::move(inj);
        double rate = wall > 0 ? (double)injections_done / wall : 0.0;
        s["trials_per_sec"] = rate;
        uint64_t remaining =
            (uint64_t)config.campaign.count - injections_done;
        s["eta_seconds"] = rate > 0 ? (double)remaining / rate : 0.0;
        obs::Json ch = obs::Json::object();
        ch["total"] = (uint64_t)num_chunks;
        ch["completed"] = report.chunks_completed;
        ch["failed"] = report.chunks_failed;
        uint64_t in_flight = 0;
        obs::Json inc = obs::Json::array();
        for (int c = 0; c < num_chunks; ++c) {
            if (resolved[(size_t)c] == 0 &&
                file_exists(lease_path(config.dir, c)))
                in_flight++;
            if (resolved[(size_t)c] != 1)
                inc.push_back((int64_t)c);
        }
        ch["in_flight"] = in_flight;
        s["chunks"] = std::move(ch);
        s["incomplete_chunks"] = std::move(inc);
        obs::Json ws = obs::Json::array();
        for (size_t k = 0; k < slots.size(); ++k) {
            const Slot& slot = slots[k];
            obs::Json w = obs::Json::object();
            w["slot"] = (int64_t)k;
            w["pid"] = (int64_t)std::max<pid_t>(slot.child.pid, 0);
            w["up"] = slot.up;
            w["restarts"] = (int64_t)slot.restarts;
            // Utilization comes from the worker's own last telemetry
            // snapshot (busy vs wall inside that process), not from
            // the supervisor's guess.
            obs::Json snap = obs::latest_snapshot(
                config.dir, "worker-" + std::to_string(k));
            double busy = 0, wwall = 0;
            if (const obs::Json* b = snap.find("busy_seconds"))
                busy = b->as_double();
            if (const obs::Json* ww = snap.find("wall_seconds"))
                wwall = ww->as_double();
            w["busy_seconds"] = busy;
            w["utilization"] = wwall > 0 ? busy / wwall : 0.0;
            ws.push_back(std::move(w));
        }
        s["workers"] = std::move(ws);
        write_file_atomic(status_path(config.dir), s.dump(2) + "\n");
    };
    {
        // Publish under the same span as the periodic refresh so the
        // merged fleet profile has an orch/status phase even when the
        // drain finishes before the first 0.5 s refresh fires.
        obs::ProfScope span("orch/status");
        publish_status("running");
    }
    double last_status = monotonic_seconds();

    auto mark_failed = [&](int c, const char* reason) {
        obs::Json f = obs::Json::object();
        f["schema"] = kFailedSchema;
        f["chunk"] = (int64_t)c;
        f["attempts"] = (int64_t)attempts[(size_t)c];
        f["reason"] = reason;
        write_file_atomic(chunk_failed_path(config.dir, c),
                          f.dump(2) + "\n");
        release_lease(config.dir, c);
        resolved[(size_t)c] = 2;
        unresolved--;
        report.failed_chunks.push_back(c);
        report.chunks_failed++;
        metrics.inc("orch/chunks_failed");
        obs::Json args = obs::Json::object();
        args["chunk"] = (int64_t)c;
        args["attempts"] = (int64_t)attempts[(size_t)c];
        args["reason"] = reason;
        telemetry.event("chunk/failed", std::move(args));
    };

    while (unresolved > 0) {
        if (shutdown_requested()) {
            report.interrupted = true;
            break;
        }

        {
            obs::ProfScope span("orch/scan");
            // Newly published results first, so a crashed worker's last
            // publish resolves its chunk before the reap respawns
            // anything for it.
            for (int c = 0; c < num_chunks; ++c) {
                if (resolved[(size_t)c] != 0)
                    continue;
                if (!file_exists(chunk_result_path(config.dir, c)))
                    continue;
                resolved[(size_t)c] = 1;
                unresolved--;
                report.chunks_completed++;
                metrics.inc("orch/chunks_completed");
                injections_done += (uint64_t)std::min(
                    config.chunk_size,
                    config.campaign.count - c * config.chunk_size);
                obs::Json args = obs::Json::object();
                args["chunk"] = (int64_t)c;
                telemetry.event("chunk/complete", std::move(args));
                // Publish-then-crash leaves the lease behind; the
                // result supersedes it.
                release_lease(config.dir, c);
                hold_until[(size_t)c] = 0;
            }
            for (Slot& slot : slots) {
                if (!slot.up)
                    continue;
                int exit_code = 0, term_signal = 0;
                pid_t pid = slot.child.pid;
                if (!codegen::try_reap(slot.child, &exit_code, &term_signal))
                    continue;
                dead_pids.insert(pid);
                slot.up = false;
                int slot_id = (int)(&slot - slots.data());
                {
                    obs::Json args = obs::Json::object();
                    args["slot"] = (int64_t)slot_id;
                    args["pid"] = (int64_t)pid;
                    if (term_signal != 0)
                        args["signal"] = (int64_t)term_signal;
                    else
                        args["exit"] = (int64_t)exit_code;
                    args["log"] = worker_log_path(config.dir, slot_id);
                    telemetry.event(term_signal != 0 ? "worker/signal"
                                                     : "worker/exit",
                                    std::move(args));
                }
                if (unresolved > 0 && !shutdown_requested() &&
                    slot.restarts < config.max_retries) {
                    slot.restarts++;
                    metrics.inc("orch/worker_restarts");
                    slot.child = spawn_worker(config, binary, slot_id,
                                              slot.restarts, metrics,
                                              telemetry);
                    slot.up = true;
                }
            }
        }

        {
            obs::ProfScope span("orch/reclaim");
            double now = monotonic_seconds();
            for (int c = 0; c < num_chunks; ++c) {
                if (resolved[(size_t)c] != 0)
                    continue;
                if (hold_until[(size_t)c] > 0) {
                    // Reclaim backoff: the stale lease stays in place
                    // (workers skip leased chunks) until the hold
                    // expires, then the chunk is claimable again.
                    if (now >= hold_until[(size_t)c]) {
                        release_lease(config.dir, c);
                        hold_until[(size_t)c] = 0;
                    }
                    continue;
                }
                std::string lp = lease_path(config.dir, c);
                if (!file_exists(lp))
                    continue;
                LeaseInfo lease;
                bool parsed = read_lease(lp, &lease);
                bool owner_dead =
                    parsed && lease.pid > 0 && dead_pids.count(lease.pid) > 0;
                bool stale = owner_dead;
                if (!stale) {
                    double age = heartbeat_age_seconds(config.dir, c);
                    stale = age > config.worker_timeout_seconds;
                    if (stale && parsed && lease.pid > 0) {
                        // Hung but alive: take out its whole process
                        // group; the next scan reaps and respawns.
                        codegen::ChildProcess owner;
                        owner.pid = lease.pid;
                        owner.command = "worker (hung)";
                        codegen::kill_process_group(owner);
                    }
                }
                if (!stale)
                    continue;
                reclaimed++;
                metrics.inc("orch/chunks_reclaimed");
                attempts[(size_t)c]++;
                {
                    obs::Json args = obs::Json::object();
                    args["chunk"] = (int64_t)c;
                    args["attempts"] = (int64_t)attempts[(size_t)c];
                    args["reason"] = owner_dead ? "owner-dead"
                                                : "stale-heartbeat";
                    telemetry.event("chunk/reclaim", std::move(args));
                }
                if (attempts[(size_t)c] > config.max_retries) {
                    mark_failed(c, "retry budget exhausted");
                } else {
                    metrics.inc("orch/chunks_retried");
                    double backoff = std::min(
                        0.1 * std::ldexp(1.0, attempts[(size_t)c] - 1), 5.0);
                    hold_until[(size_t)c] = now + backoff;
                    obs::Json args = obs::Json::object();
                    args["chunk"] = (int64_t)c;
                    args["attempt"] = (int64_t)attempts[(size_t)c];
                    args["backoff_seconds"] = backoff;
                    telemetry.event("chunk/retry", std::move(args));
                }
            }
        }

        // Every slot permanently down: pending chunks can never finish.
        bool any_up = std::any_of(slots.begin(), slots.end(),
                                  [](const Slot& s) { return s.up; });
        if (!any_up && unresolved > 0) {
            for (int c = 0; c < num_chunks; ++c)
                if (resolved[(size_t)c] == 0)
                    mark_failed(c, "no workers left");
            break;
        }

        if (monotonic_seconds() - last_status >= 0.5) {
            obs::ProfScope span("orch/status");
            publish_status("running");
            last_status = monotonic_seconds();
        }

        if (unresolved > 0 && !shutdown_requested())
            sleep_ms(50);
    }

    terminate_workers(slots);

    report.wall_seconds = monotonic_seconds() - t0;
    if (report.interrupted) {
        // Flush what we have: the per-process telemetry streams and a
        // final status are the partial artifacts an interrupted drain
        // leaves behind (nothing merged; rerun with the same flags).
        telemetry.event("drain/interrupted");
        telemetry.snapshot(metrics);
        publish_status("interrupted");
        return report;
    }
    telemetry.event("drain/done");

    uint64_t lease_conflicts = 0;
    merge_chunks(config, num_chunks, resolved, report, &lease_conflicts);
    metrics.inc("orch/lease_conflicts", lease_conflicts);
    metrics.inc("orch/chunks_claimed", report.chunks_completed + reclaimed);
    report.orchestration_config = obs::Json::object();
    report.orchestration_config["workers"] = (int64_t)config.workers;
    report.orchestration_config["chunk_size"] = (int64_t)config.chunk_size;
    report.orchestration_config["worker_timeout_seconds"] =
        config.worker_timeout_seconds;
    report.orchestration_config["max_retries"] = (int64_t)config.max_retries;
    report.orchestration_config["chaos"] = config.chaos;

    metrics.merge_from(fault::campaign_metrics(
        present_only(report.campaign, report.missing_injections)));

    {
        // Fleet merge: final supervisor snapshot first (so the merge
        // lane includes orch/merge), then fold every process's stream
        // into the three campaign-level artifacts. The merge span
        // itself is deliberately NOT in them — it is still open — so
        // the fleet phase set is identical for chaos and clean drains.
        obs::ProfScope span("orch/telemetry-merge");
        telemetry.snapshot(metrics);
        obs::FleetTelemetry fleet = obs::merge_fleet_telemetry(config.dir);
        metrics.inc("orch/telemetry_corrupt", fleet.corrupt_records);
        write_file_atomic(config.dir + "/fleet.prof.json",
                          fleet.report.to_json().dump(2) + "\n");
        write_file_atomic(config.dir + "/fleet.trace.json",
                          fleet.trace_json);
        write_file_atomic(config.dir + "/events.json",
                          fleet.events.dump(2) + "\n");
    }
    publish_status(report.chunks_failed > 0 ? "degraded" : "complete");

    {
        obs::ProfScope span("orch/report-write");
        write_file_atomic(config.dir + "/orchestrate.json",
                          report.to_json().dump(2) + "\n");
    }
    return report;
}

// -- Report ------------------------------------------------------------------

obs::Json
OrchestratorReport::to_json() const
{
    obs::Json j = obs::Json::object();
    j["schema"] = kReportSchema;
    j["design"] = campaign.design;
    j["engine"] = campaign.engine;
    j["config"] = fault::campaign_config_echo(campaign.config);
    j["orchestration"] = orchestration_config;

    obs::Json chunks = obs::Json::object();
    chunks["total"] = chunks_total;
    chunks["completed"] = chunks_completed;
    chunks["failed"] = chunks_failed;
    j["chunks"] = std::move(chunks);

    size_t total = campaign.injections.size();
    obs::Json summary = obs::Json::object();
    summary["injections"] = (uint64_t)(total - missing_injections.size());
    summary["masked"] = campaign.masked;
    summary["sdc"] = campaign.sdc;
    summary["detected"] = campaign.detected;
    summary["missing"] = (uint64_t)missing_injections.size();
    j["summary"] = std::move(summary);

    if (chunks_failed > 0 || !missing_injections.empty()) {
        obs::Json inc = obs::Json::object();
        obs::Json fc = obs::Json::array();
        for (int c : failed_chunks)
            fc.push_back((int64_t)c);
        inc["failed_chunks"] = std::move(fc);
        obs::Json mi = obs::Json::array();
        for (uint64_t idx : missing_injections)
            mi.push_back(idx);
        inc["missing_injections"] = std::move(mi);
        j["incomplete"] = std::move(inc);
    }

    // The embedded fault report: for a complete campaign these are the
    // exact bytes cuttlec's single-process --fault-report path writes
    // (same assembly functions, same inputs). With missing work, the
    // injections array is filtered to the records that exist and the
    // summary keeps the full-campaign counts plus a `missing` field.
    fault::CampaignReport filtered =
        present_only(campaign, missing_injections);
    obs::Json rep = fault::campaign_report_json(
        campaign, fault::campaign_metrics(filtered));
    if (!missing_injections.empty()) {
        std::vector<char> gone(total, 0);
        for (uint64_t idx : missing_injections)
            gone[idx] = 1;
        obs::Json list = obs::Json::array();
        for (size_t i = 0; i < total; ++i)
            if (!gone[i])
                list.push_back(
                    fault::injection_to_json(i, campaign.injections[i]));
        rep["injections"] = std::move(list);
        rep["summary"]["missing"] = (uint64_t)missing_injections.size();
    }
    j["report"] = std::move(rep);

    j["metrics"] = metrics.to_json();
    j["wall_seconds"] = wall_seconds;
    return j;
}

std::string
OrchestratorReport::to_text() const
{
    std::ostringstream os;
    os << "orchestrated fault campaign: " << campaign.design << " on "
       << campaign.engine << "\n";
    os << "  chunks:     " << chunks_completed << "/" << chunks_total
       << " completed";
    if (chunks_failed > 0)
        os << ", " << chunks_failed << " FAILED";
    os << "\n";
    os << "  reclaims:   " << metrics.counter("orch/chunks_reclaimed")
       << " (retried " << metrics.counter("orch/chunks_retried") << ")\n";
    os << "  workers:    " << metrics.counter("orch/workers_spawned")
       << " spawned, " << metrics.counter("orch/worker_restarts")
       << " restarts, " << metrics.counter("orch/lease_conflicts")
       << " lease conflicts\n";
    if (interrupted) {
        os << "  INTERRUPTED: rerun with the same flags to resume\n";
        return os.str();
    }
    if (!missing_injections.empty())
        os << "  INCOMPLETE: " << missing_injections.size()
           << " injections missing (see the report's `incomplete` block)\n";
    if (chunks_failed > 0 && !dir.empty())
        os << "  autopsy:    worker stderr in " << dir
           << "/workers/worker-*.log, event journal in " << dir
           << "/events.json\n";
    os << campaign.to_text();
    return os.str();
}

} // namespace koika::orchestrate
