/**
 * @file
 * cuttlec: the Cuttlesim compiler driver.
 *
 * The paper's workflow tool: compile a Kôika design to (a) a fast,
 * readable, debuggable C++ model for simulation (the Cuttlesim pipeline)
 * and, completely separately, (b) RTL for synthesis (here: a netlist,
 * emitted as Verilog and as a compiled cycle-based C++ simulation that
 * plays the Verilator role in the benchmarks).
 *
 *   cuttlec --design rv32i --out build/generated
 *       writes rv32i.model.hpp      (Cuttlesim C++ model)
 *              rv32i_rtl.hpp        (compiled netlist simulation)
 *              rv32i_rtlopt.hpp     (same, after netlist optimization)
 *              rv32i.v              (structural Verilog)
 *   cuttlec --design rv32i --instrument --out build/generated
 *       writes rv32i_instr.model.hpp only (class rv32i_instr, counters
 *       plus abort-reason attribution and statement/branch coverage
 *       arrays for the observability layer)
 *   cuttlec --list
 *   cuttlec --design fir --stats    (sizes only, no files)
 *   cuttlec --design fir --print-koika
 *
 * Observability (see README "Observability"): the driver can also run
 * the design and report what happened:
 *   cuttlec --design fir --cycles 5000 --stats=fir-stats.json
 *       per-rule commit/abort/abort-reason statistics as JSON
 *   cuttlec --design fir --cycles 200 --trace=fir.json
 *       Chrome trace-event rule activity, viewable in ui.perfetto.dev
 *   cuttlec --design fir --cycles 200 --vcd=fir.vcd
 *       committed-register waveform for GTKWave
 *   cuttlec --design rv32i --cycles 2000 --coverage=rv32i.cov.json
 *       design-coverage database (statements, branch outcomes, rule
 *       activity, register toggles) in the cuttlesim-cov-v1 schema;
 *       --coverage-lcov= renders LCOV for genhtml, --coverage-report=
 *       writes the Gcov-style annotated listing
 *   cuttlec --coverage-merge OUT IN...
 *       fold coverage shards (fault campaigns, fuzz workers, bench
 *       reps) into one database; merging is commutative, so any shard
 *       order produces the same bytes
 * The engine is selectable: --engine=T0..T5 picks an interpreter tier,
 * --engine=compiled emits the instrumented model, compiles it with the
 * system C++ compiler into a shared object and dlopens it
 * (codegen/dlmodel.hpp). The compiled model then runs in process with
 * the design's peripherals, exactly where a tier would, so every
 * artifact above (and checkpoints, bisection, fault campaigns) works on
 * it. When the model cannot be built (broken flags, wedged toolchain),
 * a simulation degrades gracefully: it warns and falls back to the T5
 * interpreter tier.
 *
 * Resilience (README "Fault-injection campaigns"):
 *   cuttlec --design rv32i --fault-campaign=SEED --fault-count=100 \
 *           --cycles 2000 --fault-report=rv32i-faults.json --jobs=8
 *       seeded, deterministic SEU/stuck-at campaign in lockstep against
 *       a golden copy; every injection classified masked / sdc /
 *       detected, counts exported through the obs metrics registry.
 *       --jobs shards injections across worker threads; the report
 *       stays byte-identical to a serial run (same seed ⇒ same bytes).
 *       Adding --coverage=FILE accumulates a coverage database over the
 *       faulted runs, also byte-identical at any job count.
 *   cuttlec --design rv32i --fault-orchestrate=DIR --fault-count=400 \
 *           --workers=4 --fault-report=rv32i-faults.json
 *       the same campaign drained by a supervised fleet of worker
 *       *processes* over a shared campaign directory (lease-claimed
 *       chunks, heartbeats, crash/hang reclaim with retry + backoff;
 *       src/orchestrate). The merged report is byte-identical to the
 *       single-process run; --chaos=P makes the workers crash/hang on
 *       purpose to prove it. Interrupting either flavor with SIGINT or
 *       SIGTERM shuts down gracefully (exit 75): in-flight progress is
 *       flushed and a rerun with the same flags resumes.
 *
 * Scaling: --engine=compiled reuses previously compiled models through
 * a content-addressed cache (--cache-dir, default ~/.cache/cuttlesim;
 * --no-cache disables). A warm hit skips the external compiler
 * entirely; the compile.cache_* counters in the output say which path
 * ran.
 *
 * Host-side profiling (docs/OBSERVABILITY.md): --profile=FILE writes a
 * cuttlesim-prof-v1 wall-clock report of the run itself (per-phase
 * totals, per-worker busy/idle, pool utilization), --profile-trace=FILE
 * writes the matching Chrome trace-event host timeline, and --progress
 * paints a live trials/sec + ETA heartbeat on stderr during fault
 * campaigns. All three observe only the host; every deterministic
 * artifact (reports, coverage, checkpoints) is byte-identical with or
 * without them.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include <unistd.h>

#include "base/io.hpp"
#include "base/signal.hpp"
#include "codegen/compile.hpp"
#include "codegen/cpp_emit.hpp"
#include "designs/designs.hpp"
#include "designs/rv32.hpp"
#include "designs/targets.hpp"
#include "fault/fault.hpp"
#include "harness/coverage.hpp"
#include "harness/memory.hpp"
#include "harness/vcd.hpp"
#include "interp/reference_model.hpp"
#include "koika/print.hpp"
#include "obs/coverage.hpp"
#include "obs/prof.hpp"
#include "obs/stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "orchestrate/orchestrator.hpp"
#include "replay/bisect.hpp"
#include "replay/checkpoint.hpp"
#include "riscv/programs.hpp"
#include "rtl/lower.hpp"
#include "rtl/optimize.hpp"
#include "rtl/rtl_emit.hpp"
#include "rtl/verilog.hpp"
#include "sim/tiers.hpp"

namespace {

/** All whole-file artifacts publish atomically (temp file + rename). */
void
write_file(const std::string& path, const std::string& text)
{
    koika::write_file_atomic(path, text);
}

/**
 * Registry every command path merges its final counters into, so
 * --metrics=FILE can dump the whole invocation whatever dispatch path
 * ran (the compile metrics are merged in at write time).
 */
koika::obs::MetricsRegistry&
run_metrics()
{
    static koika::obs::MetricsRegistry r;
    return r;
}

/** `cuttlec --metrics=FILE`: the standalone cuttlesim-metrics-v1 dump. */
void
publish_metrics(const std::string& file, const std::string& design,
                const std::string& engine)
{
    koika::obs::MetricsRegistry merged;
    merged.merge_from(run_metrics());
    merged.merge_from(koika::codegen::compile_metrics());
    write_file(file,
               koika::obs::metrics_artifact(design, engine, merged)
                       .dump(2) +
                   "\n");
    std::cerr << "cuttlec: wrote metrics '" << file << "'\n";
}

/**
 * Streaming writer (traces, VCD waveforms) with the same atomic
 * publish discipline: bytes stream into `path + ".tmp.<pid>"` and the
 * final name appears only on a healthy close. FatalError with a
 * "write-output" diagnostic (nonzero exit) on any stream failure, so a
 * full disk cannot silently truncate an artifact.
 */
class AtomicStream
{
  public:
    void
    open(const std::string& path)
    {
        path_ = path;
        tmp_ = path + ".tmp." + std::to_string(getpid());
        out_.open(tmp_, std::ios::binary);
        if (!out_)
            fail("cannot open for writing");
    }

    bool is_open() const { return out_.is_open(); }
    std::ofstream& stream() { return out_; }

    void
    publish()
    {
        out_.flush();
        if (!out_)
            fail("stream write failed");
        out_.close();
        if (std::rename(tmp_.c_str(), path_.c_str()) != 0)
            fail(std::strerror(errno));
    }

  private:
    [[noreturn]] void
    fail(const std::string& detail)
    {
        std::remove(tmp_.c_str());
        koika::Diagnostic diag;
        diag.phase = "write-output";
        diag.command = path_;
        diag.detail = detail;
        koika::fatal_diag(std::move(diag), "cannot write '%s'",
                          path_.c_str());
    }

    std::string path_, tmp_;
    std::ofstream out_;
};

int
usage()
{
    std::cerr
        << "usage: cuttlec --design NAME [--out DIR] [--stats]\n"
           "               [--print-koika] [--no-counters] [--instrument]\n"
           "               [--cycles N] [--stats=FILE] [--trace=FILE]\n"
           "               [--vcd=FILE] [--coverage=FILE]\n"
           "               [--coverage-lcov=FILE] [--coverage-report=FILE]\n"
           "               [--engine=T0..T5|ref|compiled] [--cxxflags=FLAGS]\n"
           "               [--fault-campaign=SEED] [--fault-count=N]\n"
           "               [--fault-report=FILE] [--fault-checkpoint=FILE]\n"
           "               [--fault-orchestrate=DIR] [--workers=N]\n"
           "               [--chunk-size=N] [--worker-timeout=SEC]\n"
           "               [--max-retries=K] [--chaos=P]\n"
           "               [--jobs=N] [--batch=N]\n"
           "               [--cache-dir=DIR] [--no-cache]\n"
           "               [--checkpoint=FILE] [--checkpoint-every=N]\n"
           "               [--restore=FILE] [--run-to=CYCLE]\n"
           "               [--profile=FILE] [--profile-trace=FILE]\n"
           "               [--progress] [--metrics=FILE]\n"
           "       cuttlec --design NAME --bisect-divergence A B\n"
           "               [--perturb=CYCLE:REG:BIT] [--cycles N]\n"
           "               [--bisect-report=FILE]\n"
           "       cuttlec --coverage-merge OUT IN...\n"
           "       cuttlec --fault-status=DIR\n"
           "       cuttlec --list\n"
           "\n"
           "  --stats=FILE  simulate and write per-rule commit/abort/\n"
           "                abort-reason stats as JSON (includes a\n"
           "                coverage summary when --coverage= also ran)\n"
           "  --trace=FILE  simulate and write a Chrome trace-event JSON\n"
           "                (open in ui.perfetto.dev)\n"
           "  --vcd=FILE    simulate and write a VCD waveform of the\n"
           "                committed registers\n"
           "  --coverage=FILE\n"
           "                simulate and write a cuttlesim-cov-v1 design\n"
           "                coverage database: statement counts, branch\n"
           "                taken/not-taken counts, per-rule activity,\n"
           "                per-bit register toggles. Works on every\n"
           "                engine; combine with --fault-campaign= to\n"
           "                accumulate coverage over the faulted runs\n"
           "  --coverage-lcov=FILE   also render the database as an LCOV\n"
           "                tracefile (genhtml-compatible; the listing it\n"
           "                refers to is written next to it as FILE.src)\n"
           "  --coverage-report=FILE  also write the Gcov-style annotated\n"
           "                source listing with execution counts\n"
           "  --coverage-merge OUT IN...\n"
           "                merge coverage databases into OUT (shards\n"
           "                from --jobs workers, fuzz trials, bench reps)\n"
           "  --cycles N    simulation length / fault-campaign horizon\n"
           "                (default 1000)\n"
           "  --engine=E    simulation engine: an interpreter tier\n"
           "                (T0..T5, default T5), 'ref', or 'compiled'\n"
           "                (emit the instrumented model, compile it with\n"
           "                the system C++ compiler, dlopen it and run it\n"
           "                in process like a tier; every output, flag\n"
           "                and subcommand works on it). A simulation\n"
           "                falls back to T5 with a warning when the\n"
           "                model cannot be built\n"
           "  --cxxflags=F  flags for --engine=compiled (default -O2)\n"
           "  --fault-campaign=SEED\n"
           "                run a deterministic fault-injection campaign\n"
           "                (SEU bit-flips + stuck-at faults) against a\n"
           "                golden copy; classify masked / sdc / detected\n"
           "  --fault-count=N   injections per campaign (default 100)\n"
           "  --fault-report=FILE   write the campaign report as JSON\n"
           "  --jobs=N      shard fault injections across N worker\n"
           "                threads (0 = one per hardware thread;\n"
           "                default 1). Reports and coverage databases\n"
           "                are byte-identical at any job count\n"
           "  --batch=N     advance N fault trials per worker in lockstep\n"
           "                lanes sharing one golden run (finished or\n"
           "                faulted lanes are masked out). Composes with\n"
           "                --jobs; reports and coverage databases stay\n"
           "                byte-identical at any lane count (default 1)\n"
           "  --fault-checkpoint=FILE\n"
           "                resumable campaigns: progress is saved to\n"
           "                FILE after each chunk of injections and a\n"
           "                matching file resumes instead of re-running;\n"
           "                the final report is byte-identical either way\n"
           "  --fault-orchestrate=DIR\n"
           "                drain the campaign with a supervised fleet of\n"
           "                worker processes over campaign directory DIR\n"
           "                (lease-claimed chunks, heartbeats, crash/hang\n"
           "                reclaim). The merged report is byte-identical\n"
           "                to the single-process run; exit 4 when chunks\n"
           "                exhausted their retries (see DIR/orchestrate\n"
           "                .json's `incomplete` block). A rerun with the\n"
           "                same flags resumes from the completed chunks.\n"
           "                --jobs= is the per-worker thread count here\n"
           "  --workers=N   worker processes to supervise (default 2)\n"
           "  --chunk-size=N    injections per lease-claimed chunk\n"
           "                (default 16)\n"
           "  --worker-timeout=SEC   reclaim a chunk whose worker's\n"
           "                heartbeat is older than SEC (default 10)\n"
           "  --max-retries=K   per-chunk reclaim budget and per-slot\n"
           "                respawn budget (default 3); past it the chunk\n"
           "                is marked failed and the report degrades\n"
           "                gracefully instead of aborting\n"
           "  --chaos=P     self-test: workers crash mid-chunk, hang, or\n"
           "                crash after publishing with probability P per\n"
           "                claim (default 0)\n"
           "  --fault-status=DIR\n"
           "                pretty-print the live status.json a running\n"
           "                --fault-orchestrate supervisor publishes in\n"
           "                DIR (state, trials/sec, ETA, per-worker\n"
           "                utilization, incomplete chunks); exit 1 when\n"
           "                no status has been published yet\n"
           "  --checkpoint=FILE\n"
           "                save a cuttlesim-ckpt-v1 checkpoint of the\n"
           "                full simulation state (registers, engine\n"
           "                counters, peripherals, coverage, metrics) at\n"
           "                the end of the run\n"
           "  --checkpoint-every=N\n"
           "                also save FILE.<cycle> every N cycles\n"
           "  --restore=FILE    resume from a checkpoint; stats and\n"
           "                coverage match an uninterrupted run\n"
           "  --run-to=CYCLE    run to an absolute committed-cycle\n"
           "                count (instead of --cycles more)\n"
           "  --bisect-divergence A B\n"
           "                find the first cycle where engines A and B\n"
           "                (T0..T5, 'ref' or 'compiled') commit\n"
           "                different state:\n"
           "                checkpointed scan + binary search + 1-cycle\n"
           "                replay; reports cycle, register, firing sets\n"
           "  --perturb=CYCLE:REG:BIT\n"
           "                deterministically flip one bit in engine B\n"
           "                after CYCLE commits (bisector self-test)\n"
           "  --bisect-report=FILE  write the bisection result as JSON\n"
           "  --cache-dir=DIR   compiled-model cache for\n"
           "                --engine=compiled (default\n"
           "                ~/.cache/cuttlesim; a warm hit skips the\n"
           "                external compiler)\n"
           "  --no-cache    disable the compiled-model cache\n"
           "  --profile=FILE\n"
           "                write a cuttlesim-prof-v1 host wall-clock\n"
           "                profile of this invocation: per-phase\n"
           "                total/count/mean/max, per-worker busy vs.\n"
           "                idle, pool utilization. Structure is\n"
           "                identical at any --jobs value\n"
           "  --profile-trace=FILE\n"
           "                write the matching Chrome trace-event host\n"
           "                timeline (one lane per worker thread; open\n"
           "                in ui.perfetto.dev)\n"
           "  --progress    live heartbeat on stderr during fault\n"
           "                campaigns: injections done, trials/sec, ETA,\n"
           "                worker busy % (with --profile*)\n"
           "  --metrics=FILE\n"
           "                write the invocation's metrics registry (run\n"
           "                counters merged with the compile metrics) as\n"
           "                a standalone cuttlesim-metrics-v1 JSON\n"
           "                artifact; works with every engine and\n"
           "                subcommand, and is written even when the\n"
           "                command fails\n"
           "  --instrument  emit only NAME_instr.model.hpp: a model with\n"
           "                counters, abort-reason attribution, and\n"
           "                statement/branch coverage arrays\n";
    return 2;
}

using koika::designs::engine_label;
using koika::designs::make_target_factory;
using koika::designs::parse_tier;

/** Files one simulation run should produce (empty = not asked for). */
struct RunOutputs
{
    std::string stats;
    std::string trace;
    std::string vcd;
    std::string coverage;
    std::string coverage_lcov;
    std::string coverage_report;
    std::string checkpoint;        ///< --checkpoint=FILE
    uint64_t checkpoint_every = 0; ///< --checkpoint-every=N
    std::string restore;           ///< --restore=FILE
    uint64_t run_to = 0;           ///< --run-to=CYCLE (0 = unset)

    bool
    wants_coverage() const
    {
        return !coverage.empty() || !coverage_lcov.empty() ||
               !coverage_report.empty();
    }

    bool
    wants_replay() const
    {
        return !checkpoint.empty() || !restore.empty() || run_to != 0;
    }

    bool
    wants_run() const
    {
        return !stats.empty() || !trace.empty() || !vcd.empty() ||
               wants_coverage() || wants_replay();
    }
};

/**
 * Write every coverage artifact that was asked for and return the
 * summary block for embedding into SimStats.
 */
koika::obs::Json
write_coverage_outputs(const koika::Design& design,
                       const koika::obs::CoverageMap& map,
                       const RunOutputs& out)
{
    if (!out.coverage.empty())
        map.save(out.coverage);
    if (!out.coverage_lcov.empty()) {
        std::string src = out.coverage_lcov + ".src";
        koika::obs::LcovReport rep =
            koika::obs::lcov_export(design, map, src);
        write_file(out.coverage_lcov, rep.info);
        write_file(src, rep.listing);
    }
    if (!out.coverage_report.empty())
        write_file(out.coverage_report,
                   koika::harness::coverage_report(design, map));
    return map.summary_json();
}

/** Seeded fault-injection campaign against a golden copy. */
int
fault_campaign(const koika::Design& design, const std::string& engine,
               const koika::codegen::DlModelOptions& dlopts,
               uint64_t seed, int count, uint64_t cycles, int jobs,
               int batch, bool progress, const std::string& report_file,
               const std::string& checkpoint_file, const RunOutputs& out)
{
    koika::fault::CampaignConfig config;
    config.seed = seed;
    config.count = count;
    config.cycles = cycles;
    config.jobs = jobs;
    config.batch = batch;
    config.progress = progress;
    config.collect_coverage = out.wants_coverage();
    config.checkpoint_file = checkpoint_file;

    koika::install_shutdown_handlers();
    koika::fault::CampaignReport report = koika::fault::run_campaign(
        design, make_target_factory(design, engine, dlopts), config);
    report.engine = engine_label(engine);
    if (report.resumed > 0)
        std::cerr << "cuttlec: resumed fault campaign from '"
                  << checkpoint_file << "' (" << report.resumed << "/"
                  << count << " injections already done)\n";

    if (report.interrupted) {
        // Completed records up to the chunk boundary are already
        // flushed to the checkpoint file (atomically); the final
        // artifacts must not be written from a partial record set.
        std::cerr << "cuttlec: fault campaign interrupted";
        if (!checkpoint_file.empty())
            std::cerr << "; progress saved — rerun with the same flags "
                         "to resume from '"
                      << checkpoint_file << "'";
        std::cerr << "\n";
        return koika::kExitInterrupted;
    }

    koika::obs::MetricsRegistry metrics =
        koika::fault::campaign_metrics(report);

    koika::obs::ProfScope write_span("campaign/report-write");
    if (report.has_coverage) {
        report.coverage.add_engine(report.engine);
        write_coverage_outputs(design, report.coverage, out);
    }

    if (!report_file.empty())
        write_file(report_file,
                   koika::fault::campaign_report_json(report, metrics)
                           .dump(2) +
                       "\n");
    write_span.close();
    run_metrics().merge_from(metrics);
    std::cout << report.to_text() << metrics.to_text();
    return 0;
}

/**
 * `cuttlec --fault-orchestrate=DIR`: the same campaign, drained by a
 * supervised multi-process worker fleet (src/orchestrate). The merged
 * --fault-report bytes are identical to fault_campaign's because both
 * paths assemble them with fault::campaign_report_json over the same
 * record set; here the report is only written when the campaign is
 * complete (a degraded campaign's partial report lives in
 * DIR/orchestrate.json under its `incomplete` block).
 */
int
fault_orchestrate_cmd(const koika::Design& design,
                      const std::string& engine,
                      const koika::codegen::DlModelOptions& dlopts,
                      const std::string& dir,
                      uint64_t seed, int count, uint64_t cycles, int jobs,
                      int batch, int workers, int chunk_size,
                      double worker_timeout,
                      int max_retries, double chaos,
                      const std::string& report_file, const RunOutputs& out)
{
    koika::orchestrate::OrchestratorConfig config;
    config.dir = dir;
    config.design = design.name();
    config.engine = engine;
    config.dlopts = dlopts;
    config.campaign.seed = seed;
    config.campaign.count = count;
    config.campaign.cycles = cycles;
    config.campaign.jobs = jobs;
    config.campaign.batch = batch;
    config.campaign.collect_coverage = out.wants_coverage();
    config.workers = workers;
    config.chunk_size = chunk_size;
    config.worker_timeout_seconds = worker_timeout;
    config.max_retries = max_retries;
    config.chaos = chaos;

    koika::orchestrate::OrchestratorReport report =
        koika::orchestrate::run_orchestrator(config);

    if (report.interrupted) {
        std::cerr << "cuttlec: orchestrated campaign interrupted; "
                     "completed chunks are kept — rerun with the same "
                     "flags to resume from '"
                  << dir << "'\n";
        std::cout << report.to_text();
        return koika::kExitInterrupted;
    }

    koika::obs::ProfScope write_span("campaign/report-write");
    if (report.campaign.has_coverage)
        write_coverage_outputs(design, report.campaign.coverage, out);

    if (!report_file.empty()) {
        if (report.complete()) {
            write_file(report_file,
                       koika::fault::campaign_report_json(
                           report.campaign,
                           koika::fault::campaign_metrics(report.campaign))
                               .dump(2) +
                           "\n");
        } else {
            std::cerr << "cuttlec: warning: campaign incomplete ("
                      << report.missing_injections.size()
                      << " injections missing); '" << report_file
                      << "' not written — see " << dir
                      << "/orchestrate.json\n";
        }
    }
    write_span.close();
    run_metrics().merge_from(report.metrics);
    std::cout << report.to_text() << report.metrics.to_text();
    return report.complete() ? 0 : koika::orchestrate::kExitIncomplete;
}

/**
 * Capture the full simulation state between cycles: committed
 * registers and engine counters (Checkpoint::capture), peripheral
 * state ("env"), coverage-collector accumulators ("coverage"), and the
 * metrics registry ("metrics"). Everything a byte-identical resume
 * needs.
 */
koika::replay::Checkpoint
capture_system(const koika::Design& design,
               const koika::sim::System& target,
               const koika::obs::CoverageCollector* cov,
               const koika::obs::MetricsRegistry& metrics)
{
    koika::replay::Checkpoint ck =
        koika::replay::Checkpoint::capture(design, target);
    if (cov != nullptr) {
        koika::sim::StateWriter w;
        cov->save_state(w);
        ck.set_section("coverage", w.take());
    }
    ck.set_section("metrics", metrics.to_json().dump());
    return ck;
}

/**
 * Run `design` on an engine, writing artifacts as asked. When the
 * compiled model cannot be built (broken flags, wedged toolchain), warn
 * and fall back to the T5 interpreter tier, setting `engine` to "T5".
 */
int
simulate(const koika::Design& design, std::string& engine,
         const koika::codegen::DlModelOptions& dlopts, uint64_t cycles,
         const RunOutputs& out)
{
    // Same stimulus routing as fault campaigns and golden runs: rv32
    // designs run the primes program out of magic memories, closed
    // designs run bare.
    koika::obs::ProfScope setup_span("sim/setup");
    koika::sim::System target;
    try {
        target = make_target_factory(design, engine, dlopts)();
    } catch (const koika::FatalError& err) {
        if (engine != "compiled")
            throw;
        std::cerr << "cuttlec: warning: compiled engine failed: "
                  << err.message() << "\n"
                  << "cuttlec: warning: falling back to the T5 "
                     "interpreter tier\n";
        engine = "T5";
        target = make_target_factory(design, engine)();
    }
    bool compiled = engine == "compiled";
    std::string label = engine_label(engine);
    koika::sim::Model& model = *target.model;
    auto* rs = dynamic_cast<koika::sim::RuleStatsModel*>(&model);

    // Restore committed registers + engine counters + peripherals
    // before any observer attaches, so collectors snapshot the
    // restored state as their baseline.
    uint64_t start = 0;
    std::unique_ptr<koika::replay::Checkpoint> restored;
    if (!out.restore.empty()) {
        restored = std::make_unique<koika::replay::Checkpoint>(
            koika::replay::Checkpoint::load(out.restore));
        if (!restored->restore_into(design, target))
            std::cerr << "cuttlec: warning: checkpoint engine state "
                         "was captured by a different engine family; "
                         "registers restored, counters restart at "
                         "zero\n";
        start = restored->cycle;
    }
    uint64_t end = out.run_to != 0 ? out.run_to : start + cycles;
    if (end < start)
        koika::fatal("--run-to=%llu is before the checkpoint's cycle "
                     "%llu",
                     (unsigned long long)end,
                     (unsigned long long)start);

    AtomicStream trace_out;
    std::unique_ptr<koika::obs::TraceWriter> trace;
    if (!out.trace.empty()) {
        KOIKA_CHECK(rs != nullptr);
        trace_out.open(out.trace);
        std::vector<std::string> rule_names;
        for (size_t r = 0; r < rs->num_rules(); ++r)
            rule_names.push_back(rs->rule_name((int)r));
        trace = std::make_unique<koika::obs::TraceWriter>(
            trace_out.stream(), std::move(rule_names), design.name());
    }

    AtomicStream vcd_out;
    std::unique_ptr<koika::harness::VcdWriter> vcd;
    if (!out.vcd.empty()) {
        vcd_out.open(out.vcd);
        vcd = std::make_unique<koika::harness::VcdWriter>(
            design, vcd_out.stream());
        vcd->sample(model); // time 0: the initial committed state
    }

    std::unique_ptr<koika::obs::CoverageCollector> cov;
    if (out.wants_coverage())
        cov = std::make_unique<koika::obs::CoverageCollector>(design,
                                                              model);

    koika::obs::MetricsRegistry metrics;
    if (rs != nullptr)
        metrics.define_histogram("rules_fired_per_cycle", [&] {
            std::vector<double> bounds;
            for (size_t r = 0; r <= rs->num_rules(); ++r)
                bounds.push_back((double)r);
            return bounds;
        }());

    // Replay the observers' accumulated state so a restored run's
    // stats and coverage files come out byte-identical (minus
    // wall-clock) to an uninterrupted run's.
    if (restored != nullptr) {
        if (cov != nullptr) {
            if (const std::string* s = restored->section("coverage")) {
                koika::sim::StateReader r(*s);
                cov->load_state(r);
            }
        }
        if (const std::string* s = restored->section("metrics"))
            metrics = koika::obs::MetricsRegistry::from_json(
                koika::obs::Json::parse(*s));
    }

    setup_span.close();
    koika::install_shutdown_handlers();
    bool interrupted = false;
    uint64_t reached = start;
    koika::obs::ProfScope run_span("sim/run");
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t c = start; c < end; ++c) {
        if (koika::shutdown_requested()) {
            // Stop at a committed-cycle boundary: every artifact below
            // (trace, VCD, checkpoint, stats, coverage) is flushed
            // atomically for the cycles that did run, and --restore on
            // the checkpoint resumes from exactly here.
            interrupted = true;
            break;
        }
        reached = c + 1;
        model.cycle();
        if (target.stimulus)
            target.stimulus(model, c);
        if (trace != nullptr)
            trace->sample(*rs);
        if (vcd != nullptr)
            vcd->sample(model);
        if (cov != nullptr)
            cov->sample();
        if (!out.stats.empty() && rs != nullptr) {
            size_t fired = 0;
            for (bool f : rs->fired())
                fired += f;
            metrics.observe("rules_fired_per_cycle", (double)fired);
        }
        if (!out.checkpoint.empty() && out.checkpoint_every != 0 &&
            (c + 1) % out.checkpoint_every == 0 && c + 1 != end)
            capture_system(design, target, cov.get(), metrics)
                .save(out.checkpoint + "." + std::to_string(c + 1));
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    run_span.close();
    koika::obs::ProfScope out_span("sim/write-output");

    if (trace != nullptr) {
        trace->finish();
        trace_out.publish();
    }
    if (vcd != nullptr)
        vcd_out.publish();

    if (!out.checkpoint.empty())
        capture_system(design, target, cov.get(), metrics)
            .save(out.checkpoint);

    koika::obs::SimStats stats = koika::obs::collect_stats(model);
    stats.design = design.name();
    stats.engine = label;
    stats.wall_seconds = wall;

    if (cov != nullptr) {
        koika::obs::CoverageMap map = cov->take(label);
        stats.coverage = write_coverage_outputs(design, map, out);
    }

    if (!out.stats.empty()) {
        koika::obs::Json j = stats.to_json();
        j["metrics"] = metrics.to_json();
        if (compiled)
            j["compile_metrics"] =
                koika::codegen::compile_metrics().to_json();
        write_file(out.stats, j.dump(2) + "\n");
    }
    run_metrics().merge_from(metrics);
    std::cout << stats.to_text();
    if (compiled)
        std::cout << koika::codegen::compile_metrics().to_text();
    if (interrupted) {
        std::cerr << "cuttlec: interrupted at cycle " << reached
                  << " of " << end << "; artifacts cover the cycles "
                     "that ran";
        if (!out.checkpoint.empty())
            std::cerr << " — resume with --restore=" << out.checkpoint
                      << " --run-to=" << end;
        std::cerr << "\n";
        return koika::kExitInterrupted;
    }
    return 0;
}

/**
 * `cuttlec --bisect-divergence A B`: locate the first committed cycle
 * where two engines disagree, by checkpointed scan + binary search +
 * single-cycle replay (replay/bisect.hpp). --perturb injects a
 * deterministic bit flip into engine B so the machinery can be
 * demonstrated (and tested) on engines that genuinely agree.
 */
int
bisect_divergence_cmd(const koika::Design& design,
                      const std::string& engine_a,
                      const std::string& engine_b,
                      const koika::codegen::DlModelOptions& dlopts,
                      uint64_t cycles, const std::string& perturb,
                      const std::string& report_file)
{
    koika::replay::BisectConfig config;
    config.horizon = cycles;
    if (!perturb.empty()) {
        // CYCLE:REG:BIT — flip one bit of B's committed state right
        // after cycle CYCLE commits. A pure function of the committed
        // cycle count, so restore+replay reproduces it exactly.
        uint64_t pcycle = 0;
        unsigned pbit = 0;
        char preg[128] = {0};
        if (std::sscanf(perturb.c_str(), "%llu:%127[^:]:%u",
                        (unsigned long long*)&pcycle, preg,
                        &pbit) != 3)
            koika::fatal("--perturb wants CYCLE:REG:BIT, got '%s'",
                         perturb.c_str());
        int reg = design.reg_index(preg);
        if (reg < 0)
            koika::fatal("--perturb: no register '%s' in design '%s'",
                         preg, design.name().c_str());
        config.perturb_b = [pcycle, reg,
                            pbit](koika::sim::Model& m,
                                  uint64_t committed) {
            if (committed == pcycle) {
                koika::Bits v = m.get_reg(reg);
                m.set_reg(reg, v.with_bit(pbit, !v.bit(pbit)));
            }
        };
    }

    koika::replay::DivergenceReport rep =
        koika::replay::bisect_divergence(
            design, make_target_factory(design, engine_a, dlopts),
            make_target_factory(design, engine_b, dlopts), config);
    rep.engine_a = engine_label(engine_a);
    rep.engine_b = engine_label(engine_b);

    if (!report_file.empty()) {
        koika::obs::Json j = rep.to_json();
        j["design"] = design.name();
        write_file(report_file, j.dump(2) + "\n");
    }
    std::cout << rep.to_text();
    return 0;
}

/** `cuttlec --coverage-merge OUT IN...`: fold shards into OUT. */
int
coverage_merge(int argc, char** argv, int i)
{
    if (i + 2 > argc - 1) {
        std::cerr << "cuttlec: --coverage-merge needs OUT and at "
                     "least one IN\n";
        return usage();
    }
    std::string out_path = argv[i + 1];
    try {
        koika::obs::CoverageMap merged =
            koika::obs::CoverageMap::load(argv[i + 2]);
        for (int k = i + 3; k < argc; ++k)
            merged.merge(koika::obs::CoverageMap::load(argv[k]));
        merged.save(out_path);
        koika::obs::CoverageMap::Summary s = merged.summary();
        std::cout << "merged " << (argc - i - 2) << " databases into "
                  << out_path << ": " << s.stmt_covered << "/"
                  << s.stmt_points << " statements, "
                  << s.branch_outcomes_covered << "/"
                  << s.branch_outcomes << " branch outcomes, "
                  << s.toggle_dirs_covered << "/" << s.toggle_dirs
                  << " toggle directions\n";
        return 0;
    } catch (const koika::FatalError& err) {
        std::cerr << "cuttlec: " << err.what() << "\n";
        return 1;
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string design_name, out_dir;
    std::string engine = "T5", cxxflags = "-O2", fault_report;
    std::string cache_dir = koika::codegen::default_cache_dir();
    std::string fault_checkpoint, fault_orchestrate, fault_worker;
    std::string bisect_a, bisect_b, perturb, bisect_report;
    std::string profile_file, profile_trace;
    std::string fault_status, metrics_file;
    RunOutputs outputs;
    bool stats = false, print_koika = false, counters = true;
    bool instrument = false, fault = false, bisect = false;
    bool progress = false;
    uint64_t cycles = 1000, fault_seed = 1;
    int fault_count = 100, jobs = 1, batch = 1;
    int worker_id = 0, workers = 2, chunk_size = 16, max_retries = 3;
    double worker_timeout = 10, chaos = 0;
    // --metrics= is pre-scanned so the subcommands that return straight
    // out of the parse loop (--list, --coverage-merge) still honor it.
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--metrics=", 0) == 0)
            metrics_file = arg.substr(std::strlen("--metrics="));
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            for (const auto& name : koika::designs::design_names())
                std::cout << name << "\n";
            if (!metrics_file.empty())
                publish_metrics(metrics_file, "", "");
            return 0;
        }
        if (arg == "--coverage-merge") {
            int rc = coverage_merge(argc, argv, i);
            if (!metrics_file.empty())
                publish_metrics(metrics_file, "", "");
            return rc;
        }
        if (arg == "--design" && i + 1 < argc) {
            design_name = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg.rfind("--stats=", 0) == 0) {
            outputs.stats = arg.substr(std::strlen("--stats="));
        } else if (arg.rfind("--trace=", 0) == 0) {
            outputs.trace = arg.substr(std::strlen("--trace="));
        } else if (arg.rfind("--vcd=", 0) == 0) {
            outputs.vcd = arg.substr(std::strlen("--vcd="));
        } else if (arg.rfind("--coverage=", 0) == 0) {
            outputs.coverage = arg.substr(std::strlen("--coverage="));
        } else if (arg.rfind("--coverage-lcov=", 0) == 0) {
            outputs.coverage_lcov =
                arg.substr(std::strlen("--coverage-lcov="));
        } else if (arg.rfind("--coverage-report=", 0) == 0) {
            outputs.coverage_report =
                arg.substr(std::strlen("--coverage-report="));
        } else if (arg.rfind("--engine=", 0) == 0) {
            engine = arg.substr(std::strlen("--engine="));
        } else if (arg.rfind("--cxxflags=", 0) == 0) {
            cxxflags = arg.substr(std::strlen("--cxxflags="));
        } else if (arg.rfind("--fault-campaign=", 0) == 0) {
            fault = true;
            fault_seed = std::strtoull(
                arg.c_str() + std::strlen("--fault-campaign="), nullptr,
                10);
        } else if (arg.rfind("--fault-count=", 0) == 0) {
            fault_count = (int)std::strtoul(
                arg.c_str() + std::strlen("--fault-count="), nullptr,
                10);
        } else if (arg.rfind("--fault-report=", 0) == 0) {
            fault_report = arg.substr(std::strlen("--fault-report="));
        } else if (arg.rfind("--fault-checkpoint=", 0) == 0) {
            fault_checkpoint =
                arg.substr(std::strlen("--fault-checkpoint="));
        } else if (arg.rfind("--fault-orchestrate=", 0) == 0) {
            fault = true;
            fault_orchestrate =
                arg.substr(std::strlen("--fault-orchestrate="));
        } else if (arg.rfind("--fault-worker=", 0) == 0) {
            fault_worker = arg.substr(std::strlen("--fault-worker="));
        } else if (arg.rfind("--worker-id=", 0) == 0) {
            worker_id = (int)std::strtol(
                arg.c_str() + std::strlen("--worker-id="), nullptr, 10);
        } else if (arg.rfind("--workers=", 0) == 0) {
            workers = (int)std::strtol(
                arg.c_str() + std::strlen("--workers="), nullptr, 10);
        } else if (arg.rfind("--chunk-size=", 0) == 0) {
            chunk_size = (int)std::strtol(
                arg.c_str() + std::strlen("--chunk-size="), nullptr, 10);
        } else if (arg.rfind("--worker-timeout=", 0) == 0) {
            worker_timeout = std::strtod(
                arg.c_str() + std::strlen("--worker-timeout="), nullptr);
        } else if (arg.rfind("--max-retries=", 0) == 0) {
            max_retries = (int)std::strtol(
                arg.c_str() + std::strlen("--max-retries="), nullptr, 10);
        } else if (arg.rfind("--chaos=", 0) == 0) {
            chaos = std::strtod(arg.c_str() + std::strlen("--chaos="),
                                nullptr);
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            outputs.checkpoint =
                arg.substr(std::strlen("--checkpoint="));
        } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
            outputs.checkpoint_every = std::strtoull(
                arg.c_str() + std::strlen("--checkpoint-every="),
                nullptr, 10);
        } else if (arg.rfind("--restore=", 0) == 0) {
            outputs.restore = arg.substr(std::strlen("--restore="));
        } else if (arg.rfind("--run-to=", 0) == 0) {
            outputs.run_to = std::strtoull(
                arg.c_str() + std::strlen("--run-to="), nullptr, 10);
        } else if (arg == "--bisect-divergence" && i + 2 < argc) {
            bisect = true;
            bisect_a = argv[++i];
            bisect_b = argv[++i];
        } else if (arg.rfind("--perturb=", 0) == 0) {
            perturb = arg.substr(std::strlen("--perturb="));
        } else if (arg.rfind("--bisect-report=", 0) == 0) {
            bisect_report =
                arg.substr(std::strlen("--bisect-report="));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            jobs = (int)std::strtol(arg.c_str() + std::strlen("--jobs="),
                                    nullptr, 10);
        } else if (arg.rfind("--batch=", 0) == 0) {
            batch = (int)std::strtol(
                arg.c_str() + std::strlen("--batch="), nullptr, 10);
        } else if (arg.rfind("--profile=", 0) == 0) {
            profile_file = arg.substr(std::strlen("--profile="));
        } else if (arg.rfind("--profile-trace=", 0) == 0) {
            profile_trace = arg.substr(std::strlen("--profile-trace="));
        } else if (arg.rfind("--fault-status=", 0) == 0) {
            fault_status = arg.substr(std::strlen("--fault-status="));
        } else if (arg.rfind("--metrics=", 0) == 0) {
            // already pre-scanned above
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cache_dir = arg.substr(std::strlen("--cache-dir="));
        } else if (arg == "--no-cache") {
            cache_dir.clear();
        } else if (arg == "--cycles" && i + 1 < argc) {
            cycles = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--print-koika") {
            print_koika = true;
        } else if (arg == "--no-counters") {
            counters = false;
        } else if (arg == "--instrument") {
            instrument = true;
        } else {
            return usage();
        }
    }
    // Live campaign introspection: pretty-print the status.json a
    // running (or finished) supervisor published. Like worker mode it
    // needs no --design; everything comes from the campaign directory.
    if (!fault_status.empty()) {
        try {
            koika::obs::Json s = koika::obs::Json::parse(koika::read_file(
                koika::orchestrate::status_path(fault_status)));
            std::cout << koika::obs::render_status_text(s);
            return 0;
        } catch (const std::exception& err) {
            std::cerr << "cuttlec: cannot read campaign status from '"
                      << fault_status << "': " << err.what() << "\n";
            return 1;
        }
    }
    // Worker mode: everything the worker needs (design, engine, fault
    // list, chunking) comes from the campaign directory's manifest, so
    // it is handled before the --design requirement below.
    if (!fault_worker.empty()) {
        try {
            return koika::orchestrate::run_worker(fault_worker, worker_id);
        } catch (const koika::FatalError& err) {
            std::cerr << "cuttlec[worker " << worker_id
                      << "]: " << err.what() << "\n";
            return 1;
        }
    }

    if (design_name.empty())
        return usage();

    if (!fault_orchestrate.empty() && !fault_checkpoint.empty()) {
        std::cerr << "cuttlec: --fault-orchestrate manages its own "
                     "progress (the chunk files in the campaign "
                     "directory); --fault-checkpoint does not apply\n";
        return usage();
    }

    koika::sim::Tier tier = koika::sim::Tier::kT5StaticAnalysis;
    if (engine != "compiled" && engine != "ref" &&
        !parse_tier(engine, &tier)) {
        std::cerr << "cuttlec: unknown engine '" << engine << "'\n";
        return usage();
    }

    // Arm the profiler before any profiled work (design build included)
    // so the report accounts for the whole invocation.
    bool profiling = !profile_file.empty() || !profile_trace.empty();
    if (profiling) {
        koika::obs::Profiler::instance().enable();
        koika::obs::Profiler::instance().set_thread_name("main");
    }
    // Every command path funnels through this lambda so the profile
    // artifacts can be written once, after the command finishes,
    // whatever return statement it took.
    auto dispatch = [&]() -> int {
        auto design = [&] {
            koika::obs::ProfScope span("design-build");
            return koika::designs::build_design(design_name);
        }();
        std::string cls = koika::codegen::model_class_name(*design);

        if (print_koika) {
            std::cout << koika::print_design(*design);
            return 0;
        }

        // The compiled engine participates like any tier: the model is
        // dlopened into the process (codegen/dlmodel.hpp) with full
        // instrumentation, so stats, traces, coverage, waveforms,
        // register pokes and checkpoint-restore all work.
        // --cxxflags/--cache-dir pick its build flavor; --out keeps the
        // emitted sources.
        koika::codegen::DlModelOptions dlopts;
        dlopts.cxxflags = cxxflags;
        dlopts.cache.dir = cache_dir;
        dlopts.workdir = out_dir;

        if (bisect)
            return bisect_divergence_cmd(*design, bisect_a, bisect_b,
                                         dlopts, cycles, perturb,
                                         bisect_report);

        if (fault) {
            if (!fault_orchestrate.empty())
                return fault_orchestrate_cmd(
                    *design, engine, dlopts, fault_orchestrate, fault_seed,
                    fault_count, cycles, jobs, batch, workers,
                    chunk_size, worker_timeout, max_retries, chaos,
                    fault_report, outputs);
            return fault_campaign(*design, engine, dlopts, fault_seed,
                                  fault_count, cycles, jobs, batch,
                                  progress, fault_report,
                                  fault_checkpoint, outputs);
        }

        if (outputs.wants_run())
            return simulate(*design, engine, dlopts, cycles, outputs);

        if (instrument) {
            if (out_dir.empty())
                return usage();
            koika::codegen::EmitOptions opts;
            opts.counters = true;
            opts.abort_reasons = true;
            opts.coverage = true;
            opts.class_name = cls + "_instr";
            write_file(out_dir + "/" + cls + "_instr.model.hpp",
                       koika::codegen::emit_model(*design, opts));
            return 0;
        }

        koika::rtl::Netlist netlist = koika::rtl::lower(*design);
        koika::rtl::Netlist optimized = koika::rtl::optimize(netlist);

        if (stats || out_dir.empty()) {
            std::cout << "design " << design->name() << ": "
                      << design->num_registers() << " registers, "
                      << design->num_rules() << " rules, "
                      << koika::design_sloc(*design) << " Koika SLOC, "
                      << koika::codegen::model_sloc(*design)
                      << " Cuttlesim SLOC, netlist "
                      << netlist.num_nodes() << " nodes ("
                      << optimized.num_nodes() << " optimized), "
                      << koika::rtl::verilog_sloc(netlist)
                      << " Verilog SLOC\n";
            if (out_dir.empty())
                return 0;
        }

        koika::codegen::EmitOptions opts;
        opts.counters = counters;
        write_file(out_dir + "/" + cls + ".model.hpp",
                   koika::codegen::emit_model(*design, opts));
        write_file(out_dir + "/" + cls + "_rtl.hpp",
                   koika::rtl::emit_rtl_model(netlist, cls + "_rtl"));
        write_file(out_dir + "/" + cls + "_rtlopt.hpp",
                   koika::rtl::emit_rtl_model(optimized,
                                              cls + "_rtlopt"));
        write_file(out_dir + "/" + cls + ".v",
                   koika::rtl::emit_verilog(netlist, cls));
        return 0;
    };

    int rc;
    try {
        rc = dispatch();
    } catch (const koika::FatalError& err) {
        std::cerr << "cuttlec: " << err.what() << "\n";
        rc = 1;
    }

    // Profile artifacts are written even when the command failed: a
    // profile of the part that did run is exactly what a slow-or-stuck
    // investigation needs.
    if (profiling) {
        try {
            koika::obs::Profiler& prof =
                koika::obs::Profiler::instance();
            if (!profile_file.empty()) {
                write_file(profile_file,
                           prof.report().to_json().dump(2) + "\n");
                std::cerr << "cuttlec: wrote host profile '"
                          << profile_file << "'\n";
            }
            if (!profile_trace.empty()) {
                write_file(profile_trace, prof.trace_json());
                std::cerr << "cuttlec: wrote host timeline '"
                          << profile_trace << "'\n";
            }
        } catch (const koika::FatalError& err) {
            std::cerr << "cuttlec: " << err.what() << "\n";
            rc = 1;
        }
    }

    // Like the profile artifacts, the metrics dump is written even when
    // the command failed: the counters of the part that ran are data.
    if (!metrics_file.empty()) {
        try {
            publish_metrics(metrics_file, design_name,
                            engine_label(engine));
        } catch (const koika::FatalError& err) {
            std::cerr << "cuttlec: " << err.what() << "\n";
            rc = 1;
        }
    }
    return rc;
}
