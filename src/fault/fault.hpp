/**
 * @file
 * Deterministic fault-injection campaigns over any sim::Model.
 *
 * The lockstep harness proves that every engine computes the same state
 * every cycle; this module turns that machinery around and asks what the
 * *design* does when state itself misbehaves — the SEU / soft-error
 * resilience analysis that at-scale simulators run as a first-class
 * workload. A campaign draws a seeded, reproducible set of faults
 * (transient bit-flips and stuck-at-0/1 forces on architectural
 * registers), replays each one against a golden copy of the same model,
 * and classifies the outcome with the standard taxonomy:
 *
 *   - masked:   the corrupted state washed out; final state matches the
 *               golden run and no detection signal fired.
 *   - sdc:      silent data corruption — final state differs from the
 *               golden run and nothing noticed.
 *   - detected: a guard/abort fired that did not fire in the golden run
 *               at the same cycle (the design's own port discipline and
 *               guards acting as an error detector), or the engine
 *               itself faulted on the corrupted state.
 *
 * Everything is deterministic: the same seed and config produce a
 * byte-identical JSON report (no wall-clock data is recorded), so
 * campaign reports can be diffed across engines and commits.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/parallel.hpp"
#include "koika/design.hpp"
#include "obs/coverage.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/system.hpp"

namespace koika::fault {

enum class FaultKind : int {
    /** Flip one bit once (single-event upset). */
    kBitFlip = 0,
    /** Force one bit to 0 for a window of cycles. */
    kStuckAt0 = 1,
    /** Force one bit to 1 for a window of cycles. */
    kStuckAt1 = 2,
};

constexpr int kNumFaultKinds = 3;

const char* fault_kind_name(FaultKind kind);

enum class Outcome : int {
    kMasked = 0,
    kSilentDataCorruption = 1,
    kDetected = 2,
};

const char* outcome_name(Outcome outcome);

/** One fault to inject. */
struct FaultSpec
{
    /** Inject after this many cycles have committed (and after the
     *  cycle's stimulus ran), i.e. into the state cycle `cycle+1`
     *  starts from. */
    uint64_t cycle = 0;
    /** Register index in the design's order. */
    int reg = 0;
    /** Bit position within the register. */
    uint32_t bit = 0;
    FaultKind kind = FaultKind::kBitFlip;
    /** For stuck-at faults: number of consecutive cycle boundaries the
     *  bit stays forced (>= 1). Ignored for bit flips. */
    uint64_t stuck_cycles = 1;
};

/** What one injection did, fully attributable. */
struct InjectionRecord
{
    FaultSpec spec;
    /** Register name (denormalized so reports stand alone). */
    std::string reg_name;
    Outcome outcome = Outcome::kMasked;

    /** True when any register ever differed from the golden run. */
    bool diverged = false;
    uint64_t first_divergence_cycle = 0;
    int first_divergence_reg = -1;

    /** True when a detection signal fired (see header comment). */
    bool detected = false;
    uint64_t detect_cycle = 0;
    /** "rule 'writeback': 1 excess abort" or "engine fault: ...". */
    std::string detect_detail;

    /** True when the final states matched at the horizon. */
    bool final_state_matches = false;
};

/** sim::System and its factory, under the campaign API's names. */
using FaultTarget = sim::System;
using TargetFactory = sim::SystemFactory;

/**
 * Reusable per-worker trial state, and the pool's per-worker context
 * (harness::WorkerContext): campaign trials need a golden and a faulted
 * target, and building both from the factory for every injection made
 * `trial/setup` grow with the trial count. A TrialContext makes that a
 * per-worker cost: it builds the golden once, captures its pristine
 * cycle-0 state (sim::capture), and every later trial *restores* that
 * state in place (sim::restore) instead of reconstructing.
 *
 * Warmth is sim::restorable(), the same condition batch lane forking
 * requires. A cold context transparently falls back to rebuilding
 * through the factory — same results, original cost.
 *
 * Restore is byte-identical to a fresh build, so reports and coverage
 * stay byte-identical to factory-per-trial runs (enforced by the
 * restore-vs-reconstruct ctest gates). Targets whose engine faulted
 * mid-trial are NEVER reused — release(…, healthy=false) drops them,
 * and poison() drops everything after an escaped exception.
 *
 * Not thread-safe: one TrialContext per pool worker, living exactly as
 * long as one harness::parallel_for call.
 */
class TrialContext final : public harness::WorkerContext
{
  public:
    explicit TrialContext(const sim::SystemFactory& factory);

    TrialContext(const TrialContext&) = delete;
    TrialContext& operator=(const TrialContext&) = delete;

    /** Restore available (sim::restorable on the factory's output)? */
    bool warm() const { return warm_; }

    /**
     * The worker's golden target, in pristine cycle-0 state: restored
     * in place when warm and previously handed out, rebuilt from the
     * factory otherwise.
     */
    sim::System& golden();

    /** A pristine target the caller owns for one trial: a restored
     *  spare when warm, a fresh factory build otherwise. */
    sim::System acquire();

    /** Like acquire() but skips the restore — for callers that
     *  overwrite the full state anyway (batch lane forking). */
    sim::System acquire_unrestored();

    /**
     * Return a trial's target. Healthy targets become spares for the
     * next acquire (when warm); unhealthy ones — the engine threw on
     * corrupted state and may hold torn internals — are destroyed.
     */
    void release(sim::System&& target, bool healthy);

    /** Drop the golden and every spare (after an escaped exception);
     *  subsequent calls rebuild from the factory. */
    void poison();

    /** In-place restores performed (warm-path hits). */
    uint64_t restores() const { return restores_; }
    /** Factory invocations, the constructor's golden included. */
    uint64_t rebuilds() const { return rebuilds_; }

  private:
    sim::SystemFactory factory_;
    sim::System golden_;
    bool golden_live_ = false;
    /** Golden handed out since its last restore (state may have moved). */
    bool golden_dirty_ = false;
    bool warm_ = false;
    /** The golden's state before its first cycle (valid when warm_). */
    sim::SystemState pristine_;
    /** Healthy retired targets awaiting restore-and-reuse. */
    std::vector<sim::System> spares_;
    uint64_t restores_ = 0;
    uint64_t rebuilds_ = 0;
};

struct CampaignConfig
{
    uint64_t seed = 1;
    /** Number of injections. */
    int count = 100;
    /** Simulation horizon per injection, in cycles. */
    uint64_t cycles = 1000;
    /** Registers eligible for injection; empty = all. */
    std::vector<int> target_regs;
    /** Also draw stuck-at faults (bit flips only when false). */
    bool stuck_at = true;
    /** Forcing window drawn for stuck-at faults: [1, max]. */
    uint64_t max_stuck_cycles = 8;
    /** Free-form label echoed into the report. */
    std::string label;
    /**
     * Worker threads for run_campaign: 1 = serial, 0 = one per
     * hardware thread. Deliberately NOT echoed into the JSON report:
     * the whole fault list is drawn from `seed` up front and each
     * injection is independent, so the report is byte-identical at any
     * job count (tested: `ctest -R cuttlec_fault_jobs`). The target
     * factory must tolerate concurrent calls when jobs != 1 (anything
     * built from a const Design qualifies).
     */
    int jobs = 1;
    /**
     * Trials per lockstep batch (run_injection_batch): N consecutive
     * injections share one golden model, and when N > 1 each lane forks
     * from the golden's live state at its injection boundary. Like
     * `jobs`, deliberately NOT echoed into the JSON report: per-trial
     * records and the coverage database are byte-identical at any lane
     * count (tested: `ctest -L batch`).
     */
    int batch = 1;
    /**
     * Also accumulate a design-coverage database over the campaign's
     * faulted runs (fault campaigns double as coverage-amplifying
     * stimulus: forced bad state exercises guard/conflict paths a clean
     * run never reaches). Per-injection maps are folded in fault-list
     * order after the join, so the database — like the report — is
     * byte-identical at any job count.
     */
    bool collect_coverage = false;
    /**
     * Progress checkpoint for long campaigns: a JSON file
     * (cuttlesim-fault-ckpt-v1) rewritten atomically after each
     * completed chunk of injections. When the file already exists at
     * campaign start and echoes this exact config, the completed
     * prefix of records (and its merged coverage) is loaded instead of
     * re-run, and the campaign continues from there. Deliberately NOT
     * echoed into the report: a resumed campaign produces the same
     * bytes as an uninterrupted one.
     */
    std::string checkpoint_file;
    /** Injections per progress-save chunk (with checkpoint_file). */
    int checkpoint_every = 16;
    /**
     * Live heartbeat for long campaigns: a monitor thread rewrites one
     * stderr line (~1/s) with completed/total injections, trials/sec,
     * ETA, and — when the span profiler is enabled — worker busy
     * percentage. stderr only; the JSON report is unaffected, so the
     * byte-identity contracts above still hold.
     */
    bool progress = false;
};

struct CampaignReport
{
    std::string design;
    /** Engine the campaign ran on ("T5", "T4", ...). */
    std::string engine;
    CampaignConfig config;

    std::vector<InjectionRecord> injections;
    uint64_t masked = 0;
    uint64_t sdc = 0;
    uint64_t detected = 0;

    /** Merged coverage of all faulted runs (config.collect_coverage);
     *  unlabeled — the caller knows which engine ran the campaign and
     *  adds it via coverage.add_engine(). */
    bool has_coverage = false;
    obs::CoverageMap coverage;

    /** Injections loaded from config.checkpoint_file instead of run.
     *  Excluded from to_json (resume must not change the report). */
    uint64_t resumed = 0;

    /**
     * The campaign stopped early at a chunk boundary because a
     * shutdown signal arrived (base/signal.hpp). Completed records up
     * to that boundary are flushed to config.checkpoint_file; the
     * records past it are default-initialized, so an interrupted
     * report must NOT be published as a final artifact — resume the
     * campaign (same flags) and the eventual report is byte-identical
     * to an uninterrupted run.
     */
    bool interrupted = false;

    /**
     * Deterministic report: config echo, per-injection records, and
     * summary counts. Contains no timestamps or wall-clock data, so two
     * runs with the same seed dump byte-identical JSON.
     */
    obs::Json to_json() const;

    /** Short human-readable summary table. */
    std::string to_text() const;

    /**
     * Export outcome counts under `prefix`:
     *   <prefix>/injections, <prefix>/outcome/<masked|sdc|detected>,
     *   <prefix>/kind/<bit_flip|stuck_at_0|stuck_at_1>/<outcome>.
     */
    void export_to(obs::MetricsRegistry& registry,
                   const std::string& prefix) const;
};

/**
 * Draw the campaign's fault list. Deterministic in (design, config):
 * injection cycles are uniform over [1, config.cycles - 1], registers
 * uniform over the eligible set, bits uniform over the register's
 * width. Zero-width registers are never targeted.
 */
std::vector<FaultSpec> generate_faults(const Design& design,
                                       const CampaignConfig& config);

/**
 * Run one injection: a one-lane run_injection_batch, so golden and
 * faulted targets step in lockstep from cycle 0 to the horizon, the
 * fault is applied per `spec`, and the outcome is classified. When
 * `coverage` is non-null it receives the faulted run's coverage map
 * (partial when the engine faulted mid-run), with no engine label.
 */
InjectionRecord run_injection(const Design& design,
                              const sim::SystemFactory& factory,
                              const FaultSpec& spec, uint64_t cycles,
                              obs::CoverageMap* coverage = nullptr);

/**
 * run_injection against a reusable TrialContext: the golden is the
 * context's (restored to cycle 0), the faulted copy is a restored
 * spare when available, and both are returned to the context for the
 * next trial. Record and coverage bytes are identical to the factory
 * overload (the warm-trial contract), which wraps this one with a
 * transient context.
 */
InjectionRecord run_injection(const Design& design, TrialContext& context,
                              const FaultSpec& spec, uint64_t cycles,
                              obs::CoverageMap* coverage = nullptr);

/**
 * Run `count` injections as lanes of one lockstep batch
 * (src/fault/batch.cpp, the only trial loop). One golden model is
 * shared by all lanes (every golden run in a campaign is identical).
 * With two or more lanes, each forks from the golden's live state at
 * its injection boundary when the target is sim::restorable (one
 * sim::capture of the golden, one sim::restore into a spare), so
 * pre-injection cycles are never re-simulated; a lone lane, and every
 * lane of a target that cannot be restored, runs from cycle 0. Lanes
 * whose engine faults are masked out and skipped for the rest of the
 * batch.
 *
 * `records` receives `count` InjectionRecords and — when `coverage` is
 * non-null — `coverage` receives `count` per-trial maps, the same bytes
 * at any lane count and however each lane started.
 */
void run_injection_batch(const Design& design,
                         const sim::SystemFactory& factory,
                         const FaultSpec* specs, size_t count,
                         uint64_t cycles, InjectionRecord* records,
                         obs::CoverageMap* coverage = nullptr);

/**
 * run_injection_batch against a reusable TrialContext: the shared
 * golden is the context's (restored to cycle 0), lanes fork from
 * context spares, and healthy lanes are returned as spares for the
 * worker's next batch. The context's warm() IS the batch's forkable
 * condition, so a cold context runs every lane from cycle 0. Bytes
 * identical to the factory overload (which
 * wraps this one with a transient context).
 */
void run_injection_batch(const Design& design, TrialContext& context,
                         const FaultSpec* specs, size_t count,
                         uint64_t cycles, InjectionRecord* records,
                         obs::CoverageMap* coverage = nullptr);

/**
 * Run the slice faults[first, first + count) through the campaign
 * dispatch: one harness::parallel_for over `jobs` workers, each with a
 * warm TrialContext, one pool item (one run_injection_batch) per group
 * of `batch` consecutive injections. Writes
 * into records[0..count) (and coverage[0..count) when non-null; both
 * indexed relative to the slice). This is the unit of work run_campaign
 * executes per chunk and an orchestrator worker per leased chunk —
 * sharing it is what keeps the orchestrated report byte-identical to
 * the single-process run by construction.
 *
 * Returns false when a shutdown signal (base/signal.hpp) interrupted
 * the slice; records past the interruption are default-initialized and
 * must not be published. `before_item` (may be empty) runs at the start
 * of every pool item with its [k, n) sub-slice (k relative to the slice
 * start) — the hook the orchestrator's chaos self-test uses to crash a
 * worker mid-chunk.
 */
bool run_injection_range(
    const Design& design, const sim::SystemFactory& factory,
    const std::vector<FaultSpec>& faults, size_t first, size_t count,
    uint64_t cycles, int jobs, int batch, InjectionRecord* records,
    obs::CoverageMap* coverage = nullptr,
    const std::function<void(uint64_t, uint64_t)>& before_item = {});

/**
 * Run a whole campaign: generate_faults, then run_injection_range over
 * the fault list, one chunk of config.checkpoint_every injections at a
 * time with a checkpoint file, else in one chunk. Injections stay in
 * fault-list order, so the report matches a serial run byte for byte
 * at any (batch, jobs). Each pool worker owns one warm TrialContext per
 * chunk, so model construction is paid per worker, not per trial. A
 * shutdown signal discards the chunk in flight and sets
 * report.interrupted.
 */
CampaignReport run_campaign(const Design& design,
                            const sim::SystemFactory& factory,
                            const CampaignConfig& config);

/**
 * Convenience factory for closed designs (no stimulus): a tier-style
 * engine built by `make_model` each time.
 */
sim::SystemFactory
closed_target(const std::function<std::unique_ptr<sim::Model>()>& make_model);

// -- Report-assembly helpers (shared with the campaign orchestrator) ---------
//
// Orchestrated multi-process campaigns must produce bytes identical to
// a single-process run. Instead of asking two code paths to agree by
// convention, the serialization of one injection record, the config
// echo, and the final report+metrics assembly are THE functions below,
// used by run_campaign, the checkpoint format, cuttlec, and
// src/orchestrate alike.

/** One injection record as it appears in reports, checkpoints, and
 *  orchestrator chunk files (index = position in the fault list). */
obs::Json injection_to_json(size_t index, const InjectionRecord& rec);

/** Inverse of injection_to_json; FatalError on missing fields. */
InjectionRecord injection_from_json(const obs::Json& e);

/** The `config` block reports and checkpoints echo: seed, count,
 *  cycles, stuck_at, max_stuck_cycles (exactly the fields that change
 *  what gets injected). */
obs::Json campaign_config_echo(const CampaignConfig& config);

/** The metrics registry a standalone campaign exports: outcome counts
 *  under "fault/<design>" (see CampaignReport::export_to). */
obs::MetricsRegistry campaign_metrics(const CampaignReport& report);

/**
 * The full fault-report JSON artifact cuttlec writes for
 * --fault-report=: report.to_json() plus the `metrics` block and — for
 * coverage-collecting campaigns — the coverage summary. Byte-identical
 * inputs produce byte-identical artifacts, whichever process (or how
 * many) ran the injections.
 */
obs::Json campaign_report_json(const CampaignReport& report,
                               const obs::MetricsRegistry& metrics);

} // namespace koika::fault
