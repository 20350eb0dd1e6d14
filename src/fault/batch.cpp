/**
 * @file
 * The fault-trial loop: every trial is a lane stepping in lockstep
 * beside one golden run.
 *
 * run_injection, run_injection_batch and every campaign pool item run
 * through run_lanes below. Per cycle the golden advances once; its
 * abort-count deltas, and its register words while some lane still
 * scans for divergence, are read once and shared by every lane's
 * detection and divergence scans; then each live lane advances, is
 * scanned, and is injected or re-forced at its boundary. A lane starts
 * in one of two ways:
 *
 *   - at cycle 0, beside the golden: a lone lane (run_injection, a
 *     --batch=1 campaign) and every lane of a target that cannot be
 *     restored. A lone trial steps 2*H model cycles over a horizon of H.
 *   - forked from the golden's live state at its injection boundary C,
 *     when two or more lanes share the golden and the target is
 *     sim::restorable (TrialContext::warm): one sim::capture of the
 *     golden into a state the batch reuses, one sim::restore of it into
 *     a spare, and the toggle accumulators through
 *     obs::CoverageCollector::save_state. The lane then steps H - C - 1
 *     cycles.
 *
 * Registers move as flat words (sim::RegisterWords): the golden's
 * per-cycle read and each lane's divergence scan are one word buffer
 * each, and on the compiled engine capture and restore are memory
 * copies. A lone lane is still not forked: forking it moves both
 * campaign speedup references in bench_e2e (the T5 reference skips its
 * prefix too), so it is a separate, measured change (ROADMAP 2(a)).
 *
 * A lane whose engine faults is masked out for the rest of the batch;
 * once every lane is, the golden stops too. Records and coverage maps
 * are the same bytes however a lane started and at any lane count:
 * tests/test_fault_batch.cpp checks them against an independent
 * two-model oracle. bench_e2e's campaign-batch workload measures what
 * sharing the golden buys.
 */
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "obs/prof.hpp"

namespace koika::fault {

namespace {

void
force_bit(sim::Model& model, int reg, uint32_t bit, bool value)
{
    model.set_reg(reg, model.get_reg(reg).with_bit(bit, value));
}

void
flip_bit(sim::Model& model, int reg, uint32_t bit)
{
    Bits v = model.get_reg(reg);
    model.set_reg(reg, v.with_bit(bit, !v.bit(bit)));
}

void
inject(sim::Model& model, const FaultSpec& spec)
{
    switch (spec.kind) {
      case FaultKind::kBitFlip:
        flip_bit(model, spec.reg, spec.bit);
        break;
      case FaultKind::kStuckAt0:
        force_bit(model, spec.reg, spec.bit, false);
        break;
      case FaultKind::kStuckAt1:
        force_bit(model, spec.reg, spec.bit, true);
        break;
    }
}

/** One trial instance advancing in lockstep with the shared golden. */
struct Lane
{
    InjectionRecord rec;

    /** Live once the lane has its own model (from cycle 0, or from its
     *  injection boundary when forked). */
    sim::System target;
    bool live = false;
    /** Masked out (engine fault); skipped for the rest of the batch. */
    bool masked = false;
    /** Never instantiated: the fault never fires within the horizon,
     *  so the lane is the golden run by definition. */
    bool shadow = false;

    bool injected = false;

    sim::RuleStatsModel* stats = nullptr;
    std::unique_ptr<obs::CoverageCollector> collector;
    std::vector<uint64_t> prev_aborts, prev_reasons;
};

/** The trial loop; callers wrap it to guarantee context poisoning on an
 *  escaped exception. */
void
run_lanes(const Design& design, TrialContext& ctx, const FaultSpec* specs,
          size_t count, uint64_t cycles, InjectionRecord* records,
          obs::CoverageMap* coverage)
{
    // A lone lane is a scalar trial: one trial/setup and one trial/run
    // span, no per-cycle spans. A batch reports batch/pack (set-up), a
    // batch/fork per forked lane, a batch/step per cycle and
    // batch/unpack.
    const bool lone = count == 1;
    std::optional<obs::ProfScope> phase;
    phase.emplace(lone ? "trial/setup" : "batch/pack");

    // The context's golden arrives in pristine cycle-0 state: freshly
    // built on the worker's first trial, restored in place afterwards.
    sim::System& golden = ctx.golden();
    auto* gstats = dynamic_cast<sim::RuleStatsModel*>(golden.model.get());
    // Forking copies the golden's whole state into a spare, so it needs
    // a sim::restorable target; ctx.warm() is that condition evaluated
    // on the same factory's output.
    const bool fork = !lone && ctx.warm();

    // The golden's collector exists to seed forked lanes (its state at
    // any boundary is exactly what a faulted run's collector holds
    // there) and to stand in for never-injected shadow lanes, so it is
    // only built when lanes fork.
    std::unique_ptr<obs::CoverageCollector> gcollector;
    if (coverage != nullptr && fork)
        gcollector = std::make_unique<obs::CoverageCollector>(
            design, *golden.model);

    auto start_counters = [&](Lane& lane) {
        lane.stats =
            dynamic_cast<sim::RuleStatsModel*>(lane.target.model.get());
        if (gstats != nullptr && lane.stats != nullptr) {
            lane.prev_aborts = lane.stats->rule_abort_counts();
            lane.prev_reasons = lane.stats->rule_abort_reason_counts();
        }
    };

    std::vector<Lane> lanes(count);
    for (size_t l = 0; l < count; ++l) {
        const FaultSpec& spec = specs[l];
        KOIKA_CHECK(spec.reg >= 0 &&
                    (size_t)spec.reg < design.num_registers());
        Lane& lane = lanes[l];
        lane.rec.spec = spec;
        lane.rec.reg_name = design.reg(spec.reg).name;
        if (fork) {
            lane.shadow = spec.cycle >= cycles;
            continue;
        }
        lane.target = ctx.acquire();
        lane.live = true;
        // Built once the target is pristine: the collector's
        // constructor snapshots registers for toggle detection.
        if (coverage != nullptr)
            lane.collector = std::make_unique<obs::CoverageCollector>(
                design, *lane.target.model);
        start_counters(lane);
    }

    // Fork one lane off the golden's live state at the current cycle
    // boundary. The copied state is byte-for-byte the state a lane run
    // from cycle 0 holds at the same boundary: identical registers,
    // identical counters/coverage (identical fault-free history), and
    // identical peripherals. One state serves every fork of the batch.
    sim::SystemState fork_state;
    auto fork_lane = [&](Lane& lane) {
        // No restore on acquire: the fork overwrites the spare's full
        // state (registers, engine state, env, collector).
        lane.target = ctx.acquire_unrestored();
        lane.live = true;
        sim::capture(golden, fork_state);
        KOIKA_CHECK(sim::restore(lane.target, fork_state));
        if (coverage != nullptr) {
            // After the model restore: the collector's constructor
            // re-snapshots register state for toggle detection.
            lane.collector = std::make_unique<obs::CoverageCollector>(
                design, *lane.target.model);
            sim::StateWriter w;
            gcollector->save_state(w);
            std::string bytes = w.take();
            sim::StateReader r(bytes);
            lane.collector->load_state(r);
        }
        start_counters(lane);
    };

    // Per-cycle golden abort deltas, shared by every lane's scan.
    std::vector<uint64_t> gold_aborts, gold_reasons, abort_delta, reason_delta;
    if (gstats != nullptr) {
        gold_aborts = gstats->rule_abort_counts();
        gold_reasons = gstats->rule_abort_reason_counts();
        abort_delta.assign(gold_aborts.size(), 0);
        reason_delta.assign(gold_reasons.size(), 0);
    }
    std::vector<uint64_t> gwords;

    if (lone)
        phase.emplace("trial/run");
    else
        phase.reset();

    // -- Step: golden once per cycle, live lanes in lockstep ----------------
    // The golden only runs while some lane still needs it.
    size_t unmasked = count;
    for (uint64_t c = 0; c < cycles && unmasked > 0; ++c) {
        {
            std::optional<obs::ProfScope> step_span;
            if (!lone)
                step_span.emplace("batch/step");
            golden.model->cycle();
            if (golden.stimulus)
                golden.stimulus(*golden.model, c);
            if (gcollector != nullptr)
                gcollector->sample();
            if (gstats != nullptr) {
                const auto& g = gstats->rule_abort_counts();
                const auto& gr = gstats->rule_abort_reason_counts();
                for (size_t r = 0; r < g.size(); ++r)
                    abort_delta[r] = g[r] - gold_aborts[r];
                for (size_t i = 0; i < gr.size(); ++i)
                    reason_delta[i] = gr[i] - gold_reasons[i];
                gold_aborts = g;
                gold_reasons = gr;
            }

            // Read the golden's register words once per cycle, only
            // when some lane's divergence scan still needs them.
            bool need_regs = false;
            for (const Lane& lane : lanes)
                if (lane.live && !lane.masked && lane.injected &&
                    !lane.rec.diverged)
                    need_regs = true;
            if (need_regs)
                sim::read_words(golden, gwords);

            for (Lane& lane : lanes) {
                if (!lane.live || lane.masked)
                    continue;
                try {
                    lane.target.model->cycle();
                    if (lane.target.stimulus)
                        lane.target.stimulus(*lane.target.model, c);
                    if (lane.collector != nullptr)
                        lane.collector->sample();
                } catch (const std::exception& e) {
                    // The engine itself tripped over the corrupted
                    // state — the strongest form of detection. Mask
                    // the lane out for the rest of the batch.
                    lane.rec.detected = true;
                    lane.rec.detect_cycle = c;
                    lane.rec.detect_detail =
                        std::string("engine fault: ") + e.what();
                    lane.masked = true;
                    --unmasked;
                    continue;
                }

                // Detection: a rule aborted in the lane more often than
                // in the golden run during the same cycle — the
                // design's guards and port discipline noticing bad
                // state.
                bool track = gstats != nullptr && lane.stats != nullptr;
                if (track && lane.injected && !lane.rec.detected) {
                    const auto& f = lane.stats->rule_abort_counts();
                    for (size_t r = 0;
                         r < abort_delta.size() && r < f.size(); ++r) {
                        uint64_t gd = abort_delta[r];
                        uint64_t fd = f[r] - lane.prev_aborts[r];
                        if (fd <= gd)
                            continue;
                        lane.rec.detected = true;
                        lane.rec.detect_cycle = c;
                        std::string reason = "abort";
                        const auto& fr =
                            lane.stats->rule_abort_reason_counts();
                        for (int k = 0; k < sim::kNumAbortReasons;
                             ++k) {
                            size_t idx =
                                r * (size_t)sim::kNumAbortReasons +
                                (size_t)k;
                            if (idx >= reason_delta.size() ||
                                idx >= fr.size())
                                break;
                            if (fr[idx] - lane.prev_reasons[idx] >
                                reason_delta[idx]) {
                                reason =
                                    std::string(sim::abort_reason_name(
                                        (sim::AbortReason)k)) +
                                    " abort";
                                break;
                            }
                        }
                        lane.rec.detect_detail =
                            "rule '" + gstats->rule_name((int)r) +
                            "': excess " + reason;
                        break;
                    }
                }
                if (track) {
                    lane.prev_aborts = lane.stats->rule_abort_counts();
                    lane.prev_reasons =
                        lane.stats->rule_abort_reason_counts();
                }

                // Divergence scan before (re-)forcing, so it measures
                // what the fault propagated into, not the forced bit.
                if (lane.injected && !lane.rec.diverged) {
                    int r = sim::first_difference(lane.target, gwords);
                    if (r >= 0) {
                        lane.rec.diverged = true;
                        lane.rec.first_divergence_cycle = c;
                        lane.rec.first_divergence_reg = r;
                    }
                }
            }
        }

        // Injection boundary: after cycle c committed (and its
        // stimulus ran), before the next cycle starts. Forked lanes
        // come to life here; stuck-at faults re-assert their forced
        // bit for stuck_cycles consecutive boundaries.
        for (Lane& lane : lanes) {
            if (lane.shadow || lane.masked)
                continue;
            const FaultSpec& spec = lane.rec.spec;
            if (c == spec.cycle) {
                if (!lane.live) {
                    obs::ProfScope fork_span("batch/fork");
                    fork_lane(lane);
                }
                inject(*lane.target.model, spec);
                lane.injected = true;
            } else if (lane.injected &&
                       spec.kind != FaultKind::kBitFlip &&
                       c > spec.cycle &&
                       c < spec.cycle + spec.stuck_cycles) {
                force_bit(*lane.target.model, spec.reg, spec.bit,
                          spec.kind == FaultKind::kStuckAt1);
            }
        }
    }

    // -- Unpack: per-trial classification and coverage ----------------------
    if (!lone)
        phase.emplace("batch/unpack");
    sim::read_words(golden, gwords);
    for (size_t l = 0; l < count; ++l) {
        Lane& lane = lanes[l];
        InjectionRecord& rec = lane.rec;
        if (lane.shadow) {
            // The fault never fired: the lane IS the golden run.
            rec.final_state_matches = true;
        } else if (!lane.masked) {
            int r = sim::first_difference(lane.target, gwords);
            rec.final_state_matches = r < 0;
            if (r >= 0 && !rec.diverged) {
                rec.diverged = true;
                rec.first_divergence_cycle = cycles;
                rec.first_divergence_reg = r;
            }
        }
        if (rec.detected)
            rec.outcome = Outcome::kDetected;
        else if (!rec.final_state_matches)
            rec.outcome = Outcome::kSilentDataCorruption;
        else
            rec.outcome = Outcome::kMasked;
        if (coverage != nullptr)
            coverage[l] = lane.shadow ? gcollector->take("")
                                      : lane.collector->take("");
        records[l] = rec;
        // Retire the lane's model into the context's spare pool so the
        // worker's next trial reuses it via restore. Engine-faulted
        // lanes may hold torn state — destroy.
        if (lane.live)
            ctx.release(std::move(lane.target), !lane.masked);
    }
}

} // namespace

void
run_injection_batch(const Design& design, TrialContext& context,
                    const FaultSpec* specs, size_t count,
                    uint64_t cycles, InjectionRecord* records,
                    obs::CoverageMap* coverage)
{
    try {
        run_lanes(design, context, specs, count, cycles, records,
                  coverage);
    } catch (...) {
        // Escaped exceptions (engine faults are handled per lane; this
        // is a harness/setup failure) may leave the golden or spares
        // mid-cycle — drop them so the next trial rebuilds cleanly.
        context.poison();
        throw;
    }
}

void
run_injection_batch(const Design& design, const sim::SystemFactory& factory,
                    const FaultSpec* specs, size_t count,
                    uint64_t cycles, InjectionRecord* records,
                    obs::CoverageMap* coverage)
{
    TrialContext context(factory);
    run_injection_batch(design, context, specs, count, cycles, records,
                        coverage);
}

InjectionRecord
run_injection(const Design& design, TrialContext& context,
              const FaultSpec& spec, uint64_t cycles,
              obs::CoverageMap* coverage)
{
    InjectionRecord rec;
    run_injection_batch(design, context, &spec, 1, cycles, &rec,
                        coverage);
    return rec;
}

InjectionRecord
run_injection(const Design& design, const sim::SystemFactory& factory,
              const FaultSpec& spec, uint64_t cycles,
              obs::CoverageMap* coverage)
{
    TrialContext context(factory);
    return run_injection(design, context, spec, cycles, coverage);
}

} // namespace koika::fault
