// Fault-trial loop tests (src/fault/batch.cpp): lane-masking edge
// cases, the cost of each way a lane starts, and the byte-identity
// contract. Every record and coverage map the loop produces — through
// run_injection, run_injection_batch at any lane count, or run_campaign
// at any (batch, jobs) — must match an independent oracle, the original
// two-model scalar loop kept below: whether lanes fork from the shared
// golden or run from cycle 0, and whether they fault out mid-batch.

#include <gtest/gtest.h>

#include <stdexcept>

#include "designs/designs.hpp"
#include "designs/targets.hpp"
#include "fault/fault.hpp"
#include "koika/builder.hpp"
#include "koika/typecheck.hpp"
#include "sim/tiers.hpp"

using namespace koika;
using namespace koika::fault;

namespace {

/** x += 1 every cycle, unguarded: a flip drifts the count forever. */
std::unique_ptr<Design>
counter_design()
{
    auto d = std::make_unique<Design>("counter");
    Builder b(*d);
    int x = b.reg("x", 8, 0);
    d->add_rule("inc", b.write0(x, b.add(b.read0(x), b.k(8, 1))));
    d->schedule("inc");
    typecheck(*d);
    return d;
}

TargetFactory
tier_factory(const Design& d)
{
    return closed_target([&d]() {
        return sim::make_engine(d, sim::Tier::kT5StaticAnalysis);
    });
}

/** Same engine, but the stimulus asserts on corrupted state: it throws
 *  once x's top bit is set, which only the faulted runs ever do.
 *  Mimics a peripheral tripping on bad state (= "engine fault"). */
TargetFactory
asserting_factory(const Design& d)
{
    return [&d]() {
        FaultTarget t;
        t.model = sim::make_engine(d, sim::Tier::kT5StaticAnalysis);
        t.stimulus = [](sim::Model& m, uint64_t) {
            if (m.get_reg(0).bit(7))
                throw std::runtime_error("peripheral assertion: x MSB");
        };
        return t;
    };
}

/** A target the batch engine cannot fork: it carries live context with
 *  no save_env/load_env, so lanes must re-run from cycle 0. */
TargetFactory
unforkable_factory(const Design& d)
{
    return [&d]() {
        FaultTarget t;
        t.model = sim::make_engine(d, sim::Tier::kT5StaticAnalysis);
        t.context = std::make_shared<int>(0);
        return t;
    };
}

/**
 * The test oracle: the original two-model trial loop, independent of
 * src/fault/batch.cpp. Golden and faulted targets are both built from
 * the factory and stepped side by side from cycle 0; per cycle the
 * faulted run is scanned for excess aborts, then for divergence, then
 * injected or re-forced at the boundary. Slow by design: it shares
 * nothing between trials.
 */
InjectionRecord
oracle_injection(const Design& design, const TargetFactory& factory,
                 const FaultSpec& spec, uint64_t cycles,
                 obs::CoverageMap* coverage = nullptr)
{
    InjectionRecord rec;
    rec.spec = spec;
    rec.reg_name = design.reg(spec.reg).name;
    FaultTarget golden = factory();
    FaultTarget faulted = factory();
    std::unique_ptr<obs::CoverageCollector> collector;
    if (coverage != nullptr)
        collector = std::make_unique<obs::CoverageCollector>(
            design, *faulted.model);
    auto* gstats = dynamic_cast<sim::RuleStatsModel*>(golden.model.get());
    auto* fstats = dynamic_cast<sim::RuleStatsModel*>(faulted.model.get());
    bool track = gstats != nullptr && fstats != nullptr;
    std::vector<uint64_t> gprev, fprev, gprev_r, fprev_r;
    if (track) {
        gprev = gstats->rule_abort_counts();
        fprev = fstats->rule_abort_counts();
        gprev_r = gstats->rule_abort_reason_counts();
        fprev_r = fstats->rule_abort_reason_counts();
    }

    bool injected = false;
    bool engine_fault = false;
    size_t nregs = design.num_registers();
    for (uint64_t c = 0; c < cycles; ++c) {
        golden.model->cycle();
        if (golden.stimulus)
            golden.stimulus(*golden.model, c);
        try {
            faulted.model->cycle();
            if (faulted.stimulus)
                faulted.stimulus(*faulted.model, c);
            if (collector != nullptr)
                collector->sample();
        } catch (const std::exception& e) {
            rec.detected = true;
            rec.detect_cycle = c;
            rec.detect_detail = std::string("engine fault: ") + e.what();
            engine_fault = true;
            break;
        }

        if (track) {
            const auto& g = gstats->rule_abort_counts();
            const auto& f = fstats->rule_abort_counts();
            const auto& gr = gstats->rule_abort_reason_counts();
            const auto& fr = fstats->rule_abort_reason_counts();
            for (size_t r = 0; injected && !rec.detected && r < g.size() &&
                               r < f.size();
                 ++r) {
                if (f[r] - fprev[r] <= g[r] - gprev[r])
                    continue;
                rec.detected = true;
                rec.detect_cycle = c;
                std::string reason = "abort";
                for (int k = 0; k < sim::kNumAbortReasons; ++k) {
                    size_t i = r * (size_t)sim::kNumAbortReasons + (size_t)k;
                    if (i >= gr.size() || i >= fr.size())
                        break;
                    if (fr[i] - fprev_r[i] > gr[i] - gprev_r[i]) {
                        reason = std::string(sim::abort_reason_name(
                                     (sim::AbortReason)k)) +
                                 " abort";
                        break;
                    }
                }
                rec.detect_detail = "rule '" + gstats->rule_name((int)r) +
                                    "': excess " + reason;
            }
            gprev = g;
            fprev = f;
            gprev_r = gr;
            fprev_r = fr;
        }

        for (size_t r = 0; injected && !rec.diverged && r < nregs; ++r) {
            if (faulted.model->get_reg((int)r) !=
                golden.model->get_reg((int)r)) {
                rec.diverged = true;
                rec.first_divergence_cycle = c;
                rec.first_divergence_reg = (int)r;
            }
        }

        bool stuck = spec.kind != FaultKind::kBitFlip && injected &&
                     c > spec.cycle && c < spec.cycle + spec.stuck_cycles;
        if (c == spec.cycle || stuck) {
            Bits v = faulted.model->get_reg(spec.reg);
            bool bit = spec.kind == FaultKind::kBitFlip
                           ? !v.bit(spec.bit)
                           : spec.kind == FaultKind::kStuckAt1;
            faulted.model->set_reg(spec.reg, v.with_bit(spec.bit, bit));
            injected = true;
        }
    }

    if (!engine_fault) {
        rec.final_state_matches = true;
        for (size_t r = 0; r < nregs && rec.final_state_matches; ++r) {
            if (faulted.model->get_reg((int)r) !=
                golden.model->get_reg((int)r)) {
                rec.final_state_matches = false;
                if (!rec.diverged) {
                    rec.diverged = true;
                    rec.first_divergence_cycle = cycles;
                    rec.first_divergence_reg = (int)r;
                }
            }
        }
    }
    if (rec.detected)
        rec.outcome = Outcome::kDetected;
    else if (!rec.final_state_matches)
        rec.outcome = Outcome::kSilentDataCorruption;
    else
        rec.outcome = Outcome::kMasked;
    if (collector != nullptr)
        *coverage = collector->take("");
    return rec;
}

/** Oracle records (and per-trial coverage maps), one trial per spec. */
std::vector<InjectionRecord>
oracle_records(const Design& d, const TargetFactory& factory,
               const std::vector<FaultSpec>& specs, uint64_t cycles,
               std::vector<obs::CoverageMap>* coverage = nullptr)
{
    std::vector<InjectionRecord> out;
    if (coverage != nullptr)
        coverage->resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        out.push_back(oracle_injection(
            d, factory, specs[i], cycles,
            coverage != nullptr ? &(*coverage)[i] : nullptr));
    return out;
}

/** The byte-identity check: serialized records must match slot by slot. */
void
expect_identical(const std::vector<InjectionRecord>& scalar,
                 const std::vector<InjectionRecord>& batched)
{
    ASSERT_EQ(scalar.size(), batched.size());
    for (size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(injection_to_json(i, scalar[i]).dump(2),
                  injection_to_json(i, batched[i]).dump(2))
            << "record " << i;
}

} // namespace

TEST(FaultBatch, LaneDivergingOnCycleZeroMatchesScalar)
{
    // Injection boundary at cycle 0: the lane forks before a single
    // cycle of shared-golden prefix exists and diverges immediately.
    auto d = counter_design();
    auto factory = tier_factory(*d);
    std::vector<FaultSpec> specs;
    for (uint32_t bit = 0; bit < 4; ++bit)
        specs.push_back({.cycle = 0, .reg = 0, .bit = bit,
                         .kind = FaultKind::kBitFlip});
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 40,
                        batched.data());
    expect_identical(oracle_records(*d, factory, specs, 40), batched);
    for (const InjectionRecord& rec : batched)
        EXPECT_EQ(rec.first_divergence_cycle, 1u);
}

TEST(FaultBatch, InjectionPastHorizonIsMaskedShadowLane)
{
    // A spec whose injection boundary never arrives: the lane IS the
    // golden run (never instantiated), classified masked with a
    // matching final state — same as the scalar path.
    auto d = counter_design();
    auto factory = tier_factory(*d);
    std::vector<FaultSpec> specs = {
        {.cycle = 100, .reg = 0, .bit = 2, .kind = FaultKind::kBitFlip},
        {.cycle = 5, .reg = 0, .bit = 2, .kind = FaultKind::kBitFlip},
    };
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 50,
                        batched.data());
    expect_identical(oracle_records(*d, factory, specs, 50), batched);
    EXPECT_EQ(batched[0].outcome, Outcome::kMasked);
    EXPECT_TRUE(batched[0].final_state_matches);
}

TEST(FaultBatch, AllLanesFinishingEarlyMatchesScalar)
{
    // Every lane trips the asserting stimulus within a few cycles of
    // its injection and is masked out of the batch; the remaining
    // cycles advance only the golden. Records (detected, with the
    // engine-fault detail) must still match the scalar path.
    auto d = counter_design();
    auto factory = asserting_factory(*d);
    std::vector<FaultSpec> specs;
    for (uint64_t c = 2; c <= 5; ++c)
        specs.push_back({.cycle = c, .reg = 0, .bit = 7,
                         .kind = FaultKind::kBitFlip});
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 60,
                        batched.data());
    expect_identical(oracle_records(*d, factory, specs, 60), batched);
    for (const InjectionRecord& rec : batched) {
        EXPECT_EQ(rec.outcome, Outcome::kDetected);
        EXPECT_NE(rec.detect_detail.find("engine fault"),
                  std::string::npos);
    }
}

TEST(FaultBatch, UnforkableTargetFallsBackByteIdentical)
{
    // Live context without save_env/load_env: lanes cannot fork from
    // the golden and re-run from cycle 0 — slower, same bytes.
    auto d = counter_design();
    auto factory = unforkable_factory(*d);
    std::vector<FaultSpec> specs = {
        {.cycle = 3, .reg = 0, .bit = 1, .kind = FaultKind::kBitFlip},
        {.cycle = 7, .reg = 0, .bit = 4, .kind = FaultKind::kStuckAt1,
         .stuck_cycles = 5},
        {.cycle = 12, .reg = 0, .bit = 0, .kind = FaultKind::kStuckAt0,
         .stuck_cycles = 3},
    };
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 40,
                        batched.data());
    expect_identical(oracle_records(*d, factory, specs, 40), batched);
}

TEST(FaultBatch, CampaignCountNotDivisibleByLanes)
{
    // 7 injections at batch=4: a full batch plus a ragged tail of 3.
    // The report must not betray the lane count.
    auto d = designs::build_design("collatz");
    auto factory = tier_factory(*d);
    CampaignConfig config;
    config.seed = 77;
    config.count = 7;
    config.cycles = 200;
    CampaignReport scalar = run_campaign(*d, factory, config);
    config.batch = 4;
    CampaignReport batched = run_campaign(*d, factory, config);
    scalar.engine = batched.engine = "T5";
    EXPECT_EQ(scalar.to_json().dump(2), batched.to_json().dump(2));
}

TEST(FaultBatch, CampaignCoverageByteIdentity)
{
    // The per-trial coverage maps unpacked from the lanes must merge
    // to the same database bytes as the scalar campaign's.
    auto d = designs::build_design("collatz");
    auto factory = tier_factory(*d);
    CampaignConfig config;
    config.seed = 31;
    config.count = 10;
    config.cycles = 150;
    config.collect_coverage = true;
    CampaignReport scalar = run_campaign(*d, factory, config);
    config.batch = 3;
    CampaignReport batched = run_campaign(*d, factory, config);
    scalar.engine = batched.engine = "T5";
    EXPECT_EQ(scalar.to_json().dump(2), batched.to_json().dump(2));
    ASSERT_TRUE(scalar.has_coverage);
    ASSERT_TRUE(batched.has_coverage);
    EXPECT_EQ(scalar.coverage.to_json().dump(2),
              batched.coverage.to_json().dump(2));
}

TEST(FaultBatch, BatchComposesWithJobs)
{
    // Each pool worker drives one whole lockstep batch; the report is
    // byte-identical at any (batch, jobs) combination.
    auto d = designs::build_design("collatz");
    auto factory = tier_factory(*d);
    CampaignConfig config;
    config.seed = 42;
    config.count = 18;
    config.cycles = 200;
    config.collect_coverage = true;
    CampaignReport scalar = run_campaign(*d, factory, config);
    config.batch = 2;
    config.jobs = 4;
    CampaignReport batched = run_campaign(*d, factory, config);
    scalar.engine = batched.engine = "T5";
    EXPECT_EQ(scalar.to_json().dump(2), batched.to_json().dump(2));
    EXPECT_EQ(scalar.coverage.to_json().dump(2),
              batched.coverage.to_json().dump(2));
}

TEST(FaultBatch, PerTrialCoverageMapsMatchScalar)
{
    // Per-trial maps (not just the merged database) are part of the
    // contract: the orchestrator and the campaign merge them itself.
    auto d = counter_design();
    auto factory = tier_factory(*d);
    std::vector<FaultSpec> specs = {
        {.cycle = 2, .reg = 0, .bit = 0, .kind = FaultKind::kBitFlip},
        {.cycle = 9, .reg = 0, .bit = 3, .kind = FaultKind::kBitFlip},
        {.cycle = 80, .reg = 0, .bit = 5, .kind = FaultKind::kBitFlip},
    };
    std::vector<obs::CoverageMap> want_cov;
    std::vector<InjectionRecord> want =
        oracle_records(*d, factory, specs, 50, &want_cov);
    std::vector<InjectionRecord> batched(specs.size());
    std::vector<obs::CoverageMap> got_cov(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 50,
                        batched.data(), got_cov.data());
    expect_identical(want, batched);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(want_cov[i].to_json().dump(2),
                  got_cov[i].to_json().dump(2))
            << "coverage map " << i;
}

// -- Cost of each way a lane starts ------------------------------------------

namespace {

/** T5 counter targets whose stimulus counts its calls (one per model
 *  cycle) and, with `assert_msb`, throws like asserting_factory. */
TargetFactory
counting_factory(const Design& d, std::shared_ptr<uint64_t> calls,
                 bool assert_msb = false)
{
    return [&d, calls, assert_msb]() {
        FaultTarget t;
        t.model = sim::make_engine(d, sim::Tier::kT5StaticAnalysis);
        t.stimulus = [calls, assert_msb](sim::Model& m, uint64_t) {
            ++*calls;
            if (assert_msb && m.get_reg(0).bit(7))
                throw std::runtime_error("peripheral assertion: x MSB");
        };
        return t;
    };
}

} // namespace

TEST(FaultBatch, LoneLaneStepsTwoHorizons)
{
    // run_injection starts its lane at cycle 0 beside its own golden:
    // 2*H model cycles, wherever the fault lands.
    auto d = counter_design();
    auto calls = std::make_shared<uint64_t>(0);
    TargetFactory factory = counting_factory(*d, calls);
    const uint64_t h = 50;
    for (uint64_t c : {0, 7, 41}) {
        *calls = 0;
        run_injection(*d, factory,
                      {.cycle = c, .reg = 0, .bit = 2,
                       .kind = FaultKind::kBitFlip},
                      h);
        EXPECT_EQ(*calls, 2 * h) << "injection at cycle " << c;
    }
}

TEST(FaultBatch, ForkedLanesStepOnlyTheirSuffix)
{
    // Lanes of a batch fork at their boundary C and step H - C - 1
    // cycles beside one shared golden run of H.
    auto d = counter_design();
    auto calls = std::make_shared<uint64_t>(0);
    TargetFactory factory = counting_factory(*d, calls);
    const uint64_t h = 50;
    std::vector<FaultSpec> specs = {
        {.cycle = 0, .reg = 0, .bit = 1, .kind = FaultKind::kBitFlip},
        {.cycle = 20, .reg = 0, .bit = 3, .kind = FaultKind::kStuckAt1,
         .stuck_cycles = 4},
        {.cycle = 48, .reg = 0, .bit = 5, .kind = FaultKind::kBitFlip},
    };
    std::vector<InjectionRecord> recs(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), h,
                        recs.data());
    uint64_t want = h;
    for (const FaultSpec& spec : specs)
        want += h - spec.cycle - 1;
    EXPECT_EQ(*calls, want);
}

TEST(FaultBatch, LoneLaneGoldenStopsAtEngineFault)
{
    // Like the oracle's break: once the only lane faults, its golden
    // stops too. A flip of x's MSB after cycle 3 trips the stimulus in
    // cycle 4, so each side stepped 5 cycles.
    auto d = counter_design();
    auto calls = std::make_shared<uint64_t>(0);
    TargetFactory factory = counting_factory(*d, calls, true);
    InjectionRecord rec = run_injection(
        *d, factory,
        {.cycle = 3, .reg = 0, .bit = 7, .kind = FaultKind::kBitFlip}, 60);
    ASSERT_TRUE(rec.detected);
    EXPECT_EQ(rec.detect_cycle, 4u);
    EXPECT_EQ(*calls, 2 * (rec.detect_cycle + 1));
}

// -- The oracle sweep --------------------------------------------------------
//
// Every entry point into the trial loop against the oracle, on every
// in-process engine, on a closed design (collatz) and one with env
// peripherals (rv32i), plus the two factories above that exercise
// engine faults and the unforkable fallback.

namespace {

struct SweepCase
{
    std::string design;
    /** An engine name for designs::make_target_factory, or "asserting"
     *  / "unforkable" for this file's counter factories. */
    std::string engine;
};

std::vector<SweepCase>
sweep_cases()
{
    std::vector<SweepCase> cases;
    for (const char* design : {"collatz", "rv32i"}) {
        cases.push_back({design, "ref"});
        for (int t = 0; t < sim::kNumTiers; ++t)
            cases.push_back({design, "T" + std::to_string(t)});
        cases.push_back({design, "compiled"});
    }
    cases.push_back({"counter", "asserting"});
    cases.push_back({"counter", "unforkable"});
    return cases;
}

void
PrintTo(const SweepCase& sc, std::ostream* os)
{
    *os << sc.design << "/" << sc.engine;
}

class OracleSweep : public ::testing::TestWithParam<SweepCase>
{
};

/** Each record's JSON, in trial order. */
std::vector<std::string>
json_of(const std::vector<InjectionRecord>& records)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < records.size(); ++i)
        out.push_back(injection_to_json(i, records[i]).dump());
    return out;
}

/** Each coverage map's JSON, in trial order. */
std::vector<std::string>
json_of(const std::vector<obs::CoverageMap>& maps)
{
    std::vector<std::string> out;
    for (const obs::CoverageMap& m : maps)
        out.push_back(m.to_json().dump());
    return out;
}

/** Names the first entry that differs from the oracle's. (EXPECT_EQ
 *  on whole multi-line strings would have gtest diff them line by
 *  line, which for coverage maps costs far too much memory.) */
void
expect_same(const std::vector<std::string>& want,
            const std::vector<std::string>& got, const std::string& what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        if (want[i] != got[i]) {
            ADD_FAILURE() << what << ": trial " << i
                          << " differs from the oracle";
            return;
        }
    }
}

} // namespace

TEST_P(OracleSweep, EveryEntryPointMatchesTheOracle)
{
    const SweepCase& sc = GetParam();
    std::unique_ptr<Design> d = sc.design == "counter"
                                    ? counter_design()
                                    : designs::build_design(sc.design);
    TargetFactory factory = sc.engine == "asserting"
                                ? asserting_factory(*d)
                            : sc.engine == "unforkable"
                                ? unforkable_factory(*d)
                                : designs::make_target_factory(*d, sc.engine);
    // The counter's golden must stay below 128, where asserting
    // targets throw.
    const uint64_t horizon = sc.design == "counter" ? 100 : 120;

    CampaignConfig config;
    config.seed = 23;
    config.count = 24;
    config.cycles = horizon;
    config.collect_coverage = true;
    ASSERT_TRUE(config.stuck_at);
    std::vector<FaultSpec> specs = generate_faults(*d, config);
    // Plus what a drawn list may miss: a fault past the horizon, and a
    // flip of the counter's MSB that the asserting stimulus trips on.
    FaultSpec late = specs[0];
    late.cycle = horizon + 3;
    specs.push_back(late);
    if (sc.design == "counter")
        specs.push_back({.cycle = 3, .reg = 0, .bit = 7,
                         .kind = FaultKind::kBitFlip});

    std::vector<obs::CoverageMap> want_cov;
    std::vector<InjectionRecord> want =
        oracle_records(*d, factory, specs, horizon, &want_cov);
    const std::vector<std::string> want_json = json_of(want);
    const std::vector<std::string> want_cov_json = json_of(want_cov);

    {
        TrialContext ctx(factory);
        std::vector<InjectionRecord> got(specs.size());
        std::vector<obs::CoverageMap> cov(specs.size());
        for (size_t i = 0; i < specs.size(); ++i)
            got[i] = run_injection(*d, ctx, specs[i], horizon, &cov[i]);
        expect_same(want_json, json_of(got), "run_injection");
        expect_same(want_cov_json, json_of(cov), "run_injection coverage");
    }
    for (size_t lanes : {1, 3, 8}) {
        TrialContext ctx(factory);
        std::vector<InjectionRecord> got(specs.size());
        std::vector<obs::CoverageMap> cov(specs.size());
        for (size_t i = 0; i < specs.size(); i += lanes)
            run_injection_batch(*d, ctx, &specs[i],
                                std::min(lanes, specs.size() - i), horizon,
                                &got[i], &cov[i]);
        std::string what = std::to_string(lanes) + " lanes";
        expect_same(want_json, json_of(got), what);
        expect_same(want_cov_json, json_of(cov), what + " coverage");
    }

    // run_campaign draws the first config.count specs itself.
    want.resize((size_t)config.count);
    obs::CoverageMap want_merged = obs::CoverageMap::for_design(*d);
    for (int i = 0; i < config.count; ++i)
        want_merged.merge(want_cov[(size_t)i]);
    for (int batch : {1, 4}) {
        for (int jobs : {1, 4}) {
            config.batch = batch;
            config.jobs = jobs;
            CampaignReport got = run_campaign(*d, factory, config);
            std::string what = "run_campaign batch " +
                               std::to_string(batch) + " jobs " +
                               std::to_string(jobs);
            expect_same(json_of(want), json_of(got.injections), what);
            expect_same({want_merged.to_json().dump()},
                        {got.coverage.to_json().dump()},
                        what + " coverage");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, OracleSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
        return info.param.design + "_" + info.param.engine;
    });
