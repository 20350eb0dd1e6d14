// Differential tests for the build-time generated models: the Cuttlesim
// C++ models and the compiled-netlist RTL models of every benchmark
// design must track the in-process T5 engine cycle by cycle, and the
// RISC-V generated models must run real programs to the same result as
// the golden ISA simulator.

#include <gtest/gtest.h>

#include <map>

#include "codegen/generated_model.hpp"
#include "designs/designs.hpp"
#include "designs/rv32.hpp"
#include "obs/coverage.hpp"
#include "obs/stats.hpp"
#include "replay/checkpoint.hpp"
#include "riscv/goldensim.hpp"
#include "riscv/programs.hpp"
#include "sim/tiers.hpp"

#include "collatz.model.hpp"
#include "collatz_rtl.hpp"
#include "collatz_rtlopt.hpp"
#include "fft.model.hpp"
#include "fft_rtl.hpp"
#include "fir.model.hpp"
#include "fir_rtl.hpp"
#include "msi_instr.model.hpp"
#include "rv32i.model.hpp"
#include "rv32i_bp.model.hpp"
#include "rv32i_instr.model.hpp"
#include "rv32i_rtl.hpp"
#include "rv32i_rtlopt.hpp"

using namespace koika;
using namespace koika::codegen;
using namespace koika::designs;
using namespace koika::riscv;
using koika::sim::make_engine;
using koika::sim::Tier;

namespace {

struct RuleActivity
{
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t reasons[3] = {0, 0, 0};

    bool
    operator==(const RuleActivity& o) const
    {
        return commits == o.commits && aborts == o.aborts &&
               reasons[0] == o.reasons[0] && reasons[1] == o.reasons[1] &&
               reasons[2] == o.reasons[2];
    }
};

/**
 * Name-keyed per-rule activity. Tier engines index counters by rule id
 * while generated models index by schedule position, so cross-engine
 * comparison must go through rule names. Rules with no activity are
 * dropped (unscheduled rules exist only on the engine side).
 */
std::map<std::string, RuleActivity>
activity_by_name(const koika::sim::Model& m)
{
    std::map<std::string, RuleActivity> out;
    koika::obs::SimStats s = koika::obs::collect_stats(m);
    for (const koika::obs::RuleStats& r : s.rules) {
        if (r.commits == 0 && r.aborts == 0)
            continue;
        RuleActivity& a = out[r.name];
        a.commits += r.commits;
        a.aborts += r.aborts;
        a.reasons[0] += r.guard_aborts;
        a.reasons[1] += r.read_conflict_aborts;
        a.reasons[2] += r.write_conflict_aborts;
    }
    return out;
}

void
expect_same_activity(const std::map<std::string, RuleActivity>& engine,
                     const std::map<std::string, RuleActivity>& model)
{
    ASSERT_EQ(engine.size(), model.size());
    for (const auto& [name, a] : engine) {
        auto it = model.find(name);
        ASSERT_NE(it, model.end()) << "rule " << name;
        EXPECT_TRUE(a == it->second)
            << "rule " << name << ": engine " << a.commits << "/"
            << a.aborts << " [" << a.reasons[0] << "," << a.reasons[1]
            << "," << a.reasons[2] << "], model " << it->second.commits
            << "/" << it->second.aborts << " [" << it->second.reasons[0]
            << "," << it->second.reasons[1] << ","
            << it->second.reasons[2] << "]";
    }
}

template <typename M>
void
expect_tracks_engine(const std::string& design_name, int cycles)
{
    auto d = build_design(design_name);
    auto engine = make_engine(*d, Tier::kT5StaticAnalysis);
    GeneratedModel<M> generated;
    ASSERT_EQ(generated.num_regs(), d->num_registers());
    for (int c = 0; c < cycles; ++c) {
        engine->cycle();
        generated.cycle();
        for (size_t r = 0; r < d->num_registers(); ++r)
            ASSERT_EQ(generated.get_reg((int)r), engine->get_reg((int)r))
                << design_name << " cycle " << c << " register "
                << d->reg((int)r).name;
    }
}

} // namespace

TEST(Generated, CollatzTracksEngine)
{
    expect_tracks_engine<cuttlesim::models::collatz>("collatz", 500);
}

TEST(Generated, CollatzRtlTracksEngine)
{
    expect_tracks_engine<cuttlesim::models::collatz_rtl>("collatz", 500);
}

TEST(Generated, CollatzRtlOptTracksEngine)
{
    expect_tracks_engine<cuttlesim::models::collatz_rtlopt>("collatz",
                                                            500);
}

TEST(Generated, FirTracksEngine)
{
    expect_tracks_engine<cuttlesim::models::fir>("fir", 300);
}

TEST(Generated, FirRtlTracksEngine)
{
    expect_tracks_engine<cuttlesim::models::fir_rtl>("fir", 300);
}

TEST(Generated, FftTracksEngine)
{
    expect_tracks_engine<cuttlesim::models::fft>("fft", 300);
}

TEST(Generated, FftRtlTracksEngine)
{
    expect_tracks_engine<cuttlesim::models::fft_rtl>("fft", 300);
}

TEST(Generated, Rv32iRunsPrimesToGoldenResult)
{
    Program prog = build_program(primes_source(200));
    GoldenSim golden;
    golden.load(prog);
    golden.run(10'000'000);
    ASSERT_TRUE(golden.halted());

    auto d = build_design("rv32i");
    GeneratedModel<cuttlesim::models::rv32i> m;
    Rv32System sys(*d, m, prog, 1);
    sys.run(2'000'000);
    ASSERT_TRUE(sys.halted());
    EXPECT_EQ(sys.tohost(0), golden.tohost());
    EXPECT_EQ(sys.instret(0), golden.instructions_retired());
}

TEST(Generated, Rv32iRtlRunsPrimesToGoldenResult)
{
    Program prog = build_program(primes_source(50));
    GoldenSim golden;
    golden.load(prog);
    golden.run(10'000'000);

    auto d = build_design("rv32i");
    GeneratedModel<cuttlesim::models::rv32i_rtl> m;
    Rv32System sys(*d, m, prog, 1);
    sys.run(2'000'000);
    ASSERT_TRUE(sys.halted());
    EXPECT_EQ(sys.tohost(0), golden.tohost());
}

TEST(Generated, Rv32iRtlOptMatchesRtlLockstep)
{
    Program prog = build_program(primes_source(30));
    auto d = build_design("rv32i");
    GeneratedModel<cuttlesim::models::rv32i_rtl> a;
    GeneratedModel<cuttlesim::models::rv32i_rtlopt> b;
    Rv32System sys_a(*d, a, prog, 1);
    Rv32System sys_b(*d, b, prog, 1);
    for (int c = 0; c < 3000 && !sys_a.halted(); ++c) {
        sys_a.run(1);
        sys_b.run(1);
        for (size_t r = 0; r < d->num_registers(); ++r)
            ASSERT_EQ(a.get_reg((int)r), b.get_reg((int)r))
                << "cycle " << c << " reg " << d->reg((int)r).name;
    }
    EXPECT_TRUE(sys_a.halted());
}

TEST(Generated, Rv32iBpRunsBranchyFasterThanBaseline)
{
    Program prog = build_program(branchy_source(300));
    auto base_d = build_design("rv32i");
    auto bp_d = build_design("rv32i-bp");
    GeneratedModel<cuttlesim::models::rv32i> base;
    GeneratedModel<cuttlesim::models::rv32i_bp> bp;
    Rv32System sys_base(*base_d, base, prog, 1);
    Rv32System sys_bp(*bp_d, bp, prog, 1);
    uint64_t cycles_base = sys_base.run(2'000'000);
    uint64_t cycles_bp = sys_bp.run(2'000'000);
    ASSERT_TRUE(sys_base.halted());
    ASSERT_TRUE(sys_bp.halted());
    EXPECT_EQ(sys_base.tohost(0), sys_bp.tohost(0));
    EXPECT_LT(cycles_bp, cycles_base);
}

TEST(Generated, AdapterExposesRuleStatsInterface)
{
    // GeneratedModel implements sim::RuleStatsModel for counter-enabled
    // models: names, fired set, and per-rule counters all line up with
    // the underlying statics.
    GeneratedModel<cuttlesim::models::collatz> m;
    sim::RuleStatsModel& rs = m;
    ASSERT_EQ(rs.num_rules(),
              (size_t)cuttlesim::models::collatz::kNumRules);
    for (int i = 0; i < 40; ++i)
        m.cycle();
    const std::vector<bool>& fired = rs.fired();
    ASSERT_EQ(fired.size(), rs.num_rules());
    size_t fired_count = 0;
    for (bool f : fired)
        fired_count += f;
    EXPECT_EQ(fired_count, 1u); // exactly one collatz rule per cycle
    uint64_t commits = 0, aborts = 0;
    for (size_t r = 0; r < rs.num_rules(); ++r) {
        EXPECT_FALSE(rs.rule_name((int)r).empty());
        commits += rs.rule_commit_counts()[r];
        aborts += rs.rule_abort_counts()[r];
    }
    EXPECT_EQ(commits, 40u);
    EXPECT_EQ(aborts, 80u);
    // Plain (non --instrument) models track no abort reasons.
    EXPECT_TRUE(rs.rule_abort_reason_counts().empty());
}

TEST(Generated, InstrumentedMsiMatchesT5AbortReasons)
{
    // The instrumented generated model and the T5 interpreter must
    // attribute every abort to the same reason, rule by rule.
    auto d = build_design("msi");
    auto engine = make_engine(*d, Tier::kT5StaticAnalysis);
    GeneratedModel<cuttlesim::models::msi_instr> m;
    sim::RuleStatsModel& rs = m;
    constexpr int kCycles = 2000;
    for (int c = 0; c < kCycles; ++c) {
        engine->cycle();
        m.cycle();
    }
    ASSERT_FALSE(rs.rule_abort_reason_counts().empty());
    auto ea = activity_by_name(*engine);
    auto ma = activity_by_name(m);
    ASSERT_FALSE(ea.empty());
    expect_same_activity(ea, ma);
    // Sanity: the MSI protocol exercises real conflicts, not just
    // guards — at least one non-guard abort must appear.
    uint64_t conflicts = 0;
    for (const auto& [name, a] : ea)
        conflicts += a.reasons[1] + a.reasons[2];
    EXPECT_GT(conflicts, 0u);
}

TEST(Generated, InstrumentedRv32iMatchesT5AbortReasons)
{
    Program prog = build_program(primes_source(100));
    auto d = build_design("rv32i");

    auto engine = make_engine(*d, Tier::kT5StaticAnalysis);
    Rv32System sys_e(*d, *engine, prog, 1);
    sys_e.run(2'000'000);
    ASSERT_TRUE(sys_e.halted());

    GeneratedModel<cuttlesim::models::rv32i_instr> m;
    Rv32System sys_m(*d, m, prog, 1);
    sys_m.run(2'000'000);
    ASSERT_TRUE(sys_m.halted());

    auto ea = activity_by_name(*engine);
    auto ma = activity_by_name(m);
    ASSERT_FALSE(ea.empty());
    expect_same_activity(ea, ma);
}

TEST(Generated, InstrumentedMsiCoverageMatchesT5)
{
    // The unified coverage contract across the engine spectrum: the
    // --instrument compiled model and the T5 interpreter must produce
    // the exact same coverage database (statements, branch outcomes,
    // rules, toggles) for the same run. take("") leaves the engine set
    // empty so the JSON dumps compare directly.
    auto d = build_design("msi");
    auto engine = make_engine(*d, Tier::kT5StaticAnalysis);
    GeneratedModel<cuttlesim::models::msi_instr> m;
    obs::CoverageCollector ce(*d, *engine);
    obs::CoverageCollector cm(*d, m);
    for (int c = 0; c < 2000; ++c) {
        engine->cycle();
        m.cycle();
        ce.sample();
        cm.sample();
    }
    obs::CoverageMap from_engine = ce.take("");
    obs::CoverageMap from_model = cm.take("");
    // Both actually collected statement data (the instrumented model
    // compiles its count arrays in).
    obs::CoverageMap::Summary s = from_model.summary();
    ASSERT_GT(s.stmt_covered, 0u);
    ASSERT_GT(s.branch_outcomes_covered, 0u);
    EXPECT_EQ(from_model.to_json().dump(2),
              from_engine.to_json().dump(2));
}

TEST(Generated, InstrumentedRv32iCoverageMatchesT5)
{
    // Same property on the pipelined core running a real program.
    Program prog = build_program(primes_source(30));
    auto d = build_design("rv32i");

    auto engine = make_engine(*d, Tier::kT5StaticAnalysis);
    Rv32System sys_e(*d, *engine, prog, 1);
    GeneratedModel<cuttlesim::models::rv32i_instr> m;
    Rv32System sys_m(*d, m, prog, 1);

    obs::CoverageCollector ce(*d, *engine);
    obs::CoverageCollector cm(*d, m);
    for (int c = 0; c < 5000 && !sys_e.halted(); ++c) {
        sys_e.run(1);
        sys_m.run(1);
        ce.sample();
        cm.sample();
    }
    ASSERT_TRUE(sys_e.halted());
    ASSERT_TRUE(sys_m.halted());
    EXPECT_EQ(cm.take("").to_json().dump(2),
              ce.take("").to_json().dump(2));
}

TEST(Generated, CommitCountersCountRuleActivity)
{
    // Gcov-style statistics come for free (case study 4).
    GeneratedModel<cuttlesim::models::collatz> m;
    for (int i = 0; i < 111; ++i)
        m.cycle();
    auto& impl = m.impl();
    uint64_t commits = 0;
    for (size_t r = 0; r < impl.kNumRules; ++r)
        commits += impl.commit_count[r];
    EXPECT_EQ(commits, 111u); // exactly one rule commits per cycle
    uint64_t aborts = 0;
    for (size_t r = 0; r < impl.kNumRules; ++r)
        aborts += impl.abort_count[r];
    EXPECT_EQ(aborts, 2u * 111u); // the two non-matching rules abort
}

TEST(Generated, CheckpointRoundtrip)
{
    // The generated-model adapter is checkpointable like the
    // interpreter engines: capture through the cuttlesim-ckpt-v1 wire
    // format, restore into a fresh instance, and the two runs stay in
    // lockstep — registers, counters, and instrumented coverage alike.
    auto d = build_design("msi");
    GeneratedModel<cuttlesim::models::msi_instr> a;
    for (int i = 0; i < 70; ++i)
        a.cycle();
    replay::Checkpoint ck = replay::Checkpoint::deserialize(
        replay::Checkpoint::capture(*d, a).serialize());

    GeneratedModel<cuttlesim::models::msi_instr> b;
    ASSERT_TRUE(ck.restore_into(*d, b));
    ASSERT_EQ(b.cycles_run(), 70u);
    for (int i = 0; i < 70; ++i) {
        a.cycle();
        b.cycle();
    }
    for (size_t r = 0; r < d->num_registers(); ++r)
        ASSERT_EQ(a.get_reg((int)r), b.get_reg((int)r))
            << "reg " << d->reg((int)r).name;
    sim::RuleStatsModel &as = a, &bs = b;
    EXPECT_EQ(as.rule_commit_counts(), bs.rule_commit_counts());
    EXPECT_EQ(as.rule_abort_counts(), bs.rule_abort_counts());
    EXPECT_EQ(as.rule_abort_reason_counts(),
              bs.rule_abort_reason_counts());
    sim::CoverageModel &ac = a, &bc = b;
    EXPECT_EQ(ac.stmt_counts(), bc.stmt_counts());
    EXPECT_EQ(ac.branch_taken_counts(), bc.branch_taken_counts());

    // State keys name the layout: the instrumented model's section
    // advertises its extra counter/coverage arrays, and a plain model
    // writes a different key (so cross-restores degrade instead of
    // misparsing each other's byte streams).
    EXPECT_NE(ck.section("engine:generated-v1+counters+reasons"
                         "+coverage"),
              nullptr);
    GeneratedModel<cuttlesim::models::collatz> plain;
    auto cd = build_design("collatz");
    replay::Checkpoint pck = replay::Checkpoint::capture(*cd, plain);
    EXPECT_NE(pck.section("engine:generated-v1+counters"), nullptr);
    GeneratedModel<cuttlesim::models::collatz> plain2;
    EXPECT_TRUE(pck.restore_into(*cd, plain2));
}

namespace {

/** pack_regs must lay out exactly the words get_reg reports, register
 *  after register, and unpack_regs must set what it packed. */
template <typename M>
void
expect_flat_regs_match_get_reg(const std::string& design_name, int cycles)
{
    auto d = build_design(design_name);
    GeneratedModel<M> a;
    for (int c = 0; c < cycles; ++c)
        a.cycle();
    std::vector<uint64_t> want;
    for (size_t r = 0; r < d->num_registers(); ++r) {
        Bits v = a.get_reg((int)r);
        want.insert(want.end(), v.words(), v.words() + v.nwords());
    }
    sim::FlatRegsModel& flat = a;
    ASSERT_EQ(flat.num_reg_words(), want.size());
    std::vector<uint64_t> got(want.size(), ~0ull);
    flat.pack_regs(got.data());
    EXPECT_EQ(got, want);

    GeneratedModel<M> b;
    static_cast<sim::FlatRegsModel&>(b).unpack_regs(got.data());
    for (size_t r = 0; r < d->num_registers(); ++r)
        EXPECT_EQ(b.get_reg((int)r), a.get_reg((int)r))
            << design_name << " register " << d->reg((int)r).name;
    // The next cycle must start from the unpacked state, as after
    // set_reg: both logs see it.
    a.cycle();
    b.cycle();
    for (size_t r = 0; r < d->num_registers(); ++r)
        EXPECT_EQ(b.get_reg((int)r), a.get_reg((int)r))
            << design_name << " register " << d->reg((int)r).name
            << " one cycle later";
}

} // namespace

TEST(Generated, FlatRegsMatchGetReg)
{
    expect_flat_regs_match_get_reg<cuttlesim::models::collatz>("collatz",
                                                               57);
    expect_flat_regs_match_get_reg<cuttlesim::models::rv32i_instr>("rv32i",
                                                                   213);
    expect_flat_regs_match_get_reg<cuttlesim::models::rv32i_rtl>("rv32i",
                                                                 213);
    expect_flat_regs_match_get_reg<cuttlesim::models::fft>("fft", 31);
}

TEST(Generated, ShortCoverageSectionIsAFatalError)
{
    // load_extra_state copies straight into the model's fixed-size
    // arrays, so a length that differs from the model's must stop it
    // before the copy, as a diagnostic rather than an abort.
    GeneratedModel<cuttlesim::models::rv32i_instr> m;
    for (int i = 0; i < 40; ++i)
        m.cycle();
    const sim::RuleStatsModel& rs = m;
    const sim::CoverageModel& cov = m;
    sim::StateWriter w;
    w.put_u64(m.cycles_run());
    w.put_bool_vec(rs.fired());
    w.put_u64_vec(rs.rule_commit_counts());
    w.put_u64_vec(rs.rule_abort_counts());
    w.put_u64_vec(rs.rule_abort_reason_counts());
    std::vector<uint64_t> stmt = cov.stmt_counts();
    stmt.pop_back();
    w.put_u64_vec(stmt);
    w.put_u64_vec(cov.branch_taken_counts());
    w.put_u64_vec(cov.branch_not_taken_counts());
    std::string bytes = w.take();

    GeneratedModel<cuttlesim::models::rv32i_instr> fresh;
    sim::StateReader r(bytes);
    try {
        fresh.load_extra_state(r);
        FAIL() << "a short coverage section loaded";
    } catch (const FatalError& e) {
        std::string msg = e.message();
        EXPECT_NE(msg.find("statement coverage"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(stmt.size())), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::to_string(stmt.size() + 1)),
                  std::string::npos)
            << msg;
    }

    // The well-formed section round-trips byte for byte.
    sim::StateWriter good;
    m.save_extra_state(good);
    std::string good_bytes = good.take();
    sim::StateReader gr(good_bytes);
    fresh.load_extra_state(gr);
    EXPECT_TRUE(gr.done());
    sim::StateWriter again;
    fresh.save_extra_state(again);
    EXPECT_EQ(again.bytes(), good_bytes);
}
