// Checkpoint/replay tests: cuttlesim-ckpt-v1 roundtrips on every
// engine family, corruption/tamper rejection, first-divergence
// bisection, debugger ring spill, and resumable fault campaigns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "base/io.hpp"
#include "designs/designs.hpp"
#include "designs/targets.hpp"
#include "fault/fault.hpp"
#include "harness/debug.hpp"
#include "interp/reference_model.hpp"
#include "replay/bisect.hpp"
#include "replay/checkpoint.hpp"
#include "sim/state.hpp"
#include "sim/tiers.hpp"

using namespace koika;
using replay::Checkpoint;

namespace {

// Engine family under test: -1 is the reference interpreter, 0..5 the
// tier engines. GeneratedModel roundtrips live in test_generated.cpp
// (they need the build-time model headers).
std::unique_ptr<sim::Model>
make_model(const Design& d, int engine)
{
    if (engine < 0)
        return std::make_unique<ReferenceModel>(d);
    return sim::make_engine(d, (sim::Tier)engine);
}

std::string
tmp_path(const std::string& name)
{
    return ::testing::TempDir() + name;
}

void
expect_same_state(const Design& d, const sim::Model& a,
                  const sim::Model& b, const char* what)
{
    EXPECT_EQ(a.cycles_run(), b.cycles_run()) << what;
    for (size_t r = 0; r < d.num_registers(); ++r)
        EXPECT_EQ(a.get_reg((int)r), b.get_reg((int)r))
            << what << ": register " << d.reg((int)r).name;
}

} // namespace

TEST(Checkpoint, RoundtripOnEveryEngine)
{
    auto d = designs::build_collatz();
    for (int engine = -1; engine <= 5; ++engine) {
        SCOPED_TRACE(engine < 0 ? std::string("ref")
                                : "T" + std::to_string(engine));
        auto a = make_model(*d, engine);
        auto* acov = dynamic_cast<sim::CoverageModel*>(a.get());
        ASSERT_NE(acov, nullptr);
        acov->enable_coverage();
        for (int i = 0; i < 60; ++i)
            a->cycle();

        // Serialize through the on-disk format, not just the object.
        Checkpoint ck =
            Checkpoint::deserialize(Checkpoint::capture(*d, *a)
                                        .serialize());
        EXPECT_EQ(ck.design, d->name());
        EXPECT_EQ(ck.cycle, 60u);

        auto b = make_model(*d, engine);
        EXPECT_TRUE(ck.restore_into(*d, *b));
        expect_same_state(*d, *a, *b, "after restore");

        // The restored engine must continue exactly like the original:
        // state, firing history, counters, and coverage all line up.
        for (int i = 0; i < 60; ++i) {
            a->cycle();
            b->cycle();
        }
        expect_same_state(*d, *a, *b, "after 60 more cycles");
        auto* as = dynamic_cast<sim::RuleStatsModel*>(a.get());
        auto* bs = dynamic_cast<sim::RuleStatsModel*>(b.get());
        ASSERT_NE(as, nullptr);
        ASSERT_NE(bs, nullptr);
        EXPECT_EQ(as->rule_commit_counts(), bs->rule_commit_counts());
        EXPECT_EQ(as->rule_abort_counts(), bs->rule_abort_counts());
        EXPECT_EQ(as->fired(), bs->fired());
        auto* bcov = dynamic_cast<sim::CoverageModel*>(b.get());
        ASSERT_NE(bcov, nullptr);
        EXPECT_EQ(acov->stmt_counts(), bcov->stmt_counts());
        EXPECT_EQ(acov->branch_taken_counts(),
                  bcov->branch_taken_counts());
    }
}

TEST(Checkpoint, SectionsSurviveSerialization)
{
    auto d = designs::build_collatz();
    auto m = make_model(*d, 5);
    for (int i = 0; i < 10; ++i)
        m->cycle();
    Checkpoint ck = Checkpoint::capture(*d, *m);
    sim::StateWriter w;
    w.put_u64(0xDEADBEEFu);
    w.put_string("pending response");
    ck.set_section("env", w.take());

    Checkpoint back = Checkpoint::deserialize(ck.serialize());
    EXPECT_EQ(back.fingerprint, replay::design_fingerprint(*d));
    EXPECT_EQ(back.widths, ck.widths);
    EXPECT_EQ(back.regs, ck.regs);
    ASSERT_NE(back.section("engine:tier-v1"), nullptr);
    EXPECT_EQ(back.section("missing"), nullptr);
    const std::string* env = back.section("env");
    ASSERT_NE(env, nullptr);
    sim::StateReader r(*env);
    EXPECT_EQ(r.get_u64(), 0xDEADBEEFu);
    EXPECT_EQ(r.get_string(), "pending response");
    EXPECT_TRUE(r.done());
}

TEST(Checkpoint, RejectsCorruptionAndTamper)
{
    auto d = designs::build_collatz();
    auto m = make_model(*d, 5);
    for (int i = 0; i < 20; ++i)
        m->cycle();
    const std::string bytes = Checkpoint::capture(*d, *m).serialize();

    // Bad magic.
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(Checkpoint::deserialize(bad), FatalError);
    // Flipped payload byte: the trailing SHA-256 must catch it.
    bad = bytes;
    bad[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(Checkpoint::deserialize(bad), FatalError);
    // Truncation, both mid-payload and mid-checksum.
    EXPECT_THROW(Checkpoint::deserialize(bytes.substr(
                     0, bytes.size() / 2)),
                 FatalError);
    EXPECT_THROW(Checkpoint::deserialize(bytes.substr(
                     0, bytes.size() - 7)),
                 FatalError);
    // The pristine bytes still load (the cases above really were the
    // corruption, not a broken serializer).
    EXPECT_NO_THROW(Checkpoint::deserialize(bytes));
}

TEST(Checkpoint, RejectsWrongDesign)
{
    auto collatz = designs::build_collatz();
    auto fir = designs::build_fir();
    auto m = make_model(*collatz, 5);
    for (int i = 0; i < 20; ++i)
        m->cycle();
    Checkpoint ck = Checkpoint::capture(*collatz, *m);

    // A checkpoint from another design must be refused outright.
    auto other = make_model(*fir, 5);
    EXPECT_THROW(ck.restore_into(*fir, *other), FatalError);

    // Same design name, tampered fingerprint: a stale checkpoint from
    // an edited design must not restore either.
    Checkpoint stale = ck;
    stale.fingerprint[0] = stale.fingerprint[0] == 'a' ? 'b' : 'a';
    auto fresh = make_model(*collatz, 5);
    EXPECT_THROW(stale.restore_into(*collatz, *fresh), FatalError);
}

TEST(Checkpoint, CrossEngineFamilyRestoresRegistersOnly)
{
    auto d = designs::build_collatz();
    auto tier = make_model(*d, 5);
    for (int i = 0; i < 30; ++i)
        tier->cycle();
    Checkpoint ck = Checkpoint::capture(*d, *tier);

    // A tier checkpoint restored into the reference interpreter:
    // registers carry over, engine counters cannot (different family),
    // and restore_into says so by returning false.
    ReferenceModel ref(*d);
    EXPECT_FALSE(ck.restore_into(*d, ref));
    for (size_t r = 0; r < d->num_registers(); ++r)
        EXPECT_EQ(ref.get_reg((int)r), tier->get_reg((int)r));
    EXPECT_EQ(ref.cycles_run(), 0u);

    // Same family restores everything.
    auto tier2 = make_model(*d, 5);
    EXPECT_TRUE(ck.restore_into(*d, *tier2));
    EXPECT_EQ(tier2->cycles_run(), 30u);
}

TEST(Checkpoint, SaveLoadThroughDisk)
{
    auto d = designs::build_collatz();
    auto m = make_model(*d, 3);
    for (int i = 0; i < 25; ++i)
        m->cycle();
    Checkpoint ck = Checkpoint::capture(*d, *m);
    std::string path = tmp_path("replay_roundtrip.ckpt");
    ck.save(path);
    Checkpoint back = Checkpoint::load(path);
    EXPECT_EQ(back.serialize(), ck.serialize());
    std::remove(path.c_str());
    EXPECT_THROW(Checkpoint::load(path), FatalError);
}

TEST(SpillStream, RoundtripsRecordsInOrder)
{
    auto d = designs::build_collatz();
    auto m = make_model(*d, 5);
    std::string stream;
    for (int i = 0; i < 3; ++i) {
        m->cycle();
        replay::append_spill_record(stream,
                                    Checkpoint::capture(*d, *m));
    }
    std::vector<Checkpoint> records =
        replay::parse_spill_stream(stream);
    ASSERT_EQ(records.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(records[i].cycle, i + 1);
        EXPECT_EQ(records[i].design, d->name());
    }
    // A truncated stream is corruption, not a shorter history.
    EXPECT_THROW(replay::parse_spill_stream(
                     stream.substr(0, stream.size() - 3)),
                 FatalError);
}

namespace {

sim::SystemFactory
tier_subject(const Design& d,
             sim::Tier tier = sim::Tier::kT5StaticAnalysis)
{
    return [&d, tier]() {
        sim::System s;
        s.model = sim::make_engine(d, tier);
        return s;
    };
}

} // namespace

TEST(Bisect, FindsExactPerturbedCycleAndRegister)
{
    auto d = designs::build_collatz();
    int x = d->reg_index("x");
    ASSERT_GE(x, 0);
    replay::BisectConfig cfg;
    cfg.horizon = 200;
    // Deterministic single-bit upset after 70 committed cycles; the
    // bisector must name that exact cycle and register without ever
    // being told where it is.
    cfg.perturb_b = [x](sim::Model& m, uint64_t committed) {
        if (committed == 70) {
            Bits v = m.get_reg(x);
            m.set_reg(x, v.with_bit(2, !v.bit(2)));
        }
    };
    replay::DivergenceReport rep = replay::bisect_divergence(
        *d, tier_subject(*d), tier_subject(*d), cfg);
    EXPECT_TRUE(rep.diverged);
    EXPECT_EQ(rep.cycle, 70u);
    EXPECT_EQ(rep.reg, x);
    EXPECT_EQ(rep.reg_name, "x");
    EXPECT_NE(rep.value_a, rep.value_b);
    // The scan + binary search must beat the naive per-cycle compare.
    EXPECT_LT(rep.state_compares, 70u);
    EXPECT_GT(rep.checkpoints, 0u);
}

TEST(Bisect, AgreeingEnginesReportNoDivergence)
{
    auto d = designs::build_collatz();
    replay::BisectConfig cfg;
    cfg.horizon = 150;
    replay::DivergenceReport rep = replay::bisect_divergence(
        *d, tier_subject(*d, sim::Tier::kT0Naive),
        tier_subject(*d, sim::Tier::kT4MergedData), cfg);
    EXPECT_FALSE(rep.diverged);
    EXPECT_GT(rep.state_compares, 0u);
}

TEST(Debugger, SpillExtendsReverseWatchpointPastRing)
{
    auto d = designs::build_collatz();
    int seq = d->reg_index("sequences");
    ASSERT_GE(seq, 0);

    // Independently find the cycle where `sequences` last changes in
    // the first 120 cycles (the reload after x reaches 1), so the test
    // asserts the exact distance rather than just "found".
    auto probe = sim::make_engine(*d, sim::Tier::kT4MergedData);
    uint64_t change_cycle = 0;
    Bits prev = probe->get_reg(seq);
    for (uint64_t c = 1; c <= 120; ++c) {
        probe->cycle();
        Bits cur = probe->get_reg(seq);
        if (cur != prev)
            change_cycle = c;
        prev = cur;
    }
    ASSERT_GT(change_cycle, 0u);
    uint64_t expected_ago = 120 - change_cycle;

    // A 6-frame ring cannot hold that change...
    ASSERT_GT(expected_ago, 6u);
    auto e1 = sim::make_engine(*d, sim::Tier::kT4MergedData);
    harness::Debugger plain(*d, *e1, 6);
    for (int i = 0; i < 120; ++i)
        plain.step();
    EXPECT_GT(plain.dropped(), 0u);
    // ...so without a spill the honest answer is "unknowable".
    EXPECT_EQ(plain.last_change("sequences").status,
              harness::LastChange::kTruncated);

    // With a spill stream the evicted frames stay consultable and the
    // watchpoint reports the exact distance.
    auto e2 = sim::make_engine(*d, sim::Tier::kT4MergedData);
    harness::Debugger spilling(*d, *e2, 6);
    std::string path = tmp_path("replay_dbg.spill");
    spilling.enable_spill(path);
    for (int i = 0; i < 120; ++i)
        spilling.step();
    harness::LastChange lc = spilling.last_change("sequences");
    EXPECT_EQ(lc.status, harness::LastChange::kFound);
    EXPECT_EQ(lc.ago, expected_ago);
    // `steps` resets on the same reload and then keeps counting: it
    // changes every cycle, found at distance 0 straight from the ring.
    EXPECT_EQ(spilling.last_change("x").status,
              harness::LastChange::kFound);
    EXPECT_EQ(spilling.last_change("x").ago, 0u);
    std::remove(path.c_str());
}

TEST(Debugger, NeverChangedNeedsCompleteHistory)
{
    auto d = designs::build_collatz();
    // 20 cycles from 27 never reload: lfsr is genuinely constant.
    auto e1 = sim::make_engine(*d, sim::Tier::kT4MergedData);
    harness::Debugger plain(*d, *e1, 8);
    for (int i = 0; i < 20; ++i)
        plain.step();
    // Frames were dropped and no spill exists: "never changed" would
    // be a guess, so the debugger refuses to make it.
    EXPECT_GT(plain.dropped(), 0u);
    EXPECT_EQ(plain.last_change("lfsr").status,
              harness::LastChange::kTruncated);

    auto e2 = sim::make_engine(*d, sim::Tier::kT4MergedData);
    harness::Debugger spilling(*d, *e2, 8);
    std::string path = tmp_path("replay_dbg2.spill");
    spilling.enable_spill(path);
    for (int i = 0; i < 20; ++i)
        spilling.step();
    EXPECT_EQ(spilling.last_change("lfsr").status,
              harness::LastChange::kNeverChanged);
    std::remove(path.c_str());
}

TEST(Debugger, DrivesAnyModelWithCapabilityChecks)
{
    // The debugger takes any sim::Model now; the reference interpreter
    // exposes rule stats (breakpoints work) but cannot step mid-cycle,
    // and asking for that is a clean fatal, not UB.
    auto d = designs::build_collatz();
    ReferenceModel ref(*d);
    harness::Debugger dbg(*d, ref);
    EXPECT_EQ(dbg.break_on_commit("step_even", 1000), 2u);
    harness::LastChange lc = dbg.last_change("x");
    EXPECT_EQ(lc.status, harness::LastChange::kFound);
    EXPECT_FALSE(dbg.can_step_rules());
    EXPECT_THROW(dbg.tier_model(), FatalError);

    auto tier = sim::make_engine(*d, sim::Tier::kT5StaticAnalysis);
    harness::Debugger tdbg(*d, *tier);
    EXPECT_TRUE(tdbg.can_step_rules());
    EXPECT_NO_THROW(tdbg.tier_model());
}

TEST(StateCodec, PrimitivesRoundtripAndShortReadsFail)
{
    sim::StateWriter w;
    w.put_u32(7);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_string(std::string("hello\0world", 11));
    w.put_u64_vec({1, 2, 3});
    w.put_bool_vec({true, false, true, true});
    std::string bytes = w.take();

    sim::StateReader r(bytes);
    EXPECT_EQ(r.get_u32(), 7u);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.get_string(), std::string("hello\0world", 11));
    EXPECT_EQ(r.get_u64_vec(), (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(r.get_bool_vec(),
              (std::vector<bool>{true, false, true, true}));
    EXPECT_TRUE(r.done());

    // Reading past the end is corruption, reported as such.
    std::string short_bytes = bytes.substr(0, 6);
    sim::StateReader short_r(short_bytes);
    short_r.get_u32();
    EXPECT_THROW(short_r.get_u64(), FatalError);

    // So is a vector length whose byte count wraps past 2^64.
    sim::StateWriter huge;
    huge.put_u64(1ull << 61);
    std::string huge_bytes = huge.take();
    sim::StateReader huge_r(huge_bytes);
    EXPECT_THROW(huge_r.get_u64_vec(), FatalError);
}

TEST(StateCodec, BulkArraysWriteTheVectorBytes)
{
    // The pointer forms copy whole arrays; their bytes are the vector
    // forms' bytes, so checkpoints do not change.
    const uint64_t words[] = {1, 0x0123456789ABCDEFull, ~0ull};
    const bool flags[] = {true, false, true};
    const char blob[] = "raw\0bytes";
    sim::StateWriter bulk, vec;
    bulk.put_u64s(words, 3);
    bulk.put_bools(flags, 3);
    bulk.put_bytes(blob, sizeof blob);
    vec.put_u64_vec({1, 0x0123456789ABCDEFull, ~0ull});
    vec.put_bool_vec({true, false, true});
    vec.put_string(std::string(blob, sizeof blob));
    ASSERT_EQ(bulk.bytes(), vec.bytes());

    std::string bytes = bulk.take();
    sim::StateReader r(bytes);
    uint64_t got_words[3] = {};
    ASSERT_EQ(r.get_u64(), 3u);
    r.get_u64s(got_words, 3);
    EXPECT_TRUE(std::equal(words, words + 3, got_words));
    bool got_flags[3] = {};
    ASSERT_EQ(r.get_u64(), 3u);
    r.get_bools(got_flags, 3);
    EXPECT_TRUE(std::equal(flags, flags + 3, got_flags));
    char got_blob[sizeof blob] = {};
    ASSERT_EQ(r.get_u64(), sizeof blob);
    r.get_raw(got_blob, sizeof blob);
    EXPECT_EQ(std::string(got_blob, sizeof blob),
              std::string(blob, sizeof blob));
    EXPECT_TRUE(r.done());

    // Short and wrapping counts fail before any copy.
    sim::StateReader short_r(bytes);
    short_r.get_u64();
    uint64_t sink[4] = {};
    EXPECT_THROW(short_r.get_u64s(sink, 4 + bytes.size() / 8), FatalError);
    EXPECT_THROW(short_r.get_u64s(sink, 1ull << 61), FatalError);
    EXPECT_THROW(short_r.get_raw(sink, bytes.size()), FatalError);
}

TEST(FaultCampaign, ResumesMidCampaignByteIdentically)
{
    auto d = designs::build_collatz();
    fault::TargetFactory factory = fault::closed_target([&d]() {
        return sim::make_engine(*d, sim::Tier::kT5StaticAnalysis);
    });
    fault::CampaignConfig config;
    config.seed = 11;
    config.count = 10;
    config.cycles = 120;

    std::string baseline =
        fault::run_campaign(*d, factory, config).to_json().dump(2);

    std::string path = tmp_path("replay_fault.ckpt");
    std::remove(path.c_str());
    config.checkpoint_file = path;
    config.checkpoint_every = 3;
    fault::CampaignReport first =
        fault::run_campaign(*d, factory, config);
    EXPECT_EQ(first.resumed, 0u);
    EXPECT_EQ(first.to_json().dump(2), baseline);

    // Rewind the progress file to 4 completed injections — exactly
    // what a kill mid-campaign leaves behind (saves are atomic, so the
    // file is always a valid prefix) — and resume.
    obs::Json full = obs::Json::parse(read_file(path));
    obs::Json partial = obs::Json::object();
    partial["schema"] = *full.find("schema");
    partial["design"] = *full.find("design");
    partial["config"] = *full.find("config");
    partial["completed"] = (uint64_t)4;
    obs::Json list = obs::Json::array();
    for (size_t i = 0; i < 4; ++i)
        list.push_back(full.find("injections")->at(i));
    partial["injections"] = std::move(list);
    write_file_atomic(path, partial.dump(2) + "\n");

    fault::CampaignReport resumed =
        fault::run_campaign(*d, factory, config);
    EXPECT_EQ(resumed.resumed, 4u);
    EXPECT_EQ(resumed.to_json().dump(2), baseline);

    // A checkpoint from different flags must be refused, not resumed.
    fault::CampaignConfig other = config;
    other.seed = 12;
    EXPECT_THROW(fault::run_campaign(*d, factory, other), FatalError);
    std::remove(path.c_str());
}

// -- Flat register words: sim::SystemState on every engine -------------------

namespace {

/** Cycles [from, from + n) of `s`, each followed by its stimulus. */
void
step(sim::System& s, uint64_t from, uint64_t n)
{
    for (uint64_t c = from; c < from + n; ++c) {
        s.model->cycle();
        if (s.stimulus)
            s.stimulus(*s.model, c);
    }
}

/** `words` as the little-endian bytes a checkpoint file stores. */
std::string
le_bytes(const std::vector<uint64_t>& words)
{
    std::string out;
    for (uint64_t w : words)
        for (int b = 0; b < 8; ++b)
            out.push_back((char)((w >> (8 * b)) & 0xff));
    return out;
}

/** The packed register payload of a serialized cuttlesim-ckpt-v1 file:
 *  after the magic, version, descriptor length and descriptor. */
std::string
register_payload(const std::string& file, size_t words)
{
    uint32_t hdr = 0;
    for (int i = 0; i < 4; ++i)
        hdr |= (uint32_t)(uint8_t)file[8 + (size_t)i] << (8 * i);
    return file.substr(12 + hdr, words * 8);
}

std::vector<std::string>
all_engines()
{
    std::vector<std::string> engines = {"ref"};
    for (int t = 0; t < sim::kNumTiers; ++t)
        engines.push_back("T" + std::to_string(t));
    engines.push_back("compiled");
    return engines;
}

} // namespace

TEST(SystemState, CaptureRestoreCaptureIsIdenticalOnEveryEngine)
{
    for (const char* design : {"collatz", "rv32i"}) {
        auto d = designs::build_design(design);
        size_t nwords = 0;
        for (size_t r = 0; r < d->num_registers(); ++r)
            nwords += (d->reg((int)r).type->width + 63) / 64;
        for (const std::string& engine : all_engines()) {
            SCOPED_TRACE(std::string(design) + " on " + engine);
            sim::SystemFactory factory =
                designs::make_target_factory(*d, engine);
            sim::System a = factory();
            step(a, 0, 137);
            sim::SystemState first;
            sim::capture(a, first);
            ASSERT_EQ(first.words.size(), nwords);

            sim::System b = factory();
            EXPECT_TRUE(sim::restore(b, first));
            sim::SystemState second;
            sim::capture(b, second);
            EXPECT_EQ(first.words, second.words);
            EXPECT_EQ(first.state_key, second.state_key);
            // EXPECT_TRUE: a failing EXPECT_EQ would diff the binary
            // strings line by line.
            EXPECT_TRUE(first.engine == second.engine);
            EXPECT_TRUE(first.env == second.env);
            EXPECT_EQ(sim::first_difference(b, first.words), -1);

            // The words are the checkpoint file's register payload.
            std::string file = Checkpoint::capture(*d, a).serialize();
            EXPECT_TRUE(register_payload(file, nwords) ==
                        le_bytes(first.words));
        }
    }
}

TEST(SystemState, T5AndCompiledWordsAgreeEveryCycle)
{
    // T5 reads its registers through get_reg, the compiled model packs
    // them in one call; bisection compares the two word for word.
    auto d = designs::build_design("rv32i");
    sim::System t5 = designs::make_target_factory(*d, "T5")();
    sim::System compiled = designs::make_target_factory(*d, "compiled")();
    ASSERT_EQ(dynamic_cast<sim::FlatRegsModel*>(t5.model.get()), nullptr);
    ASSERT_NE(dynamic_cast<sim::FlatRegsModel*>(compiled.model.get()),
              nullptr);
    std::vector<uint64_t> a, b;
    for (uint64_t c = 0; c < 300; ++c) {
        step(t5, c, 1);
        step(compiled, c, 1);
        sim::read_words(t5, a);
        sim::read_words(compiled, b);
        ASSERT_EQ(a, b) << "after cycle " << c;
        ASSERT_EQ(sim::first_difference(compiled, a), -1);
        ASSERT_EQ(sim::first_difference(t5, b), -1);
    }
}

TEST(SystemState, FirstDifferenceNamesEveryFlippedBit)
{
    // Every bit of every register, one at a time: the word compare
    // must name the register a get_reg loop names, including the upper
    // words and struct fields of d2e_data (wider than 64 bits).
    auto d = designs::build_design("rv32i");
    int d2e = d->reg_index("d2e_data");
    ASSERT_GE(d2e, 0);
    ASSERT_GT(d->reg(d2e).type->width, 64u);
    ASSERT_TRUE(d->reg(d2e).type->is_struct());
    sim::System s = designs::make_target_factory(*d, "compiled")();
    ASSERT_NE(dynamic_cast<sim::FlatRegsModel*>(s.model.get()), nullptr);
    step(s, 0, 150);
    std::vector<uint64_t> words;
    sim::read_words(s, words);
    const std::vector<Bits> regs = s.model->snapshot();
    size_t flips = 0;
    for (size_t r = 0; r < regs.size(); ++r) {
        for (uint32_t bit = 0; bit < regs[r].width(); ++bit) {
            s.model->set_reg((int)r,
                             regs[r].with_bit(bit, !regs[r].bit(bit)));
            int by_get_reg = -1;
            for (size_t q = 0; q < regs.size() && by_get_reg < 0; ++q)
                if (s.model->get_reg((int)q) != regs[q])
                    by_get_reg = (int)q;
            ASSERT_EQ(by_get_reg, (int)r);
            ASSERT_EQ(sim::first_difference(s, words), by_get_reg)
                << d->reg((int)r).name << " bit " << bit;
            s.model->set_reg((int)r, regs[r]);
            ++flips;
        }
    }
    EXPECT_GT(flips, (size_t)d->reg(d2e).type->width);
    EXPECT_EQ(sim::first_difference(s, words), -1);
}

TEST(Checkpoint, ShortRamImageIsADiagnostic)
{
    // An env section whose RAM image is 4 bytes short, in a file with
    // a valid checksum: the device must refuse it, not resize its RAM.
    auto d = designs::build_design("rv32i");
    sim::SystemFactory factory = designs::make_target_factory(*d, "T5");
    sim::System a = factory();
    step(a, 0, 50);
    Checkpoint ck = Checkpoint::capture(*d, a);
    const std::string* env = ck.section("env");
    ASSERT_NE(env, nullptr);
    // The section opens with the RAM image: a u64 length, the bytes.
    sim::StateReader r(*env);
    uint64_t ram = r.get_u64();
    ASSERT_EQ(ram, 65536u);
    sim::StateWriter w;
    w.put_bytes(env->data() + 8, ram - 4);
    std::string shorter = w.take() + env->substr(8 + ram);
    ck.set_section("env", shorter);
    Checkpoint back = Checkpoint::deserialize(ck.serialize());

    sim::System b = factory();
    try {
        back.restore_into(*d, b);
        FAIL() << "a short RAM image restored";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.diagnostic().phase, "checkpoint");
        std::string msg = e.message();
        EXPECT_NE(msg.find("'env'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("65532"), std::string::npos) << msg;
        EXPECT_NE(msg.find("65536"), std::string::npos) << msg;
    }
}
