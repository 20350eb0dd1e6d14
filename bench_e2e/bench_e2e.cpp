// The end-to-end benchmark: one workload per process.
//
//   bench_e2e --workload=W --seed=S [--seconds=T] [--trace=DIR]
//
// Workloads (README.md in this directory says why each exists):
//   fig1-rv32i         rv32i runs primes to completion on the dlopened
//                      compiled model, the static model and the static
//                      RTL model, in interleaved rounds (paper Fig. 1).
//   interp-msi         the MSI system on tiers T5 and T0 (the ablation).
//   campaign-compiled  a compiled rv32i fault campaign, scalar, 1 job,
//                      against the same campaign on T5.
//   campaign-batch     the same campaign at batch=8 against the scalar
//                      compiled campaign.
//
// The run times a set-up (from nothing to a ready engine) several times,
// then measures rounds of the workload until T seconds have passed, and
// cross-checks every engine's outputs. It prints each metric as
// `name value unit`, then `checks <attempted> <failed>`, and writes
// BENCH_e2e-<W>.json (cuttlesim-bench-v1) to the working directory. Only
// calls into public library functions are timed.
//
// --trace=DIR first sets up once and measures untraced rounds for T/2
// seconds, then enables the span profiler, sets up again, runs T/2 seconds
// of traced rounds, the checks and the per-layer probes, and writes
// DIR/trace.json (Chrome trace) and DIR/layers.json. It prints the
// per-layer metrics instead of the end-to-end ones.
//
// Scratch state (private compile caches, emitted sources) lives under
// ./scratch and is deleted on exit. KOIKA_BENCH_SMOKE=1 shrinks every
// count to a seconds-long run whose numbers mean nothing.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "codegen/cpp_emit.hpp"
#include "codegen/dlmodel.hpp"
#include "designs/targets.hpp"
#include "fault/fault.hpp"
#include "harness/parallel.hpp"
#include "rtl/lower.hpp"
#include "sim/tiers.hpp"

#include "rv32i.model.hpp"
#include "rv32i_rtl.hpp"

namespace {

namespace fs = std::filesystem;
using namespace koika;
using obs::ProfScope;

/**
 * Campaign horizon. primes_source(20), the campaign program, retires its
 * last instruction between cycles 600 and 900; a longer horizon mostly
 * simulates a halted core.
 */
constexpr uint64_t kHorizon = 600;
/** Fewest rounds a run measures, however short --seconds is. */
constexpr int kMinRounds = 3;

/** Keeps probe loops from being optimized away. */
volatile uint64_t g_sink = 0;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Times `fn` `reps` times; the median in seconds. */
double
median_seconds(int reps, const std::function<void()>& fn)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        bench::Timer t;
        fn();
        s.push_back(t.seconds());
    }
    return median(s);
}

/** Every metric goes to stdout as `name value unit` and into the
 *  BENCH_*.json metrics block. */
class Sink
{
  public:
    explicit Sink(bench::BenchReport& report) : report_(report) {}

    void
    put(const std::string& name, double value, const std::string& unit)
    {
        std::printf("%s %.17g %s\n", name.c_str(), value, unit.c_str());
        report_.user_metrics().set_gauge(name, value);
        values_[name] = {value, unit};
    }

    obs::Json
    to_json() const
    {
        obs::Json j = obs::Json::object();
        for (const auto& [name, vu] : values_) {
            obs::Json m = obs::Json::object();
            m["value"] = vu.first;
            m["unit"] = vu.second;
            j[name] = std::move(m);
        }
        return j;
    }

  private:
    bench::BenchReport& report_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Output checks: each expect() is one attempted check. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string& what)
    {
        attempted_++;
        if (!ok) {
            failed_++;
            std::fprintf(stderr, "bench_e2e: check failed: %s\n",
                         what.c_str());
        }
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Private compile caches and workdirs, removed with the object. */
class Scratch
{
  public:
    Scratch() : root_(fs::absolute("scratch"))
    {
        fs::create_directories(root_);
    }
    ~Scratch()
    {
        std::error_code ec;
        fs::remove_all(root_, ec);
    }
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

    /** Options whose cache is empty, so the next load compiles. */
    codegen::DlModelOptions
    fresh()
    {
        fs::path dir = root_ / ("c" + std::to_string(next_++));
        codegen::DlModelOptions o;
        o.cache.dir = (dir / "cache").string();
        o.workdir = (dir / "work").string();
        fs::create_directories(o.cache.dir);
        return o;
    }

  private:
    fs::path root_;
    int next_ = 0;
};

/** What one measured round produced. */
struct Round
{
    /** The headline engine's simulated Mcycles per host second. */
    double mcps = 0;
    /** Headline over the workload's reference engine (host time). */
    double speedup = 0;
    /** Wall time of the whole round. */
    double seconds = 0;
    /** Further per-round rates, reported as medians. */
    std::map<std::string, double> extra;
};

/** The units of Round::extra entries. */
const std::map<std::string, std::string> kExtraUnits = {
    {"static_mcps", "Mcycles/s"},
    {"rtl_mcps", "Mcycles/s"},
    {"reference_mcps", "Mcycles/s"},
    {"trials_per_s", "1/s"},
    {"reference_trials_per_s", "1/s"},
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** One set-up from nothing to a ready engine; later rounds use the
     *  most recent one. */
    virtual void setup() = 0;
    virtual Round round(Checks& checks) = 0;
    /** Checks that run once, after the rounds. */
    virtual void final_checks(Checks&) {}
    /** Set-ups per run (the reported set-up time is their median). */
    virtual int setups() const = 0;
    /** Simulated cycles of one round's headline run (exact). */
    virtual uint64_t round_cycles() const = 0;
    virtual const Design& design() const = 0;
    /** The in-process engine users run for this workload. */
    virtual std::string engine() const = 0;
    /** Compile options of a model this run already built, or fresh. */
    virtual codegen::DlModelOptions dl_options() = 0;
    /** Accumulated per-engine entries for the BENCH report. */
    std::vector<obs::SimStats> entries;

  protected:
    void
    account(const std::string& label, const std::string& engine,
            uint64_t cycles, double seconds)
    {
        for (obs::SimStats& s : entries) {
            if (s.label == label) {
                s.cycles += cycles;
                s.wall_seconds += seconds;
                return;
            }
        }
        obs::SimStats s;
        s.label = label;
        s.engine = engine;
        s.cycles = cycles;
        s.wall_seconds = seconds;
        entries.push_back(std::move(s));
    }
};

// -- fig1-rv32i ---------------------------------------------------------------

class Fig1 : public Workload
{
  public:
    Fig1(uint64_t seed, Scratch& scratch)
        : bound_(bench::smoke()
                     ? 100
                     : 900 + (uint32_t)(harness::derive_seed(seed, 0) % 201)),
          scratch_(scratch)
    {}

    int setups() const override { return bench::scaled(3, 1); }

    void
    setup() override
    {
        {
            ProfScope s("bench/setup/design");
            designs_.push_back(designs::build_design("rv32i"));
        }
        {
            ProfScope s("bench/setup/program");
            program_ = riscv::build_program(riscv::primes_source(bound_));
        }
        ProfScope s("bench/setup/compile");
        dl_ = scratch_.fresh();
        codegen::load_compiled_model(design(), dl_);
    }

    Round
    round(Checks& checks) override
    {
        std::unique_ptr<sim::Model> dl;
        {
            ProfScope s("bench/sim/build");
            dl = codegen::load_compiled_model(design(), dl_);
        }
        codegen::GeneratedModel<cuttlesim::models::rv32i> st;
        codegen::GeneratedModel<cuttlesim::models::rv32i_rtl> rtl;
        bench::Timer round_t;
        Run a = run("bench/sim/compiled", *dl, checks);
        Run b = run("bench/sim/static", st, checks);
        Run c = run("bench/sim/rtl", rtl, checks);
        checks.expect(a.cycles == b.cycles && b.cycles == c.cycles,
                      "fig1: compiled/static/rtl cycle counts differ");
        cycles_ = a.cycles;
        std::string base = "e2e/fig1-rv32i/";
        account(base + "cuttlesim-dl", "cuttlesim", a.cycles, a.seconds);
        account(base + "cuttlesim-static", "cuttlesim", b.cycles,
                b.seconds);
        account(base + "verilator-koika", "rtl", c.cycles, c.seconds);
        Round r;
        r.mcps = (double)a.cycles / a.seconds / 1e6;
        r.speedup = c.seconds / b.seconds;
        r.seconds = round_t.seconds();
        r.extra["static_mcps"] = (double)b.cycles / b.seconds / 1e6;
        r.extra["rtl_mcps"] = (double)c.cycles / c.seconds / 1e6;
        return r;
    }

    uint64_t round_cycles() const override { return cycles_; }
    const Design& design() const override { return *designs_.back(); }
    std::string engine() const override { return "compiled"; }
    codegen::DlModelOptions dl_options() override { return dl_; }

  private:
    struct Run
    {
        uint64_t cycles;
        double seconds;
    };

    Run
    run(const char* span, sim::Model& m, Checks& checks)
    {
        ProfScope s(span);
        designs::Rv32System sys(design(), m, program_);
        bench::Timer t;
        uint64_t cycles = sys.run(100'000'000);
        double seconds = t.seconds();
        checks.expect(sys.halted(), std::string(span) + ": did not halt");
        checks.expect(!sys.tohost(0).empty() &&
                          sys.tohost(0)[0] == riscv::primes_below(bound_),
                      std::string(span) + ": wrong prime count");
        return {cycles, seconds};
    }

    uint32_t bound_;
    Scratch& scratch_;
    std::vector<std::unique_ptr<Design>> designs_;
    riscv::Program program_;
    codegen::DlModelOptions dl_;
    uint64_t cycles_ = 0;
};

// -- interp-msi ---------------------------------------------------------------

class InterpMsi : public Workload
{
  public:
    InterpMsi(uint64_t seed, Scratch& scratch)
        : lfsr_{1 + harness::derive_seed(seed, 1) % 0xFFFF,
                1 + harness::derive_seed(seed, 2) % 0xFFFF},
          scratch_(scratch)
    {}

    /** Set-up takes milliseconds here; more of them steady the median. */
    int setups() const override { return bench::scaled(15, 3); }

    void
    setup() override
    {
        {
            ProfScope s("bench/setup/design");
            designs_.push_back(designs::build_design("msi"));
        }
        ProfScope s("bench/setup/engine");
        sim::make_engine(design(), sim::Tier::kT5StaticAnalysis);
    }

    Round
    round(Checks& checks) override
    {
        std::unique_ptr<sim::TierModel> t5, t0;
        {
            ProfScope s("bench/sim/build");
            t5 = seeded(sim::Tier::kT5StaticAnalysis);
            t0 = seeded(sim::Tier::kT0Naive);
        }
        bench::Timer round_t;
        double s5 = step("bench/sim/T5", *t5);
        double s0 = step("bench/sim/T0", *t0);
        {
            ProfScope s("bench/check/T0-vs-T5");
            checks.expect(t5->snapshot() == t0->snapshot(),
                          "interp-msi: T0 and T5 registers differ");
            checks.expect(t5->rule_commit_counts() ==
                                  t0->rule_commit_counts() &&
                              t5->rule_abort_counts() ==
                                  t0->rule_abort_counts(),
                          "interp-msi: T0 and T5 rule counts differ");
        }
        account("e2e/interp-msi/T5", "T5", cycles_, s5);
        account("e2e/interp-msi/T0", "T0", cycles_, s0);
        Round r;
        r.mcps = (double)cycles_ / s5 / 1e6;
        r.speedup = s0 / s5;
        r.seconds = round_t.seconds();
        r.extra["reference_mcps"] = (double)cycles_ / s0 / 1e6;
        return r;
    }

    uint64_t round_cycles() const override { return cycles_; }
    const Design& design() const override { return *designs_.back(); }
    std::string engine() const override { return "T5"; }
    codegen::DlModelOptions
    dl_options() override
    {
        return scratch_.fresh();
    }

  private:
    const uint64_t cycles_ = bench::scaled<uint64_t>(20'000, 2'000);

    std::unique_ptr<sim::TierModel>
    seeded(sim::Tier tier)
    {
        auto m = sim::make_engine(design(), tier);
        for (int c = 0; c < 2; ++c)
            m->set_reg(design().reg_index("core" + std::to_string(c) +
                                          "_lfsr"),
                       Bits::of(16, lfsr_[c]));
        return m;
    }

    double
    step(const char* span, sim::Model& m)
    {
        ProfScope s(span);
        bench::Timer t;
        for (uint64_t i = 0; i < cycles_; ++i)
            m.cycle();
        return t.seconds();
    }

    uint64_t lfsr_[2];
    Scratch& scratch_;
    std::vector<std::unique_ptr<Design>> designs_;
};

// -- campaign-compiled / campaign-batch ---------------------------------------

class Campaign : public Workload
{
  public:
    /** With `batch` the headline is batch=8 against the scalar compiled
     *  campaign; otherwise scalar compiled against T5. One job each: a
     *  second thread makes the timing hostage to whichever core a
     *  neighbour loads (the probes still measure a 2-job pool). */
    Campaign(bool batch, uint64_t seed, Scratch& scratch)
        : batch_(batch), seed_(seed), scratch_(scratch)
    {}

    int setups() const override { return bench::scaled(3, 1); }

    void
    setup() override
    {
        {
            ProfScope s("bench/setup/design");
            designs_.push_back(designs::build_design("rv32i"));
        }
        {
            ProfScope s("bench/setup/program");
            dl_ = scratch_.fresh();
            factory_ = designs::make_target_factory(design(), "compiled",
                                                    dl_);
        }
        ProfScope s("bench/setup/compile");
        factory_();
    }

    /**
     * The headline campaign, then the reference engine on the first
     * ref_count_ injections of the same fault list. Each round draws a
     * new list from the seed, so over a run both engines see the fault
     * mix of many lists, not the luck of one.
     */
    Round
    round(Checks& checks) override
    {
        if (!ref_factory_)
            ref_factory_ = batch_ ? factory_
                                  : designs::make_target_factory(design(),
                                                                 "T5");
        fault::CampaignConfig cfg;
        cfg.seed = harness::derive_seed(seed_, rounds_++);
        cfg.count = (int)count_;
        cfg.cycles = kHorizon;
        cfg.batch = batch_ ? 8 : 1;
        cfg.label = "bench_e2e";
        std::vector<fault::FaultSpec> faults =
            fault::generate_faults(design(), cfg);
        bench::Timer round_t;
        double s_main = 0, s_ref = 0;
        fault::CampaignReport main;
        {
            ProfScope s("bench/campaign/run");
            bench::Timer t;
            main = fault::run_campaign(design(), factory_, cfg);
            s_main = t.seconds();
        }
        std::vector<fault::InjectionRecord> ref(ref_count_);
        {
            ProfScope s("bench/campaign/reference");
            bench::Timer t;
            bool done = fault::run_injection_range(
                design(), ref_factory_, faults, 0, ref_count_, kHorizon, 1, 1,
                ref.data());
            s_ref = t.seconds();
            checks.expect(done, "campaign: reference run interrupted");
        }
        {
            ProfScope s("bench/check/campaign");
            bool same = main.injections.size() == count_;
            for (size_t i = 0; same && i < ref_count_; ++i)
                same = record_json(i, ref[i]) ==
                       record_json(i, main.injections[i]);
            checks.expect(same, "campaign: reference engine records "
                                "differ");
            if (first_faults_.empty()) {
                first_faults_ = std::move(faults);
                first_ = std::move(main);
            }
        }
        std::string base =
            batch_ ? "e2e/campaign-batch/" : "e2e/campaign-compiled/";
        account(base + "campaign", batch_ ? "cuttlesim-batch" : "cuttlesim",
                count_ * kHorizon, s_main);
        account(base + "reference", batch_ ? "cuttlesim" : "T5",
                ref_count_ * kHorizon, s_ref);
        Round r;
        r.mcps = (double)(count_ * kHorizon) / s_main / 1e6;
        r.speedup = (s_ref / ref_count_) / (s_main / count_);
        r.seconds = round_t.seconds();
        r.extra["trials_per_s"] = count_ / s_main;
        r.extra["reference_trials_per_s"] = ref_count_ / s_ref;
        return r;
    }

    /** Sixteen injections drawn from the first round's list, re-run one
     *  at a time on T5, must reproduce that campaign's records. */
    void
    final_checks(Checks& checks) override
    {
        ProfScope s("bench/check/t5-rerun");
        fault::TargetFactory t5 = designs::make_target_factory(design(), "T5");
        for (uint64_t i = 0; i < 16; ++i) {
            size_t k = (size_t)(harness::derive_seed(seed_, 100 + i) %
                                first_faults_.size());
            fault::InjectionRecord rec = fault::run_injection(
                design(), t5, first_faults_[k], kHorizon);
            checks.expect(record_json(k, rec) ==
                              record_json(k, first_.injections[k]),
                          "campaign: T5 re-run of injection " +
                              std::to_string(k) + " differs");
        }
    }

    uint64_t
    round_cycles() const override
    {
        return count_ * kHorizon;
    }
    const Design& design() const override { return *designs_.back(); }
    std::string engine() const override { return "compiled"; }
    codegen::DlModelOptions dl_options() override { return dl_; }

  private:
    static std::string
    record_json(size_t i, const fault::InjectionRecord& rec)
    {
        return fault::injection_to_json(i, rec).dump();
    }

    bool batch_;
    uint64_t seed_;
    Scratch& scratch_;
    /** Injections per headline campaign and per reference slice. */
    const uint64_t count_ =
        batch_ ? bench::scaled(256, 64) : bench::scaled(128, 32);
    const size_t ref_count_ =
        batch_ ? bench::scaled(64, 16) : bench::scaled(8, 4);
    std::vector<std::unique_ptr<Design>> designs_;
    codegen::DlModelOptions dl_;
    fault::TargetFactory factory_, ref_factory_;
    uint64_t rounds_ = 0;
    std::vector<fault::FaultSpec> first_faults_;
    fault::CampaignReport first_;
};

// -- per-layer probes (traced runs) -------------------------------------------

/** Host ns per simulated cycle (model plus its peripherals) over the
 *  first kHorizon cycles of targets from `factory`, reused through a
 *  TrialContext as campaign trials reuse them; also the rule counters
 *  of one such run. */
struct Drive
{
    double ns_per_cycle = 0;
    uint64_t commits = 0, aborts = 0;
};

Drive
drive(const fault::TargetFactory& factory, int reps)
{
    Drive d;
    fault::TrialContext ctx(factory);
    std::vector<double> ns;
    // Run 0 warms the target objects up and is not timed.
    for (int r = 0; r <= reps; ++r) {
        fault::FaultTarget t = ctx.acquire();
        bench::Timer timer;
        for (uint64_t c = 0; c < kHorizon; ++c) {
            t.model->cycle();
            if (t.stimulus)
                t.stimulus(*t.model, c);
        }
        if (r > 0)
            ns.push_back(timer.seconds() * 1e9 / kHorizon);
        else if (auto* rs =
                     dynamic_cast<sim::RuleStatsModel*>(t.model.get())) {
            for (uint64_t v : rs->rule_commit_counts())
                d.commits += v;
            for (uint64_t v : rs->rule_abort_counts())
                d.aborts += v;
        }
        ctx.release(std::move(t), true);
    }
    d.ns_per_cycle = median(ns);
    return d;
}

/** Worker busy/wait seconds summed over pool threads so far. */
std::pair<double, double>
pool_totals()
{
    double busy = 0, wait = 0;
    for (const auto& w : obs::Profiler::instance().report().workers) {
        if (w.name.rfind("worker", 0) != 0)
            continue;
        busy += w.busy_seconds;
        wait += w.wait_seconds;
    }
    return {busy, wait};
}

/**
 * Measure every layer on the workload's design and engine. Each probe
 * calls one layer through its public entry point; the metric names are
 * <layer>.<quantity> (README.md lists what each one should move).
 */
void
probe_layers(Workload& w, uint64_t seed, Sink& out)
{
    const Design& d = w.design();
    const std::string name = d.name();
    const int reps = bench::scaled(5, 1);
    {
        ProfScope s("bench/probe/koika");
        out.put("koika.build_ms", 1e3 * median_seconds(reps, [&] {
                    designs::build_design(name);
                }),
                "ms");
    }
    {
        ProfScope s("bench/probe/rtl");
        size_t nodes = 0;
        out.put("rtl.lower_ms", 1e3 * median_seconds(reps, [&] {
                    nodes = rtl::lower(d).num_nodes();
                }),
                "ms");
        out.put("rtl.nodes", (double)nodes, "count");
    }
    {
        ProfScope s("bench/probe/emit");
        codegen::EmitOptions eo;
        eo.abort_reasons = true;
        eo.coverage = true;
        size_t bytes = 0;
        out.put("codegen.emit_ms", 1e3 * median_seconds(reps, [&] {
                    bytes = codegen::emit_model(d, eo).size();
                }),
                "ms");
        out.put("codegen.emit_kb", (double)bytes / 1024, "KB");
    }

    codegen::DlModelOptions dl = w.dl_options();
    {
        // A no-op for workloads that compiled during set-up (the model
        // library is cached per thread); a cold compile otherwise.
        ProfScope s("bench/probe/compile");
        codegen::load_compiled_model(d, dl);
        out.put("codegen.compile_s",
                obs::Profiler::instance()
                    .report()
                    .phases["compile/external"]
                    .mean_seconds(),
                "s");
    }
    {
        // A new thread has no loaded library: cache probe, dlopen and
        // construction, which every pool worker pays once per campaign.
        ProfScope s("bench/probe/warm-load");
        out.put("codegen.warm_load_ms", 1e3 * median_seconds(3, [&] {
                    std::thread t(
                        [&] { codegen::load_compiled_model(d, dl); });
                    t.join();
                }),
                "ms");
    }

    double headline_ns = 0;
    {
        ProfScope s("bench/probe/model");
        Drive m = drive(designs::make_target_factory(d, "compiled", dl),
                        bench::scaled(200, 2));
        out.put("model.cycle_ns", m.ns_per_cycle, "ns");
        out.put("model.fire_frac",
                (double)m.commits / (double)(m.commits + m.aborts),
                "fraction");
        auto model = codegen::load_compiled_model(d, dl);
        const int scans = bench::scaled(20'000, 100);
        uint64_t sum = 0;
        bench::Timer t;
        for (int i = 0; i < scans; ++i)
            for (size_t r = 0; r < model->num_regs(); ++r)
                sum += model->get_reg((int)r).word(0);
        out.put("model.state_scan_ns", t.seconds() * 1e9 / scans, "ns");
        g_sink = sum;
        headline_ns = m.ns_per_cycle;
    }
    out.put("sim.cycles", (double)w.round_cycles(), "count");
    {
        ProfScope s("bench/probe/tiers");
        Drive t5 = drive(designs::make_target_factory(d, "T5"), reps);
        Drive t0 = drive(designs::make_target_factory(d, "T0"), reps);
        out.put("tier.T5.cycle_ns", t5.ns_per_cycle, "ns");
        out.put("tier.T0.cycle_ns", t0.ns_per_cycle, "ns");
        out.put("tier.aborts_per_cycle", (double)t5.aborts / kHorizon,
                "count");
        if (w.engine() == "T5")
            headline_ns = t5.ns_per_cycle;
    }

    fault::TargetFactory factory =
        designs::make_target_factory(d, w.engine(), dl);
    const bool compiled = w.engine() == "compiled";
    {
        ProfScope s("bench/probe/restore");
        fault::TrialContext ctx(factory);
        ctx.golden();
        const int n = bench::scaled(2'000, 10);
        bench::Timer t;
        for (int i = 0; i < n; ++i)
            ctx.release(ctx.acquire(), true);
        out.put("fault.restore_us", t.seconds() * 1e6 / n, "us");
    }

    obs::Profiler& prof = obs::Profiler::instance();
    fault::CampaignConfig c;
    c.seed = seed;
    c.cycles = kHorizon;
    c.label = "bench_e2e_probe";
    {
        ProfScope s("bench/probe/campaign");
        c.count = compiled ? bench::scaled(512, 16) : bench::scaled(48, 8);
        double setup0 = prof.phase_total_seconds("trial/setup");
        double run0 = prof.phase_total_seconds("trial/run");
        fault::CampaignReport rep = fault::run_campaign(d, factory, c);
        double setup_us =
            (prof.phase_total_seconds("trial/setup") - setup0) * 1e6 /
            c.count;
        double run_us =
            (prof.phase_total_seconds("trial/run") - run0) * 1e6 / c.count;
        out.put("fault.trial_setup_us", setup_us, "us");
        out.put("fault.trial_run_us", run_us, "us");
        // An estimate: golden plus faulted model cycles over the trial
        // loop's time, from the separately measured cycle cost.
        out.put("fault.model_share",
                2.0 * kHorizon * headline_ns / 1e3 / run_us, "fraction");
        out.put("fault.outcome.masked", (double)rep.masked, "count");
        out.put("fault.outcome.sdc", (double)rep.sdc, "count");
        out.put("fault.outcome.detected", (double)rep.detected, "count");
    }
    {
        ProfScope s("bench/probe/batch");
        c.count = compiled ? bench::scaled(2048, 32) : bench::scaled(96, 16);
        c.batch = 8;
        c.jobs = 2;
        const char* phases[] = {"batch/pack", "batch/step", "batch/unpack"};
        double before[3];
        for (int i = 0; i < 3; ++i)
            before[i] = prof.phase_total_seconds(phases[i]);
        auto [busy0, wait0] = pool_totals();
        bench::Timer t;
        fault::run_campaign(d, factory, c);
        double wall = t.seconds();
        auto [busy1, wait1] = pool_totals();
        const char* names[] = {"batch.pack_us", "batch.step_us",
                               "batch.unpack_us"};
        for (int i = 0; i < 3; ++i)
            out.put(names[i],
                    (prof.phase_total_seconds(phases[i]) - before[i]) *
                        1e6 / c.count,
                    "us");
        out.put("pool.utilization", (busy1 - busy0) / (c.jobs * wall),
                "fraction");
        out.put("pool.wait_ms", (wait1 - wait0) * 1e3, "ms");
    }
}

// -- command line and run loop ------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    std::string trace_dir;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\n"
                 "usage: bench_e2e --workload=W --seed=S [--seconds=T] "
                 "[--trace=DIR]\n"
                 "workloads: fig1-rv32i interp-msi campaign-compiled "
                 "campaign-batch\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        size_t eq = a.find('=');
        if (a.rfind("--", 0) != 0 || eq == std::string::npos)
            usage(("bad argument '" + a + "'").c_str());
        std::string key = a.substr(2, eq - 2), value = a.substr(eq + 1);
        char* end = nullptr;
        if (key == "workload") {
            o.workload = value;
        } else if (key == "seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = !value.empty() && *end == '\0';
            if (!have_seed)
                usage("--seed takes a whole number");
        } else if (key == "seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (key == "trace") {
            o.trace_dir = value;
        } else {
            usage(("unknown flag --" + key).c_str());
        }
    }
    if (o.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    return o;
}

std::unique_ptr<Workload>
make_workload(const Options& o, Scratch& scratch)
{
    if (o.workload == "fig1-rv32i")
        return std::make_unique<Fig1>(o.seed, scratch);
    if (o.workload == "interp-msi")
        return std::make_unique<InterpMsi>(o.seed, scratch);
    if (o.workload == "campaign-compiled")
        return std::make_unique<Campaign>(false, o.seed, scratch);
    if (o.workload == "campaign-batch")
        return std::make_unique<Campaign>(true, o.seed, scratch);
    usage(("unknown workload '" + o.workload + "'").c_str());
}

std::vector<Round>
run_rounds(Workload& w, double seconds, Checks& checks)
{
    std::vector<Round> rounds;
    bench::Timer t;
    do
        rounds.push_back(w.round(checks));
    while (t.seconds() < seconds || (int)rounds.size() < kMinRounds);
    return rounds;
}

double
median_of(const std::vector<Round>& rounds,
          const std::function<double(const Round&)>& field)
{
    std::vector<double> v;
    for (const Round& r : rounds)
        v.push_back(field(r));
    return median(v);
}

double
peak_rss_mb()
{
    struct rusage u;
    getrusage(RUSAGE_SELF, &u);
    return (double)u.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

void
write_file(const fs::path& path, const std::string& text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        fatal("cannot write '%s'", path.c_str());
}

int
run(const Options& o)
{
    Scratch scratch;
    std::unique_ptr<Workload> w = make_workload(o, scratch);
    bench::BenchReport report("e2e-" + o.workload);
    Sink out(report);
    Checks checks;
    const bool traced = !o.trace_dir.empty();

    // A traced run reports no set-up time, so one set-up will do.
    std::vector<double> setup_s;
    for (int k = 0; k < (traced ? 1 : w->setups()); ++k) {
        bench::Timer t;
        w->setup();
        setup_s.push_back(t.seconds());
    }
    std::vector<Round> rounds =
        run_rounds(*w, traced ? o.seconds / 2 : o.seconds, checks);

    if (!traced) {
        w->final_checks(checks);
        out.put("setup_s", median(setup_s), "s");
        out.put("sim_mcps", median_of(rounds, [](auto& r) { return r.mcps; }),
                "Mcycles/s");
        out.put("speedup",
                median_of(rounds, [](auto& r) { return r.speedup; }), "x");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        for (const auto& [name, unit] : kExtraUnits)
            if (rounds[0].extra.count(name))
                out.put(name, median_of(rounds, [&](auto& r) {
                            return r.extra.at(name);
                        }),
                        unit);
    } else {
        double untraced_s =
            median_of(rounds, [](auto& r) { return r.seconds; });
        obs::Profiler& prof = obs::Profiler::instance();
        prof.set_thread_name("main");
        prof.enable();
        {
            ProfScope s("bench/setup");
            w->setup();
        }
        std::vector<Round> traced_rounds =
            run_rounds(*w, o.seconds / 2, checks);
        w->final_checks(checks);
        probe_layers(*w, o.seed, out);
        out.put("obs.traced_over_untraced",
                median_of(traced_rounds,
                          [](auto& r) { return r.seconds; }) /
                    untraced_s,
                "x");
        obs::Profiler::Report rep = prof.report();
        double main_busy = 0;
        for (const auto& wk : rep.workers)
            if (wk.name == "main")
                main_busy = wk.busy_seconds;
        out.put("obs.span_coverage", main_busy / rep.wall_seconds,
                "fraction");
        fs::create_directories(o.trace_dir);
        write_file(fs::path(o.trace_dir) / "trace.json", prof.trace_json());
        obs::Json layers = obs::Json::object();
        layers["workload"] = o.workload;
        layers["seed"] = o.seed;
        layers["metrics"] = out.to_json();
        layers["prof"] = rep.to_json();
        write_file(fs::path(o.trace_dir) / "layers.json",
                   layers.dump(2) + "\n");
    }

    for (obs::SimStats& s : w->entries)
        report.add(std::move(s));
    report.write();
    std::printf("checks %llu %llu\n", (unsigned long long)checks.attempted(),
                (unsigned long long)checks.failed());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o = parse(argc, argv);
    try {
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
