// Case study 2: functional verification with scheduler randomization.
//
// A good rule-based design uses its scheduler for performance, not for
// functional correctness. The paper's methodology: because the model is
// just C++, write a cycle() that calls the rules in random order and
// check the design still works. We fuzz the collatz state machine, the
// MSI protocol (final-state comparison against the canonical schedule is
// not expected there — coherence is the property), and the rv32i core
// running a real program whose tohost output must be schedule-invariant.
//
// Seeds are fixed, so a run is reproducible; ctest runs this on every
// build (labels: tier1, fuzz). Trials are independent, each seeded by
// harness::derive_seed(base, trial), and sharded across worker threads
// (src/harness/parallel.hpp) — the verdict is identical at any job
// count. Optional arguments scale the trial counts for deep runs and
// set the worker count:
//
//   $ ./examples/scheduler_fuzz        # per-build config, 1 worker/core
//   $ ./examples/scheduler_fuzz 10    # 10x the trials (ctest -L fuzz)
//   $ ./examples/scheduler_fuzz 10 4  # same, on exactly 4 workers
//
// With KOIKA_FUZZ_COVERAGE=PREFIX set, every fuzzed design also
// accumulates a cuttlesim-cov-v1 design-coverage database over all its
// trials, written to PREFIX<design>.cov.json. Per-trial maps are folded
// in trial order after the workers join, so — like the verdict — the
// database is byte-identical at any worker count and can be merged with
// databases from other producers via `cuttlec --coverage-merge`.
//
// With KOIKA_PROF=FILE set, the host span profiler is armed and a
// cuttlesim-prof-v1 report (docs/OBSERVABILITY.md) is written to FILE
// at exit: per-trial setup vs. run attribution plus worker-pool
// utilization, the data that tells a slow fuzz run apart from an
// underfed one.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>

#include "base/io.hpp"
#include "designs/designs.hpp"
#include "designs/msi.hpp"
#include "designs/rv32.hpp"
#include "harness/memory.hpp"
#include "harness/parallel.hpp"
#include "obs/coverage.hpp"
#include "obs/prof.hpp"
#include "riscv/goldensim.hpp"
#include "riscv/programs.hpp"
#include "sim/tiers.hpp"

using namespace koika;
using namespace koika::designs;

namespace {

std::vector<int>
identity_order(const Design& d)
{
    std::vector<int> order;
    for (size_t i = 0; i < d.num_rules(); ++i)
        order.push_back((int)i);
    return order;
}

int fuzz_jobs = 1;

/** $KOIKA_FUZZ_COVERAGE, or empty when coverage is off. */
std::string fuzz_cov_prefix;

/** Fold per-trial maps in trial order and write the database. */
void
save_fuzz_coverage(const Design& d, const std::string& name,
                   const std::vector<obs::CoverageMap>& trials)
{
    obs::CoverageMap merged = obs::CoverageMap::for_design(d);
    for (const obs::CoverageMap& m : trials)
        merged.merge(m);
    std::string path = fuzz_cov_prefix + name + ".cov.json";
    merged.save(path);
    std::printf("  %-8s: coverage database written to %s\n",
                name.c_str(), path.c_str());
}

/** Fuzz a closed design: final state must match the canonical run. */
bool
fuzz_closed(const std::string& name, int cycles, int trials)
{
    auto d = build_design(name);
    auto canonical = sim::make_engine(*d, sim::Tier::kT4MergedData);
    for (int c = 0; c < cycles; ++c)
        canonical->cycle();
    // Snapshot the canonical final state so the sharded trials only
    // touch immutable data.
    std::vector<Bits> final_state;
    for (size_t r = 0; r < d->num_registers(); ++r)
        final_state.push_back(canonical->get_reg((int)r));

    std::vector<char> agreed(trials, 0);
    std::vector<obs::CoverageMap> cov;
    if (!fuzz_cov_prefix.empty())
        cov.resize((size_t)trials);
    harness::parallel_for((uint64_t)trials, fuzz_jobs,
                          [&](const harness::Shard& s) {
        uint64_t t = s.first;
        obs::ProfScope setup_span("trial/setup");
        std::mt19937_64 rng(harness::derive_seed(42, t));
        auto e = sim::make_engine(*d, sim::Tier::kT4MergedData);
        std::unique_ptr<obs::CoverageCollector> collector;
        if (!cov.empty())
            collector =
                std::make_unique<obs::CoverageCollector>(*d, *e);
        std::vector<int> order = identity_order(*d);
        setup_span.close();
        obs::ProfScope run_span("trial/run");
        for (int c = 0; c < cycles; ++c) {
            std::shuffle(order.begin(), order.end(), rng);
            e->cycle_with_order(order);
            if (collector != nullptr)
                collector->sample();
        }
        bool same = true;
        for (size_t r = 0; r < d->num_registers(); ++r)
            same &= e->get_reg((int)r) == final_state[r];
        agreed[t] = same;
        if (collector != nullptr)
            cov[t] = collector->take(
                sim::tier_name(sim::Tier::kT4MergedData));
    });
    if (!cov.empty())
        save_fuzz_coverage(*d, name, cov);
    int agreeing = 0;
    for (char a : agreed)
        agreeing += a;
    std::printf("  %-8s: %d/%d random schedules reach the canonical "
                "final state\n",
                name.c_str(), agreeing, trials);
    return agreeing == trials;
}

/** Fuzz the rv32i core: tohost output must be schedule-invariant. */
bool
fuzz_rv32(int trials)
{
    riscv::Program prog =
        riscv::build_program(riscv::primes_source(100));
    riscv::GoldenSim golden;
    golden.load(prog);
    golden.run(10'000'000);

    auto d = build_design("rv32i");
    Rv32CorePorts ports = rv32_ports(*d, 0, 1);
    std::vector<char> matched(trials, 0);
    std::vector<obs::CoverageMap> cov;
    if (!fuzz_cov_prefix.empty())
        cov.resize((size_t)trials);
    harness::parallel_for((uint64_t)trials, fuzz_jobs,
                          [&](const harness::Shard& s) {
        uint64_t t = s.first;
        obs::ProfScope setup_span("trial/setup");
        std::mt19937_64 rng(harness::derive_seed(7, t));
        auto e = sim::make_engine(*d, sim::Tier::kT4MergedData);
        std::unique_ptr<obs::CoverageCollector> collector;
        if (!cov.empty())
            collector =
                std::make_unique<obs::CoverageCollector>(*d, *e);
        harness::MemoryDevice mem;
        mem.load_words(prog.words, prog.base);
        harness::MemPort imem(mem, ports.imem), dmem(mem, ports.dmem);
        std::vector<int> order = identity_order(*d);
        setup_span.close();
        obs::ProfScope run_span("trial/run");
        for (int c = 0; c < 500'000; ++c) {
            std::shuffle(order.begin(), order.end(), rng);
            e->cycle_with_order(order);
            imem.tick(*e);
            dmem.tick(*e);
            if (collector != nullptr)
                collector->sample();
            if (!e->get_reg(ports.halted).is_zero() &&
                e->get_reg(ports.d2e_valid).is_zero() &&
                e->get_reg(ports.e2w_valid).is_zero())
                break;
        }
        matched[t] = mem.tohost() == golden.tohost();
        if (collector != nullptr)
            cov[t] = collector->take(
                sim::tier_name(sim::Tier::kT4MergedData));
    });
    if (!cov.empty())
        save_fuzz_coverage(*d, "rv32i", cov);
    int good = 0;
    for (char m : matched)
        good += m;
    std::printf("  rv32i   : %d/%d random per-cycle schedules produce "
                "the golden primes(100)\n            output (%u primes)\n",
                good, trials, golden.tohost()[0]);
    return good == trials;
}

} // namespace

int
main(int argc, char** argv)
{
    int scale = argc > 1 ? std::atoi(argv[1]) : 1;
    if (scale < 1)
        scale = 1;
    fuzz_jobs =
        harness::resolve_jobs(argc > 2 ? std::atoi(argv[2]) : 0);
    if (const char* prefix = std::getenv("KOIKA_FUZZ_COVERAGE"))
        fuzz_cov_prefix = prefix;
    std::string prof_file;
    if (const char* pf = std::getenv("KOIKA_PROF"))
        prof_file = pf;
    if (!prof_file.empty()) {
        obs::Profiler::instance().enable();
        obs::Profiler::instance().set_thread_name("main");
    }
    std::printf("Case study 2: scheduler randomization.\n"
                "Rules run in a fresh random order every cycle; designs "
                "must not depend on\nthe scheduler for correctness.\n"
                "(%d trial workers; the verdict is jobs-independent.)\n\n",
                fuzz_jobs);
    bool ok = true;
    ok &= fuzz_closed("collatz", 500, 20 * scale);
    ok &= fuzz_closed("fir", 300, 10 * scale);
    ok &= fuzz_rv32(5 * scale);
    if (!prof_file.empty()) {
        write_file_atomic(
            prof_file,
            obs::Profiler::instance().report().to_json().dump(2) + "\n");
        std::fprintf(stderr, "profile report written to %s\n",
                     prof_file.c_str());
    }
    std::printf("\n%s\n",
                ok ? "All randomized schedules preserved functional "
                     "behaviour."
                   : "DIVERGENCE FOUND: the design depends on its "
                     "scheduler!");
    return ok ? 0 : 1;
}
