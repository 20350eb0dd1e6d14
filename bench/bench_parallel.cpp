// Parallel campaign runner: determinism and scaling of the work-sharding
// harness (src/harness/parallel.hpp).
//
// Not a paper figure — this bench guards the tooling the reproduction
// runs on. It runs the same fault-injection campaign serially (jobs=1)
// and sharded across one worker per hardware thread, checks the two
// reports are byte-identical (the determinism contract documented in
// fault::CampaignConfig), and reports the wall-clock speedup. A second
// section shards independent simulation repetitions with per-worker
// metrics registries and checks the merged metrics match the serial
// tally.
//
// Writes BENCH_parallel.json; the `extra` map carries jobs and speedup,
// and the campaign entries carry the coverage summary block (the merged
// fault-campaign coverage database is held to the same serial-vs-shard
// byte-identity contract as the report). Speedup tracks the machine (on
// a 1-core runner it is ~1.0), so no entry asserts a minimum —
// byte-identity is the hard check here.
//
// Each campaign entry also carries a per-phase wall-clock split
// (trial_setup_seconds / trial_run_seconds / engine_build_seconds,
// diffed from the span profiler around each section), so a jobs=1 vs
// jobs=hw comparison attributes *where* a disappointing speedup went
// instead of just totaling it. KOIKA_BENCH_NO_PROF=1 disables the
// profiler entirely — running the bench both ways is the overhead
// check for the disabled-ProfScope fast path (expected <2%).

#include <cstdio>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "harness/parallel.hpp"
#include "sim/tiers.hpp"

namespace {

/** Per-phase totals (seconds) the campaign sections diff around
 *  themselves to attribute their own wall time. */
struct PhaseSplit
{
    double setup = 0, run = 0, build = 0;

    static PhaseSplit
    now()
    {
        koika::obs::Profiler& p = koika::obs::Profiler::instance();
        PhaseSplit s;
        s.setup = p.phase_total_seconds("trial/setup");
        s.run = p.phase_total_seconds("trial/run");
        s.build = p.phase_total_seconds("engine/build");
        return s;
    }

    PhaseSplit
    operator-(const PhaseSplit& base) const
    {
        return {setup - base.setup, run - base.run, build - base.build};
    }
};

koika::fault::CampaignReport
run_campaign(const koika::Design& d, int jobs, int count, uint64_t cycles,
             double* wall, PhaseSplit* phases)
{
    koika::fault::CampaignConfig config;
    config.seed = 0xC0FFEE;
    config.count = count;
    config.cycles = cycles;
    config.jobs = jobs;
    config.label = "bench_parallel";
    // Coverage rides along: the shard-merged database must honor the
    // same byte-identity contract as the report itself.
    config.collect_coverage = true;
    auto factory = koika::fault::closed_target([&d] {
        koika::obs::ProfScope span("engine/build");
        return koika::sim::make_engine(
            d, koika::sim::Tier::kT5StaticAnalysis);
    });
    PhaseSplit before = PhaseSplit::now();
    bench::Timer timer;
    koika::fault::CampaignReport report =
        koika::fault::run_campaign(d, factory, config);
    *wall = timer.seconds();
    *phases = PhaseSplit::now() - before;
    report.engine = "T5";
    return report;
}

void
record(const std::string& label, uint64_t cycles, double wall, int jobs,
       double speedup,
       const koika::obs::Json& coverage = koika::obs::Json(),
       const PhaseSplit* phases = nullptr)
{
    koika::obs::SimStats s;
    s.label = label;
    s.engine = "T5";
    s.cycles = cycles;
    s.wall_seconds = wall;
    s.extra["jobs"] = (double)jobs;
    s.extra["speedup_vs_serial"] = speedup;
    if (phases != nullptr) {
        // CPU-seconds summed across workers, so at jobs=N the phase
        // split can legitimately exceed this entry's wall clock — the
        // ratio between the two IS the parallelism actually achieved.
        s.extra["trial_setup_seconds"] = phases->setup;
        s.extra["trial_run_seconds"] = phases->run;
        s.extra["engine_build_seconds"] = phases->build;
    }
    s.coverage = coverage;
    bench::report().add(std::move(s));
}

} // namespace

int
main()
{
    bench::report_init("parallel");
    const int jobs = koika::harness::resolve_jobs(0);
    const int count = bench::scaled(192, 24);
    const uint64_t horizon = bench::scaled<uint64_t>(2'000, 200);
    const koika::Design& d = bench::design("collatz");

    std::printf("Parallel harness bench (%d hardware jobs)\n\n", jobs);

    // Fault campaign: serial vs sharded must agree byte for byte.
    double wall_serial = 0, wall_parallel = 0;
    PhaseSplit phases_serial, phases_parallel;
    koika::fault::CampaignReport serial =
        run_campaign(d, 1, count, horizon, &wall_serial, &phases_serial);
    koika::fault::CampaignReport parallel = run_campaign(
        d, jobs, count, horizon, &wall_parallel, &phases_parallel);
    if (serial.to_json().dump(2) != parallel.to_json().dump(2))
        koika::panic("sharded campaign report differs from serial run");
    if (serial.coverage.to_json().dump(2) !=
        parallel.coverage.to_json().dump(2))
        koika::panic("sharded coverage database differs from serial run");
    uint64_t campaign_cycles = (uint64_t)count * horizon * 2; // golden+faulted
    double speedup = wall_parallel > 0 ? wall_serial / wall_parallel : 0;
    record("parallel/fault-campaign/jobs=1", campaign_cycles, wall_serial,
           1, 1.0, serial.coverage.summary_json(), &phases_serial);
    record("parallel/fault-campaign/jobs=hw", campaign_cycles,
           wall_parallel, jobs, speedup,
           parallel.coverage.summary_json(), &phases_parallel);
    std::printf("fault campaign  %4d injections  serial %.3fs  "
                "jobs=%d %.3fs  speedup %.2fx  reports byte-identical\n",
                count, wall_serial, jobs, wall_parallel, speedup);
    std::printf("  per-phase     jobs=1  setup %.3fs  run %.3fs  "
                "(engine build %.3fs)\n",
                phases_serial.setup, phases_serial.run,
                phases_serial.build);
    std::printf("  (cpu-seconds) jobs=%d setup %.3fs  run %.3fs  "
                "(engine build %.3fs)\n",
                jobs, phases_parallel.setup, phases_parallel.run,
                phases_parallel.build);

    // Repetition sharding: per-worker metric registries, merged at join.
    const uint64_t reps = bench::scaled<uint64_t>(64, 8);
    auto one_rep = [&](const koika::harness::Shard& s) {
        uint64_t rep = s.first;
        koika::obs::MetricsRegistry& reg = *s.metrics;
        auto engine = koika::sim::make_engine(
            d, koika::sim::Tier::kT5StaticAnalysis);
        // Jobs-independent per-rep seed, even though collatz ignores it:
        // the idiom every stochastic repetition shard should follow.
        (void)koika::harness::derive_seed(0xC0FFEE, rep);
        for (uint64_t c = 0; c < horizon; ++c)
            engine->cycle();
        reg.inc("parallel.reps");
        reg.inc("parallel.cycles", horizon);
    };

    koika::obs::MetricsRegistry merged_serial;
    bench::Timer ts;
    koika::harness::parallel_for(reps, 1, one_rep,
                                 {.metrics = &merged_serial});
    double rep_serial = ts.seconds();

    koika::obs::MetricsRegistry merged;
    bench::Timer tp;
    koika::harness::parallel_for(reps, jobs, one_rep, {.metrics = &merged});
    double rep_parallel = tp.seconds();

    if (merged.to_json().dump(2) != merged_serial.to_json().dump(2))
        koika::panic("merged worker metrics differ from serial tally");
    double rep_speedup = rep_parallel > 0 ? rep_serial / rep_parallel : 0;
    record("parallel/repetitions/jobs=1", reps * horizon, rep_serial, 1,
           1.0);
    record("parallel/repetitions/jobs=hw", reps * horizon, rep_parallel,
           jobs, rep_speedup);
    std::printf("repetitions     %4llu runs        serial %.3fs  "
                "jobs=%d %.3fs  speedup %.2fx  metrics identical\n",
                (unsigned long long)reps, rep_serial, jobs, rep_parallel,
                rep_speedup);

    bench::report().write();
    return 0;
}
