/**
 * @file
 * Shared helpers for the benchmark binaries (one binary per paper
 * table/figure; see DESIGN.md's experiment index).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include <dirent.h>

#include "codegen/compile.hpp"
#include "codegen/generated_model.hpp"
#include "designs/designs.hpp"
#include "designs/rv32.hpp"
#include "obs/prof.hpp"
#include "obs/stats.hpp"
#include "riscv/programs.hpp"

namespace bench {

/**
 * Smoke mode (KOIKA_BENCH_SMOKE=1 in the environment): every bench
 * binary shrinks to a seconds-long run — tiny cycle counts, one
 * google-benchmark iteration per case — while still exercising every
 * engine and writing its BENCH_<name>.json. The `bench-smoke` ctest
 * label runs each binary this way and validates the JSON against
 * tools/check_bench_schema.py, so the reporting pipeline can't rot
 * between full benchmark sessions. Numbers produced under smoke mode
 * are NOT meaningful measurements.
 */
inline bool
smoke()
{
    static const bool on = [] {
        const char* env = std::getenv("KOIKA_BENCH_SMOKE");
        return env != nullptr && *env != '\0' && std::string(env) != "0";
    }();
    return on;
}

/** Pick the full-size or smoke-size value for a bench parameter. */
template <typename T>
inline T
scaled(T full, T smoke_value)
{
    return smoke() ? smoke_value : full;
}

/**
 * Clamp a google-benchmark case to one iteration under smoke mode
 * (version-stable; `--benchmark_min_time=...s` only parses on 1.8+).
 * Templated so non-gbench binaries don't need the benchmark header:
 *   bench::smoke_iters(benchmark::RegisterBenchmark(...));
 */
template <typename B>
inline B*
smoke_iters(B* b)
{
    if (smoke())
        b->Iterations(1);
    return b;
}

/**
 * Compile options for benches that invoke the external toolchain
 * (fig3): the content-addressed compiled-model cache is ON by default,
 * so re-running a benchmark session skips the identical model/driver
 * compiles and goes straight to timing the binaries (fig3 times
 * execution, never compilation, so hits don't distort it).
 * KOIKA_BENCH_NO_CACHE=1 opts out, e.g. when the compiler itself is
 * under study.
 */
inline koika::codegen::CompileOptions
cache_options()
{
    koika::codegen::CompileOptions opts;
    const char* env = std::getenv("KOIKA_BENCH_NO_CACHE");
    bool no_cache = env != nullptr && *env != '\0' && std::string(env) != "0";
    opts.cache.dir =
        no_cache ? "" : koika::codegen::default_cache_dir();
    return opts;
}

/**
 * The `host` block of every BENCH_*.json: which machine and toolchain
 * produced the numbers, so bench trajectories are comparable across
 * checkouts and boxes. Fields: compiler (path + --version banner, the
 * same identity the compiled-model cache keys on), hw_concurrency,
 * cache_dir / cache_enabled / cache_entries (warm-cache state explains
 * why fig3's compile column collapsed), and smoke.
 */
inline koika::obs::Json
host_json()
{
    koika::obs::Json h = koika::obs::Json::object();
    h["compiler"] = koika::codegen::compiler_identity_line();
    h["hw_concurrency"] =
        (uint64_t)std::thread::hardware_concurrency();
    std::string cache_dir = cache_options().cache.dir;
    h["cache_enabled"] = !cache_dir.empty();
    h["cache_dir"] = cache_dir;
    uint64_t entries = 0;
    if (!cache_dir.empty()) {
        if (DIR* dir = opendir(cache_dir.c_str())) {
            while (struct dirent* ent = readdir(dir)) {
                std::string name = ent->d_name;
                if (name.size() >= 5 &&
                    name.compare(name.size() - 4, 4, ".bin") == 0)
                    entries++;
            }
            closedir(dir);
        }
    }
    h["cache_entries"] = entries;
    h["smoke"] = smoke();
    return h;
}

/** Default prime-sieve bound for the CPU workload (paper: "a simple
 *  integer arithmetic benchmark"). */
constexpr uint32_t kPrimesBound = 1000;

/** Cached design handles (building a design is pure setup cost). */
inline const koika::Design&
design(const std::string& name)
{
    static std::map<std::string, std::unique_ptr<koika::Design>> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, koika::designs::build_design(name)).first;
    return *it->second;
}

inline const koika::riscv::Program&
primes_program(uint32_t bound = kPrimesBound)
{
    static std::map<uint32_t, koika::riscv::Program> cache;
    auto it = cache.find(bound);
    if (it == cache.end())
        it = cache.emplace(bound, koika::riscv::build_program(
                                      koika::riscv::primes_source(bound)))
                 .first;
    return it->second;
}

/** Run the primes program to completion; returns cycles executed. */
inline uint64_t
run_primes(const koika::Design& d, koika::sim::Model& m, int cores,
           uint32_t bound = kPrimesBound)
{
    koika::designs::Rv32System sys(d, m, primes_program(bound), cores);
    uint64_t cycles = sys.run(100'000'000);
    if (!sys.halted())
        koika::panic("benchmark program did not halt");
    return cycles;
}

/** Wall-clock stopwatch for hand-timed bench sections. */
class Timer
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
};

/**
 * Machine-readable results sink: every bench binary funnels its
 * per-engine SimStats here and writes BENCH_<name>.json next to the
 * text output (schema "cuttlesim-bench-v1"; field-by-field reference
 * in EXPERIMENTS.md, validator in tools/check_bench_schema.py).
 * Entries are keyed by label — re-recording a label (google-benchmark
 * re-runs a function while estimating iteration counts) replaces the
 * earlier entry.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    ~BenchReport()
    {
        if (!written_)
            write();
    }

    void set_name(std::string name) { name_ = std::move(name); }

    void
    add(koika::obs::SimStats stats)
    {
        for (auto& e : entries_) {
            if (e.label == stats.label) {
                e = std::move(stats);
                return;
            }
        }
        entries_.push_back(std::move(stats));
    }

    /**
     * Record a model's activity under `label` (e.g.
     * "fig1/fir/cuttlesim"): per-rule counters via obs::collect_stats
     * plus the timing the caller measured. `cycles` overrides the
     * model's own count when >0 (fresh-model-per-iteration benches
     * time several runs).
     */
    void
    record(const std::string& label, const std::string& engine,
           const koika::sim::Model& model, double wall_seconds,
           uint64_t cycles = 0)
    {
        koika::obs::SimStats s = koika::obs::collect_stats(model);
        s.label = label;
        s.engine = engine;
        s.wall_seconds = wall_seconds;
        if (cycles > 0)
            s.cycles = cycles;
        add(std::move(s));
    }

    /**
     * Bench-authored metrics merged into the report's `metrics` block
     * alongside the per-entry exports and `prof/...` — how bench_e2e
     * publishes its per-workload gauges into the same registry.
     */
    koika::obs::MetricsRegistry&
    user_metrics()
    {
        return user_metrics_;
    }

    void
    write()
    {
        written_ = true;
        koika::obs::Json root = koika::obs::Json::object();
        root["schema"] = std::string("cuttlesim-bench-v1");
        root["bench"] = name_;
        koika::obs::Json arr = koika::obs::Json::array();
        koika::obs::MetricsRegistry metrics;
        for (const koika::obs::SimStats& s : entries_) {
            arr.push_back(s.to_json());
            s.export_to(metrics, s.label);
        }
        metrics.merge_from(user_metrics_);
        root["entries"] = std::move(arr);
        root["host"] = host_json();
        // Where the bench's own wall time went (cuttlesim-prof-v1,
        // embedded): report_init() arms the span profiler, so every
        // BENCH_*.json carries its host-side phase breakdown, mirrored
        // into the metrics registry under "prof/...".
        koika::obs::Profiler& prof = koika::obs::Profiler::instance();
        if (prof.enabled()) {
            auto rep = prof.report();
            root["prof"] = rep.to_json();
            rep.export_to(metrics, "prof");
        }
        root["metrics"] = metrics.to_json();
        std::string path = "BENCH_" + name_ + ".json";
        std::ofstream out(path);
        out << root.dump(2) << "\n";
        std::cerr << "wrote " << path << " (" << entries_.size()
                  << " entries)\n";
    }

  private:
    std::string name_;
    std::vector<koika::obs::SimStats> entries_;
    koika::obs::MetricsRegistry user_metrics_;
    bool written_ = false;
};

/** The binary's report; set up by each bench main via report_init(). */
inline BenchReport&
report()
{
    static BenchReport r("bench");
    return r;
}

inline void
report_init(const std::string& name)
{
    report().set_name(name);
    // Arm the host span profiler so the report's `prof` block is
    // populated. KOIKA_BENCH_NO_PROF=1 opts out.
    const char* env = std::getenv("KOIKA_BENCH_NO_PROF");
    bool no_prof = env != nullptr && *env != '\0' &&
                   std::string(env) != "0";
    if (!no_prof) {
        koika::obs::Profiler::instance().enable();
        koika::obs::Profiler::instance().set_thread_name("main");
    }
}

} // namespace bench
