// Hardened-pipeline tests: the run_command watchdog (status decoding,
// timeouts, process-group kills), the transient-only retry policy, and
// the structured Diagnostics carried by FatalError when compilation or
// a generated binary fails.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>

#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include "base/error.hpp"
#include "codegen/compile.hpp"

using namespace koika;
using namespace koika::codegen;

namespace {

std::string
workdir()
{
    static int counter = 0;
    return "/tmp/cuttlesim_compile_test_" + std::to_string(getpid()) +
           "_" + std::to_string(counter++) + ".tmp";
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

TEST(RunCommand, CapturesStdoutAndStderr)
{
    RunResult r = run_command("echo out; echo err >&2");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("out"), std::string::npos);
    EXPECT_NE(r.output.find("err"), std::string::npos);
}

TEST(RunCommand, DecodesExitCode)
{
    RunResult r = run_command("exit 3");
    EXPECT_TRUE(r.exited());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.exit_code, 3);
    EXPECT_EQ(r.term_signal, 0);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.describe(), "exit code 3");
}

TEST(RunCommand, DecodesSignalDeath)
{
    // A SIGSEGV death must report the signal, never a fake exit code.
    RunResult r = run_command("kill -SEGV $$");
    EXPECT_FALSE(r.exited());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.term_signal, SIGSEGV);
    EXPECT_EQ(r.exit_code, -1);
    EXPECT_NE(r.describe().find("killed by signal"), std::string::npos);
}

TEST(RunCommand, WatchdogKillsRunawayCommand)
{
    RunOptions opts;
    opts.timeout_seconds = 0.5;
    auto start = std::chrono::steady_clock::now();
    RunResult r = run_command("sleep 30", opts);
    double elapsed = seconds_since(start);
    EXPECT_TRUE(r.timed_out);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.describe().find("killed by watchdog"),
              std::string::npos);
    // Far below the command's own 30s: the watchdog did the killing.
    EXPECT_LT(elapsed, 10.0);
}

TEST(RunCommand, WatchdogKillsWholeProcessGroup)
{
    // The shell spawns a grandchild holding the pipe's write end; if
    // only the shell were killed, the drain loop would hang for the
    // grandchild's full 30s sleep.
    RunOptions opts;
    opts.timeout_seconds = 0.5;
    auto start = std::chrono::steady_clock::now();
    RunResult r = run_command("sh -c 'sleep 30' & wait", opts);
    double elapsed = seconds_since(start);
    EXPECT_TRUE(r.timed_out);
    EXPECT_LT(elapsed, 10.0);
}

TEST(RunCommand, RetriesTransientSignalDeath)
{
    // First attempt kills itself; the retry finds the marker and
    // succeeds — the transient-failure path (OOM-kill, flaky box).
    std::string marker = workdir();
    RunOptions opts;
    opts.retries = 1;
    opts.backoff_seconds = 0.01;
    RunResult r = run_command("if [ -e " + marker +
                                  " ]; then echo recovered; "
                                  "else touch " +
                                  marker + "; kill -KILL $$; fi",
                              opts);
    unlink(marker.c_str());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.attempts, 2);
    EXPECT_NE(r.output.find("recovered"), std::string::npos);
}

TEST(RunCommand, NeverRetriesDeterministicExit)
{
    // A nonzero exit is deterministic; retrying it only wastes time.
    RunOptions opts;
    opts.retries = 2;
    RunResult r = run_command("exit 1", opts);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.exit_code, 1);
}

TEST(CompileCpp, BadFlagsThrowDiagnosticWithCompilerOutput)
{
    try {
        compile_cpp(workdir(), {{"main.cpp", "int main() { return 0; }"}},
                    "main.cpp", "-fno-such-flag-xyz", {.retries = 0});
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.diagnostic().phase, "compile");
        // The failing command and the compiler's own complaint both
        // travel with the error.
        EXPECT_NE(e.diagnostic().command.find("-fno-such-flag-xyz"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("-fno-such-flag-xyz"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("exit code"),
                  std::string::npos);
    }
}

TEST(CompileCpp, CompilesAndRunsTrivialProgram)
{
    CompileResult cr = compile_cpp(
        workdir(),
        {{"main.cpp",
          "#include <cstdio>\nint main() { std::puts(\"hi\"); }"}},
        "main.cpp", "-O0");
    EXPECT_EQ(cr.attempts, 1);
    std::string out = run_binary(cr.binary, "");
    EXPECT_NE(out.find("hi"), std::string::npos);
}

TEST(RunBinary, InfiniteLoopIsKilledWithinTimeout)
{
    CompileResult cr = compile_cpp(
        workdir(), {{"main.cpp", "int main() { for (;;) {} }"}},
        "main.cpp", "-O0");
    RunOptions opts;
    opts.timeout_seconds = 0.5;
    auto start = std::chrono::steady_clock::now();
    try {
        run_binary(cr.binary, "", opts);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"),
                  std::string::npos);
        EXPECT_EQ(e.diagnostic().phase, "run");
    }
    EXPECT_LT(seconds_since(start), 10.0);
}

TEST(RunBinary, CrashReportsSignalNotExitCode)
{
    CompileResult cr = compile_cpp(
        workdir(),
        {{"main.cpp", "int main() { __builtin_trap(); }"}},
        "main.cpp", "-O0");
    try {
        run_binary(cr.binary, "");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("killed by signal"),
                  std::string::npos);
    }
}

// -- Content-addressed compiled-model cache ----------------------------

#include <fstream>
#include <sstream>

namespace {

std::string
read_whole_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

CompileOptions
cached_opts(const std::string& cache_dir)
{
    CompileOptions opts;
    opts.cache.dir = cache_dir;
    return opts;
}

const std::vector<std::pair<std::string, std::string>> kHello = {
    {"main.cpp",
     "#include <cstdio>\nint main() { std::puts(\"cached hi\"); }"}};

} // namespace

TEST(CompileCache, SecondIdenticalCompileHitsAndReproducesTheBinary)
{
    std::string cache = workdir();
    uint64_t hits0 = compile_metrics().counter("compile.cache_hits");
    uint64_t ext0 =
        compile_metrics().counter("compile.external_compiles");

    CompileResult miss =
        compile_cpp(workdir(), kHello, "main.cpp", "-O0",
                    cached_opts(cache));
    EXPECT_FALSE(miss.cache_hit);
    ASSERT_FALSE(miss.cache_key.empty());

    CompileResult hit =
        compile_cpp(workdir(), kHello, "main.cpp", "-O0",
                    cached_opts(cache));
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.cache_key, miss.cache_key);
    EXPECT_EQ(hit.compile_seconds, 0.0);

    // The hit's binary is byte-identical to the compiled one and runs.
    EXPECT_EQ(read_whole_file(hit.binary), read_whole_file(miss.binary));
    EXPECT_NE(run_binary(hit.binary, "").find("cached hi"),
              std::string::npos);

    // Observable through the metrics registry (compile.cache_hits).
    EXPECT_EQ(compile_metrics().counter("compile.cache_hits"),
              hits0 + 1);
    EXPECT_EQ(compile_metrics().counter("compile.external_compiles"),
              ext0 + 1);
}

TEST(CompileCache, KeyTracksSourcesAndFlags)
{
    std::string cache = workdir();
    CompileResult a = compile_cpp(workdir(), kHello, "main.cpp", "-O0",
                                  cached_opts(cache));
    CompileResult b = compile_cpp(
        workdir(),
        {{"main.cpp",
          "#include <cstdio>\nint main() { std::puts(\"other\"); }"}},
        "main.cpp", "-O0", cached_opts(cache));
    CompileResult c = compile_cpp(workdir(), kHello, "main.cpp", "-O1",
                                  cached_opts(cache));
    EXPECT_NE(a.cache_key, b.cache_key);
    EXPECT_NE(a.cache_key, c.cache_key);
    EXPECT_FALSE(b.cache_hit);
    EXPECT_FALSE(c.cache_hit);
}

TEST(CompileCache, DisabledCacheNeverHitsAndLeavesKeyEmpty)
{
    CompileResult a = compile_cpp(workdir(), kHello, "main.cpp", "-O0");
    EXPECT_FALSE(a.cache_hit);
    EXPECT_TRUE(a.cache_key.empty());
}

TEST(CompileCache, SizeCapEvictsOldestEntries)
{
    std::string cache = workdir();
    CompileOptions opts = cached_opts(cache);
    opts.cache.max_bytes = 1; // every store evicts all older entries
    uint64_t evict0 =
        compile_metrics().counter("compile.cache_evictions");
    compile_cpp(workdir(), kHello, "main.cpp", "-O0", opts);
    compile_cpp(
        workdir(),
        {{"main.cpp",
          "#include <cstdio>\nint main() { std::puts(\"v2\"); }"}},
        "main.cpp", "-O0", opts);
    EXPECT_GT(compile_metrics().counter("compile.cache_evictions"),
              evict0);
}

TEST(RunCommand, TransientRetriesAreCounted)
{
    // Same marker trick as RetriesTransientSignalDeath, but checking
    // the observability side: each transient retry bumps the
    // compile.transient_retries counter (deterministic failures and
    // clean runs must not).
    uint64_t retries0 =
        compile_metrics().counter("compile.transient_retries");
    std::string marker = workdir();
    RunOptions opts;
    opts.retries = 1;
    opts.backoff_seconds = 0.01;
    RunResult r = run_command("if [ -e " + marker +
                                  " ]; then echo recovered; "
                                  "else touch " +
                                  marker + "; kill -KILL $$; fi",
                              opts);
    unlink(marker.c_str());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(compile_metrics().counter("compile.transient_retries"),
              retries0 + 1);

    run_command("exit 1", opts); // deterministic: no retry, no count
    run_command("true", opts);   // clean: no count
    EXPECT_EQ(compile_metrics().counter("compile.transient_retries"),
              retries0 + 1);
}

TEST(CompileCache, StaleStoreTempsAreSweptDuringEviction)
{
    // A process killed mid-store leaves a `*.tmp.*` file behind; the
    // eviction scan reclaims it once it is an hour old, but must leave
    // fresh temps (a store racing right now) alone.
    std::string cache = workdir();
    ASSERT_EQ(mkdir(cache.c_str(), 0755), 0);
    std::string stale = cache + "/deadbeef.bin.tmp.12345.0";
    std::string fresh = cache + "/cafef00d.bin.tmp.12345.1";
    {
        std::ofstream(stale) << "orphaned partial store";
        std::ofstream(fresh) << "in-flight store";
    }
    // Backdate the stale temp past kStaleTempSeconds (one hour).
    struct stat st;
    ASSERT_EQ(stat(stale.c_str(), &st), 0);
    struct utimbuf times;
    times.actime = st.st_atime - 7200;
    times.modtime = st.st_mtime - 7200;
    ASSERT_EQ(utime(stale.c_str(), &times), 0);

    uint64_t swept0 =
        compile_metrics().counter("compile.cache_stale_temps_swept");
    // Any successful store triggers the eviction scan.
    compile_cpp(workdir(), kHello, "main.cpp", "-O0",
                cached_opts(cache));

    EXPECT_EQ(
        compile_metrics().counter("compile.cache_stale_temps_swept"),
        swept0 + 1);
    struct stat st2;
    EXPECT_NE(stat(stale.c_str(), &st2), 0); // swept
    EXPECT_EQ(stat(fresh.c_str(), &st2), 0); // spared
    unlink(fresh.c_str());
}

TEST(CompileCache, FailedCompilesAreNotCached)
{
    std::string cache = workdir();
    auto broken = std::vector<std::pair<std::string, std::string>>{
        {"main.cpp", "int main() { this does not parse; }"}};
    EXPECT_THROW(compile_cpp(workdir(), broken, "main.cpp", "-O0",
                             cached_opts(cache)),
                 koika::FatalError);
    // Same sources again: still a miss (nothing was published).
    uint64_t hits0 = compile_metrics().counter("compile.cache_hits");
    EXPECT_THROW(compile_cpp(workdir(), broken, "main.cpp", "-O0",
                             cached_opts(cache)),
                 koika::FatalError);
    EXPECT_EQ(compile_metrics().counter("compile.cache_hits"), hits0);
}

// -- In-process dlopened models (codegen/dlmodel.hpp): the compile
// pipeline must be a per-thread cost, not a per-trial one. The metrics
// registry exposes cache probes (hits + misses), so we can count them.

#include <thread>

#include "codegen/dlmodel.hpp"
#include "koika/builder.hpp"
#include "koika/typecheck.hpp"
#include "sim/model.hpp"

namespace {

std::unique_ptr<Design>
dl_counter_design()
{
    auto d = std::make_unique<Design>("dl_probe_counter");
    Builder b(*d);
    int x = b.reg("x", 8, 0);
    d->add_rule("inc", b.write0(x, b.add(b.read0(x), b.k(8, 1))));
    d->schedule("inc");
    typecheck(*d);
    return d;
}

uint64_t
cache_probes()
{
    return compile_metrics().counter("compile.cache_hits") +
           compile_metrics().counter("compile.cache_misses");
}

} // namespace

TEST(DlModel, OneCacheProbePerThreadNotPerLoad)
{
    auto d = dl_counter_design();
    DlModelOptions opts;
    opts.cache.dir = workdir();
    opts.workdir = workdir();

    uint64_t probes0 = cache_probes();
    auto m1 = load_compiled_model(*d, opts);
    ASSERT_NE(m1, nullptr);
    // First load on this thread: exactly one probe (a miss — the
    // cache directory is fresh).
    EXPECT_EQ(cache_probes(), probes0 + 1);

    // Second load, same thread, same options: served from the
    // thread-local library map with no cache probe and no compile.
    auto m2 = load_compiled_model(*d, opts);
    ASSERT_NE(m2, nullptr);
    EXPECT_EQ(cache_probes(), probes0 + 1);

    // A different thread (a new pool worker) probes once more — and
    // hits the on-disk cache rather than recompiling.
    uint64_t hits0 = compile_metrics().counter("compile.cache_hits");
    std::thread([&]() {
        auto m3 = load_compiled_model(*d, opts);
        ASSERT_NE(m3, nullptr);
    }).join();
    EXPECT_EQ(cache_probes(), probes0 + 2);
    EXPECT_EQ(compile_metrics().counter("compile.cache_hits"), hits0 + 1);

    // Both handles are live, independent models.
    m1->cycle();
    m1->cycle();
    EXPECT_EQ(m1->cycles_run(), 2u);
    EXPECT_EQ(m2->cycles_run(), 0u);
    EXPECT_EQ(m1->get_reg(0).to_u64(), 2u);
}

TEST(DlModel, StaleBuildIsADiagnostic)
{
    // The headers a model compiles against changed after this binary
    // was built: refuse in the dlopen phase, naming both digests,
    // instead of loading an object whose vtables disagree with ours.
    const std::string built(64, 'a'), on_disk(64, 'b');
    try {
        check_tree_digest("counter", built, on_disk);
        FAIL() << "a digest mismatch was accepted";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.diagnostic().phase, "dlopen");
        EXPECT_EQ(e.diagnostic().design, "counter");
        EXPECT_NE(e.message().find(built), std::string::npos);
        EXPECT_NE(e.message().find(on_disk), std::string::npos);
        EXPECT_NE(e.message().find("rebuild"), std::string::npos);
    }
    EXPECT_NO_THROW(check_tree_digest("counter", built, built));
}

TEST(DlModel, BuiltDigestMatchesTheTree)
{
    // A normal build bakes in the digest of the same files, in the
    // same order, that tree_digest() reads at run time.
    EXPECT_EQ(built_tree_digest().size(), 64u);
    EXPECT_EQ(built_tree_digest(), tree_digest());
}
