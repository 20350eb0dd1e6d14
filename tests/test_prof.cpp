// Host span profiler tests (src/obs/prof.hpp): ProfScope nesting and
// busy accounting, idle-span exclusion, same-named thread merging, JSON
// validity of both exporters, and the structure-parity contract (the
// phase set of a sharded run must not depend on the job count).
//
// The Profiler is a process-wide singleton; every test starts with
// arm(), which resets it under the quiescence contract (no pools are
// running between tests — every parallel_for joins before returning).

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "harness/parallel.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

using koika::obs::Json;
using koika::obs::ProfScope;
using koika::obs::Profiler;
using koika::obs::SpanKind;

namespace {

/** Fresh, enabled profiler state (singleton shared across tests). */
void
arm()
{
    Profiler& p = Profiler::instance();
    p.disable();
    p.reset();
    p.enable();
    p.set_thread_name("main");
}

} // namespace

TEST(Prof, DisabledScopesRecordNothing)
{
    Profiler& p = Profiler::instance();
    p.disable();
    p.reset();
    {
        ProfScope outer("never/recorded");
        ProfScope inner("never/nested");
    }
    Profiler::Report rep = p.report();
    EXPECT_EQ(rep.phases.count("never/recorded"), 0u);
    EXPECT_EQ(rep.phases.count("never/nested"), 0u);
    EXPECT_EQ(p.busy_seconds(), 0.0);
}

TEST(Prof, NestedScopesDepthAndBusyAccounting)
{
    arm();
    {
        ProfScope outer("outer");
        {
            ProfScope inner("inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    Profiler& p = Profiler::instance();
    Profiler::Report rep = p.report();
    ASSERT_EQ(rep.phases.count("outer"), 1u);
    ASSERT_EQ(rep.phases.count("inner"), 1u);
    EXPECT_EQ(rep.phases["outer"].count, 1u);
    EXPECT_EQ(rep.phases["inner"].count, 1u);
    double outer_total = rep.phases["outer"].total_seconds;
    double inner_total = rep.phases["inner"].total_seconds;
    EXPECT_GE(outer_total, inner_total);
    EXPECT_GT(inner_total, 0.0);
    // Only the depth-0 span counts as busy — nesting never
    // double-counts utilization.
    EXPECT_DOUBLE_EQ(p.busy_seconds(), outer_total);
    EXPECT_DOUBLE_EQ(p.phase_total_seconds("outer"), outer_total);
    // The recording thread is the sole worker, named by arm().
    ASSERT_EQ(rep.workers.size(), 1u);
    EXPECT_EQ(rep.workers[0].name, "main");
    EXPECT_EQ(rep.workers[0].spans, 2u);
    EXPECT_DOUBLE_EQ(rep.workers[0].busy_seconds, outer_total);
}

TEST(Prof, IdleSpansExcludedFromPhaseTable)
{
    arm();
    {
        ProfScope wait("pool/wait", SpanKind::kIdle);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Profiler::Report rep = Profiler::instance().report();
    EXPECT_EQ(rep.phases.count("pool/wait"), 0u)
        << "idle spans must not create phases (their presence would "
           "make the report structure depend on --jobs)";
    ASSERT_EQ(rep.workers.size(), 1u);
    EXPECT_EQ(rep.workers[0].spans, 1u);
    EXPECT_GT(rep.workers[0].wait_seconds, 0.0);
    EXPECT_EQ(Profiler::instance().busy_seconds(), 0.0);
}

TEST(Prof, EarlyCloseIsIdempotent)
{
    arm();
    ProfScope span("closed/early");
    span.close();
    span.close();
    Profiler::Report rep = Profiler::instance().report();
    ASSERT_EQ(rep.phases.count("closed/early"), 1u);
    EXPECT_EQ(rep.phases["closed/early"].count, 1u);
}

TEST(Prof, SameNamedThreadGenerationsMergeSorted)
{
    arm();
    // Two pool "generations" reusing one logical lane name, plus a
    // second distinct lane — the report must show exactly two workers
    // beyond main, sorted, with the generations folded together.
    for (int gen = 0; gen < 2; ++gen) {
        std::thread t([] {
            Profiler::instance().set_thread_name("worker-007");
            ProfScope s("gen/work");
        });
        t.join();
    }
    std::thread u([] {
        Profiler::instance().set_thread_name("worker-001");
        ProfScope s("gen/work");
    });
    u.join();

    Profiler::Report rep = Profiler::instance().report();
    ASSERT_EQ(rep.phases.count("gen/work"), 1u);
    EXPECT_EQ(rep.phases["gen/work"].count, 3u);
    int hits = 0;
    for (const Profiler::WorkerStats& w : rep.workers) {
        if (w.name == "worker-007") {
            ++hits;
            EXPECT_EQ(w.spans, 2u);
        }
    }
    EXPECT_EQ(hits, 1) << "same-named generations must merge";
    for (size_t i = 1; i < rep.workers.size(); ++i)
        EXPECT_LT(rep.workers[i - 1].name, rep.workers[i].name);
}

TEST(Prof, ReportAndTraceJsonRoundTrip)
{
    arm();
    const char* weird =
        Profiler::instance().intern("we\"ird\\phase\nname");
    {
        ProfScope s(weird);
        ProfScope t("plain/phase");
    }
    Profiler& p = Profiler::instance();

    Json rep = Json::parse(p.report().to_json().dump(2));
    const Json* schema = rep.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->as_string(), "cuttlesim-prof-v1");
    const Json* phases = rep.find("phases");
    ASSERT_NE(phases, nullptr);
    EXPECT_NE(phases->find("we\"ird\\phase\nname"), nullptr)
        << "escaped phase name lost in the report";
    const Json* pool = rep.find("pool");
    ASSERT_NE(pool, nullptr);
    const Json* jutil = pool->find("utilization");
    ASSERT_NE(jutil, nullptr);
    double util = jutil->as_double();
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);

    Json trace = Json::parse(p.trace_json()); // throws if malformed
    const Json* events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    bool main_lane = false, weird_slice = false;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json* name = events->at(i).find("name");
        if (name != nullptr &&
            name->as_string() == "we\"ird\\phase\nname")
            weird_slice = true;
        const Json* args = events->at(i).find("args");
        if (args != nullptr && args->find("name") != nullptr &&
            args->find("name")->as_string() == "main")
            main_lane = true;
    }
    EXPECT_TRUE(main_lane);
    EXPECT_TRUE(weird_slice);
}

TEST(Prof, ExportToMetricsRegistry)
{
    arm();
    {
        ProfScope s("export/phase");
    }
    koika::obs::MetricsRegistry reg;
    Profiler::instance().report().export_to(reg, "prof");
    std::string dump = reg.to_json().dump();
    EXPECT_NE(dump.find("prof/phase/export/phase/count"),
              std::string::npos);
    EXPECT_NE(dump.find("prof/pool/utilization"), std::string::npos);
    EXPECT_NE(dump.find("prof/wall_seconds"), std::string::npos);
}

namespace {

/** The phase key set after a sharded run at `jobs` workers. */
std::set<std::string>
phase_keys(int jobs)
{
    arm();
    koika::harness::parallel_for(8, jobs,
                                 [](const koika::harness::Shard&) {
                                     ProfScope s("trial/run");
                                     ProfScope nested("trial/setup");
                                 });
    Profiler::Report rep = Profiler::instance().report();
    std::set<std::string> keys;
    for (const auto& [name, ph] : rep.phases)
        keys.insert(name);
    return keys;
}

} // namespace

TEST(Prof, PhaseSetIsIndependentOfJobCount)
{
    std::set<std::string> serial = phase_keys(1);
    std::set<std::string> sharded = phase_keys(4);
    EXPECT_EQ(serial, sharded)
        << "report structure must be identical at any --jobs";
    // Both paths route items through the pool's per-item span; queue
    // waits are kIdle and must not have leaked in as phases.
    EXPECT_EQ(serial.count("pool/item"), 1u);
    EXPECT_EQ(serial.count("trial/run"), 1u);
    EXPECT_EQ(serial.count("pool/wait"), 0u);
}
