#include "fault/fault.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "base/io.hpp"
#include "base/signal.hpp"
#include "harness/parallel.hpp"
#include "obs/prof.hpp"

namespace koika::fault {

namespace {

constexpr const char* kFaultCkptSchema = "cuttlesim-fault-ckpt-v1";

/**
 * Bounded draw via modulo. Deliberately not uniform_int_distribution:
 * its mapping is implementation-defined, and campaign reports must be
 * reproducible from the seed alone, everywhere.
 */
uint64_t
draw(std::mt19937_64& rng, uint64_t n)
{
    return n == 0 ? 0 : rng() % n;
}

} // namespace

obs::Json
injection_to_json(size_t index, const InjectionRecord& r)
{
    obs::Json e = obs::Json::object();
    e["index"] = (uint64_t)index;
    e["cycle"] = r.spec.cycle;
    e["reg"] = (int64_t)r.spec.reg;
    e["reg_name"] = r.reg_name;
    e["bit"] = (uint64_t)r.spec.bit;
    e["kind"] = fault_kind_name(r.spec.kind);
    if (r.spec.kind != FaultKind::kBitFlip)
        e["stuck_cycles"] = r.spec.stuck_cycles;
    e["outcome"] = outcome_name(r.outcome);
    e["diverged"] = r.diverged;
    if (r.diverged) {
        e["first_divergence_cycle"] = r.first_divergence_cycle;
        e["first_divergence_reg"] = (int64_t)r.first_divergence_reg;
    }
    e["detected"] = r.detected;
    if (r.detected) {
        e["detect_cycle"] = r.detect_cycle;
        e["detect_detail"] = r.detect_detail;
    }
    e["final_state_matches"] = r.final_state_matches;
    return e;
}

namespace {

const obs::Json&
jfield(const obs::Json& j, const char* key)
{
    const obs::Json* v = j.find(key);
    if (v == nullptr)
        fatal("fault checkpoint: missing field '%s'", key);
    return *v;
}

} // namespace

InjectionRecord
injection_from_json(const obs::Json& e)
{
    InjectionRecord r;
    r.spec.cycle = jfield(e, "cycle").as_u64();
    r.spec.reg = (int)jfield(e, "reg").as_int();
    r.reg_name = jfield(e, "reg_name").as_string();
    r.spec.bit = (uint32_t)jfield(e, "bit").as_u64();
    std::string kind = jfield(e, "kind").as_string();
    int k = 0;
    while (k < kNumFaultKinds && kind != fault_kind_name((FaultKind)k))
        ++k;
    if (k == kNumFaultKinds)
        fatal("injection record: unknown fault kind '%s'", kind.c_str());
    r.spec.kind = (FaultKind)k;
    if (const obs::Json* sc = e.find("stuck_cycles"))
        r.spec.stuck_cycles = sc->as_u64();
    std::string outcome = jfield(e, "outcome").as_string();
    int o = 0;
    while (o < 3 && outcome != outcome_name((Outcome)o))
        ++o;
    if (o == 3)
        fatal("injection record: unknown outcome '%s'", outcome.c_str());
    r.outcome = (Outcome)o;
    r.diverged = jfield(e, "diverged").as_bool();
    if (r.diverged) {
        r.first_divergence_cycle =
            jfield(e, "first_divergence_cycle").as_u64();
        r.first_divergence_reg =
            (int)jfield(e, "first_divergence_reg").as_int();
    }
    r.detected = jfield(e, "detected").as_bool();
    if (r.detected) {
        r.detect_cycle = jfield(e, "detect_cycle").as_u64();
        r.detect_detail = jfield(e, "detect_detail").as_string();
    }
    r.final_state_matches = jfield(e, "final_state_matches").as_bool();
    return r;
}

obs::Json
campaign_config_echo(const CampaignConfig& config)
{
    obs::Json cfg = obs::Json::object();
    cfg["seed"] = config.seed;
    cfg["count"] = (int64_t)config.count;
    cfg["cycles"] = config.cycles;
    cfg["stuck_at"] = config.stuck_at;
    cfg["max_stuck_cycles"] = config.max_stuck_cycles;
    return cfg;
}

namespace {

/** Write campaign progress (completed prefix) atomically. */
void
save_progress(const std::string& path, const std::string& design,
              const CampaignConfig& config,
              const std::vector<InjectionRecord>& records,
              size_t completed, const obs::CoverageMap* coverage)
{
    obs::Json j = obs::Json::object();
    j["schema"] = kFaultCkptSchema;
    j["design"] = design;
    j["config"] = campaign_config_echo(config);
    j["completed"] = (uint64_t)completed;
    obs::Json list = obs::Json::array();
    for (size_t i = 0; i < completed; ++i)
        list.push_back(injection_to_json(i, records[i]));
    j["injections"] = std::move(list);
    if (coverage != nullptr)
        j["coverage"] = coverage->to_json();
    write_file_atomic(path, j.dump(2) + "\n");
}

/**
 * Load campaign progress. Returns the number of completed injections
 * (0 when the file does not exist), filling the record prefix and
 * merged coverage. FatalError when the file exists but describes a
 * different campaign — resuming someone else's progress would produce
 * a silently wrong report.
 */
size_t
load_progress(const std::string& path, const std::string& design,
              const CampaignConfig& config,
              std::vector<InjectionRecord>& records,
              obs::CoverageMap* coverage)
{
    if (!std::ifstream(path))
        return 0;
    obs::Json j = obs::Json::parse(read_file(path));
    if (jfield(j, "schema").as_string() != kFaultCkptSchema)
        fatal("fault checkpoint '%s': not a %s file", path.c_str(),
              kFaultCkptSchema);
    if (jfield(j, "design").as_string() != design ||
        jfield(j, "config").dump() != campaign_config_echo(config).dump())
        fatal("fault checkpoint '%s' was written by a different "
              "campaign (design or config mismatch); delete it or "
              "match the original flags",
              path.c_str());
    size_t completed = (size_t)jfield(j, "completed").as_u64();
    const obs::Json& list = jfield(j, "injections");
    if (completed > records.size() || list.size() != completed)
        fatal("fault checkpoint '%s': completed count does not match "
              "its records",
              path.c_str());
    for (size_t i = 0; i < completed; ++i)
        records[i] = injection_from_json(list.at(i));
    if (coverage != nullptr) {
        const obs::Json* cov = j.find("coverage");
        if (cov == nullptr)
            fatal("fault checkpoint '%s' has no coverage section but "
                  "this campaign collects coverage; delete it to "
                  "restart",
                  path.c_str());
        coverage->merge(obs::CoverageMap::from_json(*cov));
    }
    return completed;
}

} // namespace

const char*
fault_kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kBitFlip: return "bit_flip";
      case FaultKind::kStuckAt0: return "stuck_at_0";
      case FaultKind::kStuckAt1: return "stuck_at_1";
    }
    return "?";
}

const char*
outcome_name(Outcome outcome)
{
    switch (outcome) {
      case Outcome::kMasked: return "masked";
      case Outcome::kSilentDataCorruption: return "sdc";
      case Outcome::kDetected: return "detected";
    }
    return "?";
}

std::vector<FaultSpec>
generate_faults(const Design& design, const CampaignConfig& config)
{
    std::vector<int> eligible = config.target_regs;
    if (eligible.empty())
        for (size_t r = 0; r < design.num_registers(); ++r)
            if (design.reg((int)r).type->width > 0)
                eligible.push_back((int)r);
    if (eligible.empty())
        fatal("fault campaign on design '%s': no register is wide "
              "enough to inject into",
              design.name().c_str());
    if (config.cycles < 2)
        fatal("fault campaign needs a horizon of at least 2 cycles");

    std::mt19937_64 rng(config.seed);
    std::vector<FaultSpec> faults;
    faults.reserve((size_t)config.count);
    for (int i = 0; i < config.count; ++i) {
        FaultSpec spec;
        // Leave at least one cycle after the injection so the fault has
        // a chance to propagate (or be masked).
        spec.cycle = draw(rng, config.cycles - 1);
        spec.reg = eligible[(size_t)draw(rng, eligible.size())];
        spec.bit =
            (uint32_t)draw(rng, design.reg(spec.reg).type->width);
        spec.kind = config.stuck_at
                        ? (FaultKind)draw(rng, (uint64_t)kNumFaultKinds)
                        : FaultKind::kBitFlip;
        spec.stuck_cycles =
            spec.kind == FaultKind::kBitFlip
                ? 1
                : 1 + draw(rng, config.max_stuck_cycles);
        faults.push_back(spec);
    }
    return faults;
}

// -- TrialContext ------------------------------------------------------------

TrialContext::TrialContext(const sim::SystemFactory& factory)
    : factory_(factory)
{
    // The per-worker golden build (and snapshot) is still setup work —
    // it just happens once per worker now instead of once per trial.
    obs::ProfScope setup_span("trial/setup");
    golden_ = factory_();
    golden_live_ = true;
    ++rebuilds_;
    warm_ = sim::restorable(golden_);
    // Captured before the golden ever steps.
    if (warm_)
        sim::capture(golden_, pristine_);
}

sim::System&
TrialContext::golden()
{
    if (!golden_live_ || (golden_dirty_ && !warm_)) {
        golden_ = factory_();
        golden_live_ = true;
        ++rebuilds_;
    } else if (golden_dirty_) {
        KOIKA_CHECK(sim::restore(golden_, pristine_));
        ++restores_;
    }
    golden_dirty_ = true;
    return golden_;
}

sim::System
TrialContext::acquire()
{
    if (warm_ && !spares_.empty()) {
        sim::System target = std::move(spares_.back());
        spares_.pop_back();
        KOIKA_CHECK(sim::restore(target, pristine_));
        ++restores_;
        return target;
    }
    ++rebuilds_;
    return factory_();
}

sim::System
TrialContext::acquire_unrestored()
{
    if (warm_ && !spares_.empty()) {
        sim::System target = std::move(spares_.back());
        spares_.pop_back();
        return target;
    }
    ++rebuilds_;
    return factory_();
}

void
TrialContext::release(sim::System&& target, bool healthy)
{
    if (warm_ && healthy)
        spares_.push_back(std::move(target));
    // Unhealthy (or cold) targets are destroyed here: an engine that
    // threw mid-cycle may hold torn internal state no restore can fix.
}

void
TrialContext::poison()
{
    golden_ = sim::System{};
    golden_live_ = false;
    golden_dirty_ = false;
    spares_.clear();
}

bool
run_injection_range(const Design& design, const sim::SystemFactory& factory,
                    const std::vector<FaultSpec>& faults, size_t first,
                    size_t count, uint64_t cycles, int jobs, int batch,
                    InjectionRecord* records, obs::CoverageMap* coverage,
                    const std::function<void(uint64_t, uint64_t)>& before_item)
{
    // One pool item per group of `batch` consecutive trials, run as
    // lanes beside the worker's warm golden (a group of one is a lone
    // lane from cycle 0). before_item sees the whole group, so a chaos
    // crash aimed at injection i fires whichever group i lands in.
    std::atomic<bool> interrupted{false};
    harness::ParallelOptions options;
    options.group = batch > 1 ? (uint64_t)batch : 1;
    options.context = [&factory](int) {
        return std::make_unique<TrialContext>(factory);
    };
    harness::parallel_for(
        (uint64_t)count, jobs,
        [&](const harness::Shard& s) {
            if (shutdown_requested()) {
                interrupted.store(true);
                return;
            }
            if (before_item)
                before_item(s.first, s.count);
            run_injection_batch(design,
                                static_cast<TrialContext&>(*s.context),
                                &faults[first + s.first], (size_t)s.count,
                                cycles, &records[s.first],
                                coverage ? &coverage[s.first] : nullptr);
        },
        options);
    return !interrupted.load();
}

CampaignReport
run_campaign(const Design& design, const sim::SystemFactory& factory,
             const CampaignConfig& config)
{
    CampaignReport report;
    report.design = design.name();
    report.config = config;

    // The entire fault list is drawn from the campaign seed before any
    // injection runs, so sharding the (independent) injections across
    // workers cannot change what gets injected; writing each record
    // into its own slot keeps the report order identical to a serial
    // run. Outcome tallying happens after the join, in list order.
    obs::ProfScope gen_span("campaign/generate-faults");
    std::vector<FaultSpec> faults = generate_faults(design, config);
    gen_span.close();
    report.injections.resize(faults.size());
    if (config.collect_coverage) {
        report.coverage = obs::CoverageMap::for_design(design);
        report.has_coverage = true;
    }

    // Resume a checkpointed campaign: the completed prefix of records
    // (and its merged coverage) comes straight from the progress file,
    // and only the remaining injections actually run. Coverage merge
    // is associative addition, so prefix-from-file + suffix-run equals
    // an uninterrupted run byte for byte.
    size_t completed = 0;
    if (!config.checkpoint_file.empty())
        completed = load_progress(
            config.checkpoint_file, report.design, config,
            report.injections,
            config.collect_coverage ? &report.coverage : nullptr);
    report.resumed = completed;

    size_t chunk = config.checkpoint_file.empty()
                       ? faults.size()
                       : (size_t)std::max(config.checkpoint_every, 1);
    std::vector<obs::CoverageMap> shard_cov;
    if (config.collect_coverage)
        shard_cov.resize(faults.size());

    // Heartbeat: one monitor thread repaints a stderr status line about
    // once a second. It reads two atomics (completed count, profiler
    // busy aggregate) and never touches campaign state, so the report
    // stays byte-identical with or without it.
    std::atomic<uint64_t> done{(uint64_t)completed};
    std::atomic<bool> stop_monitor{false};
    bool monitor_printed = false;
    std::thread monitor;
    if (config.progress) {
        uint64_t total = (uint64_t)faults.size();
        int jobs = harness::resolve_jobs(config.jobs);
        monitor = std::thread([&done, &stop_monitor, &monitor_printed,
                               total, jobs] {
            obs::Profiler& prof = obs::Profiler::instance();
            auto start = std::chrono::steady_clock::now();
            uint64_t first = done.load(std::memory_order_relaxed);
            double prev_busy = prof.busy_seconds();
            auto prev_t = start;
            while (!stop_monitor.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
                auto now = std::chrono::steady_clock::now();
                if (now - prev_t < std::chrono::milliseconds(900))
                    continue;
                double elapsed =
                    std::chrono::duration<double>(now - start).count();
                double interval =
                    std::chrono::duration<double>(now - prev_t).count();
                prev_t = now;
                uint64_t d = done.load(std::memory_order_relaxed);
                double rate =
                    elapsed > 0 ? (double)(d - first) / elapsed : 0;
                char line[160];
                int len = std::snprintf(
                    line, sizeof line,
                    "\rfault campaign: %llu/%llu injections",
                    (unsigned long long)d, (unsigned long long)total);
                if (rate > 0) {
                    len += std::snprintf(
                        line + len, sizeof line - (size_t)len,
                        "  %.1f/s  ETA %.0fs", rate,
                        (double)(total - d) / rate);
                }
                if (prof.enabled() && jobs > 0 && interval > 0) {
                    double busy = prof.busy_seconds();
                    double util = (busy - prev_busy) /
                                  (interval * (double)jobs);
                    prev_busy = busy;
                    len += std::snprintf(
                        line + len, sizeof line - (size_t)len,
                        "  workers %.0f%% busy",
                        100.0 * std::min(1.0, std::max(0.0, util)));
                }
                std::fprintf(stderr, "%-79s", line);
                std::fflush(stderr);
                monitor_printed = true;
            }
        });
    }

    auto stop_heartbeat = [&] {
        if (!monitor.joinable())
            return;
        stop_monitor.store(true, std::memory_order_relaxed);
        monitor.join();
        if (monitor_printed)
            std::fprintf(stderr, "\n");
    };

    // The heartbeat counts injections as their pool item starts.
    auto count_started = [&done](uint64_t, uint64_t n) {
        done.fetch_add(n, std::memory_order_relaxed);
    };
    try {
        while (completed < faults.size()) {
            size_t end = std::min(completed + chunk, faults.size());
            // Each pool worker carries one warm TrialContext for the
            // whole chunk: the golden/faulted pair is built (and, for
            // compiled engines, the cache probed) once per worker, and
            // every later trial restores the pristine cycle-0 snapshot
            // in place. Restore reproduces construction exactly, so the
            // records and coverage stay byte-identical to --jobs=1.
            // Graceful shutdown discards the interrupted chunk: progress
            // up to its start is already flushed to the checkpoint file,
            // so the campaign resumes exactly there.
            if (!run_injection_range(
                    design, factory, faults, completed, end - completed,
                    config.cycles, config.jobs, config.batch,
                    &report.injections[completed],
                    config.collect_coverage ? &shard_cov[completed]
                                            : nullptr,
                    count_started)) {
                report.interrupted = true;
                break;
            }
            // Fold per-injection maps in fault-list order after the
            // join; merge() is commutative addition, so the database
            // matches a serial run byte for byte at any job count.
            if (config.collect_coverage) {
                obs::ProfScope merge_span("campaign/merge");
                for (size_t i = completed; i < end; ++i)
                    report.coverage.merge(shard_cov[i]);
            }
            completed = end;
            if (!config.checkpoint_file.empty()) {
                obs::ProfScope save_span("campaign/progress-save");
                save_progress(config.checkpoint_file, report.design,
                              config, report.injections, completed,
                              config.collect_coverage ? &report.coverage
                                                      : nullptr);
            }
        }
    } catch (...) {
        stop_heartbeat();
        throw;
    }
    stop_heartbeat();
    for (const InjectionRecord& rec : report.injections) {
        switch (rec.outcome) {
          case Outcome::kMasked: report.masked++; break;
          case Outcome::kSilentDataCorruption: report.sdc++; break;
          case Outcome::kDetected: report.detected++; break;
        }
    }
    return report;
}

obs::Json
CampaignReport::to_json() const
{
    obs::Json j = obs::Json::object();
    j["design"] = design;
    j["engine"] = engine;
    if (!config.label.empty())
        j["label"] = config.label;

    j["config"] = campaign_config_echo(config);

    obs::Json summary = obs::Json::object();
    summary["injections"] = (uint64_t)injections.size();
    summary["masked"] = masked;
    summary["sdc"] = sdc;
    summary["detected"] = detected;
    j["summary"] = std::move(summary);

    obs::Json list = obs::Json::array();
    for (size_t i = 0; i < injections.size(); ++i)
        list.push_back(injection_to_json(i, injections[i]));
    j["injections"] = std::move(list);
    return j;
}

std::string
CampaignReport::to_text() const
{
    std::ostringstream os;
    uint64_t total = (uint64_t)injections.size();
    os << "fault campaign: design " << design;
    if (!engine.empty())
        os << ", engine " << engine;
    os << ", seed " << config.seed << ", " << total << " injections, "
       << config.cycles << "-cycle horizon\n";
    auto line = [&](const char* name, uint64_t n) {
        double pct = total ? 100.0 * (double)n / (double)total : 0.0;
        char buf[96];
        std::snprintf(buf, sizeof buf, "  %-10s %6lu  (%5.1f%%)\n",
                      name, (unsigned long)n, pct);
        os << buf;
    };
    line("masked", masked);
    line("sdc", sdc);
    line("detected", detected);
    return os.str();
}

void
CampaignReport::export_to(obs::MetricsRegistry& registry,
                          const std::string& prefix) const
{
    registry.inc(prefix + "/injections", (uint64_t)injections.size());
    registry.inc(prefix + "/outcome/masked", masked);
    registry.inc(prefix + "/outcome/sdc", sdc);
    registry.inc(prefix + "/outcome/detected", detected);
    for (const InjectionRecord& r : injections)
        registry.inc(prefix + "/kind/" + fault_kind_name(r.spec.kind) +
                     "/" + outcome_name(r.outcome));
}

sim::SystemFactory
closed_target(
    const std::function<std::unique_ptr<sim::Model>()>& make_model)
{
    return [make_model]() {
        sim::System t;
        t.model = make_model();
        return t;
    };
}

obs::MetricsRegistry
campaign_metrics(const CampaignReport& report)
{
    obs::MetricsRegistry metrics;
    report.export_to(metrics, "fault/" + report.design);
    return metrics;
}

obs::Json
campaign_report_json(const CampaignReport& report,
                     const obs::MetricsRegistry& metrics)
{
    obs::Json j = report.to_json();
    j["metrics"] = metrics.to_json();
    if (report.has_coverage)
        j["coverage"] = report.coverage.summary_json();
    return j;
}

} // namespace koika::fault
