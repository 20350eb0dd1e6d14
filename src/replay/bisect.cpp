#include "replay/bisect.hpp"

#include <sstream>

#include "base/error.hpp"

namespace koika::replay {

namespace {

/** Run one cycle plus its boundary actions (stimulus, perturbation). */
void
run_boundary(sim::System& s, uint64_t c,
             const std::function<void(sim::Model&, uint64_t)>& perturb)
{
    s.model->cycle();
    if (s.stimulus)
        s.stimulus(*s.model, c);
    if (perturb)
        perturb(*s.model, c + 1);
}

std::vector<std::string>
fired_names(const sim::Model& m)
{
    std::vector<std::string> names;
    if (const auto* rs =
            dynamic_cast<const sim::RuleStatsModel*>(&m)) {
        const std::vector<bool>& fired = rs->fired();
        for (size_t r = 0; r < fired.size(); ++r)
            if (fired[r])
                names.push_back(rs->rule_name((int)r));
    }
    return names;
}

} // namespace

DivergenceReport
bisect_divergence(const Design& design, const sim::SystemFactory& make_a,
                  const sim::SystemFactory& make_b,
                  const BisectConfig& config)
{
    DivergenceReport rep;
    const size_t nregs = design.num_registers();
    uint64_t stride =
        config.stride != 0
            ? config.stride
            : std::max<uint64_t>(1, config.horizon / 16);

    // -- Scan: lockstep with periodic checkpoints, comparing only at
    // stride boundaries until an interval (lo, hi] disagrees.
    sim::System a = make_a();
    sim::System b = make_b();
    KOIKA_CHECK(a.model->num_regs() == nregs &&
                b.model->num_regs() == nregs);
    sim::SystemState ck_a, ck_b;
    sim::capture(a, ck_a);
    sim::capture(b, ck_b);
    rep.checkpoints += 2;
    uint64_t lo = 0, hi = 0;
    bool bracketed = false;
    for (uint64_t c = 0; c < config.horizon; ++c) {
        run_boundary(a, c, nullptr);
        run_boundary(b, c, config.perturb_b);
        uint64_t done = c + 1;
        if (done % stride != 0 && done != config.horizon)
            continue;
        ++rep.state_compares;
        if (sim::first_difference(*b.model, a.model->snapshot()) >= 0) {
            hi = done;
            bracketed = true;
            break;
        }
        sim::capture(a, ck_a);
        sim::capture(b, ck_b);
        rep.checkpoints += 2;
        lo = done;
    }
    if (!bracketed)
        return rep;

    // -- Bisect: restore a fresh pair from the last agreeing states
    // and replay to the midpoint; each probe halves (lo, hi].
    while (hi - lo > 1) {
        uint64_t mid = lo + (hi - lo) / 2;
        sim::System pa = make_a();
        sim::System pb = make_b();
        sim::restore(pa, ck_a);
        sim::restore(pb, ck_b);
        for (uint64_t c = lo; c < mid; ++c) {
            run_boundary(pa, c, nullptr);
            run_boundary(pb, c, config.perturb_b);
        }
        rep.replayed_cycles += 2 * (mid - lo);
        ++rep.state_compares;
        if (sim::first_difference(*pb.model, pa.model->snapshot()) < 0) {
            sim::capture(pa, ck_a);
            sim::capture(pb, ck_b);
            rep.checkpoints += 2;
            lo = mid;
        } else {
            hi = mid;
        }
    }

    // -- Attribute: replay the single divergent cycle to capture the
    // first disagreeing register and both firing sets.
    sim::System fa = make_a();
    sim::System fb = make_b();
    sim::restore(fa, ck_a);
    sim::restore(fb, ck_b);
    for (uint64_t c = lo; c < hi; ++c) {
        run_boundary(fa, c, nullptr);
        run_boundary(fb, c, config.perturb_b);
    }
    rep.replayed_cycles += 2 * (hi - lo);
    ++rep.state_compares;
    int first_reg = sim::first_difference(*fb.model, fa.model->snapshot());
    KOIKA_CHECK(first_reg >= 0);
    rep.diverged = true;
    rep.cycle = hi;
    rep.reg = first_reg;
    rep.reg_name = design.reg(first_reg).name;
    rep.value_a = fa.model->get_reg(first_reg).str();
    rep.value_b = fb.model->get_reg(first_reg).str();
    rep.fired_a = fired_names(*fa.model);
    rep.fired_b = fired_names(*fb.model);
    return rep;
}

obs::Json
DivergenceReport::to_json() const
{
    obs::Json j = obs::Json::object();
    j["schema"] = "cuttlesim-bisect-v1";
    j["engine_a"] = engine_a;
    j["engine_b"] = engine_b;
    j["diverged"] = diverged;
    if (diverged) {
        j["cycle"] = cycle;
        j["reg"] = (int64_t)reg;
        j["reg_name"] = reg_name;
        j["value_a"] = value_a;
        j["value_b"] = value_b;
        obs::Json fa = obs::Json::array();
        for (const std::string& n : fired_a)
            fa.push_back(n);
        j["fired_a"] = std::move(fa);
        obs::Json fb = obs::Json::array();
        for (const std::string& n : fired_b)
            fb.push_back(n);
        j["fired_b"] = std::move(fb);
    }
    obs::Json effort = obs::Json::object();
    effort["checkpoints"] = checkpoints;
    effort["replayed_cycles"] = replayed_cycles;
    effort["state_compares"] = state_compares;
    j["search"] = std::move(effort);
    return j;
}

std::string
DivergenceReport::to_text() const
{
    std::ostringstream os;
    std::string pair = engine_a.empty() && engine_b.empty()
                           ? std::string("engines")
                           : engine_a + " vs " + engine_b;
    if (!diverged) {
        os << "bisect: " << pair << ": no divergence found\n";
    } else {
        os << "bisect: " << pair << ": first divergence at cycle "
           << cycle << ": register '" << reg_name << "' (index " << reg
           << ")\n"
           << "  " << (engine_a.empty() ? "A" : engine_a) << " = "
           << value_a << ", " << (engine_b.empty() ? "B" : engine_b)
           << " = " << value_b << "\n";
        auto list = [&](const char* label,
                        const std::vector<std::string>& names) {
            os << "  fired(" << label << "):";
            if (names.empty())
                os << " (none)";
            for (const std::string& n : names)
                os << " " << n;
            os << "\n";
        };
        list(engine_a.empty() ? "A" : engine_a.c_str(), fired_a);
        list(engine_b.empty() ? "B" : engine_b.c_str(), fired_b);
    }
    os << "  search: " << checkpoints << " checkpoints, "
       << replayed_cycles << " replayed cycles, " << state_compares
       << " full-state compares\n";
    return os.str();
}

} // namespace koika::replay
