/**
 * @file
 * Model adapter for Cuttlesim-generated classes.
 *
 * Generated models are plain classes with no virtual calls (the C++
 * compiler must be free to inline across rules, §3). This template wraps
 * one in the harness-facing sim::Model interface, translating between the
 * model's flat word representation and koika::Bits, and passes the
 * emitted all-register pack/unpack through as sim::FlatRegsModel.
 *
 * The adapter implements sim::RuleStatsModel, so harness and
 * observability tooling (src/obs/) works identically on compiled and
 * interpreted engines. Which counters are available depends on how the
 * model was emitted, detected at compile time from the class shape:
 * commit/abort counts and the fired set need `counters` (the default),
 * abort-reason attribution needs `cuttlec --instrument`. Absent counters
 * surface as empty vectors, matching the RuleStatsModel contract.
 */
#pragma once

#include <string>
#include <vector>

#include "sim/model.hpp"
#include "sim/state.hpp"

namespace koika::codegen {

template <typename M>
class GeneratedModel final : public sim::RuleStatsModel,
                             public sim::CoverageModel,
                             public sim::CheckpointableModel,
                             public sim::FlatRegsModel
{
    // RTL netlist models expose no rule structure at all; Cuttlesim
    // models always have kNumRules/kRuleNames, counters unless emitted
    // with --no-counters, and abort reasons plus coverage arrays only
    // with --instrument.
    static constexpr bool kHasRules = requires { M::kNumRules; };
    static constexpr bool kHasCounters = requires(const M& m) {
        m.commit_count[0];
        m.abort_count[0];
        m.last_fired[0];
    };
    static constexpr bool kHasAbortReasons = requires(const M& m) {
        m.abort_reason_count[0];
    };
    static constexpr bool kHasCoverage = requires(const M& m) {
        M::kNumNodes;
        m.stmt_count[0];
        m.branch_taken_count[0];
        m.branch_not_taken_count[0];
    };

    static constexpr size_t
    static_num_rules()
    {
        if constexpr (kHasRules)
            return M::kNumRules;
        else
            return 0;
    }

    static constexpr size_t kNumReasonSlots =
        static_num_rules() * (size_t)sim::kNumAbortReasons;

    /** An array's length prefix, which must be `want`: the reads that
     *  follow copy straight into impl_'s fixed-size arrays. */
    static uint64_t
    read_length(sim::StateReader& r, const char* section, size_t want)
    {
        uint64_t n = r.get_u64();
        if (n != want)
            fatal("compiled model state: section '%s' holds %llu "
                  "entries, the model has %zu",
                  section, (unsigned long long)n, want);
        return n;
    }

  public:
    M& impl() { return impl_; }
    const M& impl() const { return impl_; }

    void cycle() override { impl_.cycle(); }

    Bits
    get_reg(int reg) const override
    {
        uint64_t words[8];
        impl_.get_reg_words((size_t)reg, words);
        return Bits::of_words(M::kRegWidths[(size_t)reg], words, 8);
    }

    void
    set_reg(int reg, const Bits& value) override
    {
        KOIKA_CHECK(value.width() == M::kRegWidths[(size_t)reg]);
        uint64_t words[8];
        for (uint32_t i = 0; i < 8; ++i)
            words[i] = value.word(i);
        impl_.set_reg_words((size_t)reg, words);
    }

    uint64_t cycles_run() const override { return impl_.cycles; }
    size_t num_regs() const override { return M::kNumRegs; }

    // -- FlatRegsModel ------------------------------------------------------
    // Both emitters (cpp_emit, rtl_emit) generate the straight-line pair.
    size_t num_reg_words() const override { return M::kNumRegWords; }
    void pack_regs(uint64_t* out) const override { impl_.pack_regs(out); }
    void unpack_regs(const uint64_t* in) override { impl_.unpack_regs(in); }

    // -- RuleStatsModel -----------------------------------------------------
    // Rules are indexed by schedule position (the generated counters'
    // native order); compare against interpreter counters via
    // rule_name(), not raw indices.
    size_t num_rules() const override { return static_num_rules(); }

    std::string
    rule_name(int rule) const override
    {
        if constexpr (static_num_rules() > 0)
            return M::kRuleNames[(size_t)rule];
        (void)rule;
        return {};
    }

    const std::vector<bool>&
    fired() const override
    {
        fired_.clear();
        if constexpr (kHasCounters)
            fired_.assign(impl_.last_fired,
                          impl_.last_fired + static_num_rules());
        return fired_;
    }

    const std::vector<uint64_t>&
    rule_commit_counts() const override
    {
        commits_.clear();
        if constexpr (kHasCounters)
            commits_.assign(impl_.commit_count,
                            impl_.commit_count + static_num_rules());
        return commits_;
    }

    const std::vector<uint64_t>&
    rule_abort_counts() const override
    {
        aborts_.clear();
        if constexpr (kHasCounters)
            aborts_.assign(impl_.abort_count,
                           impl_.abort_count + static_num_rules());
        return aborts_;
    }

    const std::vector<uint64_t>&
    rule_abort_reason_counts() const override
    {
        reasons_.clear();
        if constexpr (kHasAbortReasons)
            reasons_.assign(impl_.abort_reason_count,
                            impl_.abort_reason_count +
                                static_num_rules() *
                                    (size_t)sim::kNumAbortReasons);
        return reasons_;
    }

    // -- CoverageModel ------------------------------------------------------
    // Coverage-instrumented models count unconditionally (the arrays
    // are compiled in), so enabling is a no-op; models emitted without
    // coverage return empty vectors per the CoverageModel contract.
    void enable_coverage() override {}

    size_t
    num_nodes() const override
    {
        if constexpr (kHasCoverage)
            return M::kNumNodes;
        else
            return 0;
    }

    const std::vector<uint64_t>&
    stmt_counts() const override
    {
        stmt_.clear();
        if constexpr (kHasCoverage)
            stmt_.assign(impl_.stmt_count,
                         impl_.stmt_count + M::kNumNodes);
        return stmt_;
    }

    const std::vector<uint64_t>&
    branch_taken_counts() const override
    {
        taken_.clear();
        if constexpr (kHasCoverage)
            taken_.assign(impl_.branch_taken_count,
                          impl_.branch_taken_count + M::kNumNodes);
        return taken_;
    }

    const std::vector<uint64_t>&
    branch_not_taken_counts() const override
    {
        not_taken_.clear();
        if constexpr (kHasCoverage)
            not_taken_.assign(impl_.branch_not_taken_count,
                              impl_.branch_not_taken_count + M::kNumNodes);
        return not_taken_;
    }

    // -- CheckpointableModel ------------------------------------------------
    // The key records which counter families this compiled shape
    // carries; a checkpoint taken on a differently-instrumented build
    // (or another engine family) restores registers only.
    std::string
    state_key() const override
    {
        std::string key = "generated-v1";
        if constexpr (kHasCounters)
            key += "+counters";
        if constexpr (kHasAbortReasons)
            key += "+reasons";
        if constexpr (kHasCoverage)
            key += "+coverage";
        return key;
    }

    // Straight from and into impl_'s arrays; the layout is the one
    // every engine's state uses (u64 length, then the entries).
    void
    save_extra_state(sim::StateWriter& w) const override
    {
        w.put_u64(impl_.cycles);
        if constexpr (kHasCounters) {
            w.put_bools(impl_.last_fired, static_num_rules());
            w.put_u64s(impl_.commit_count, static_num_rules());
            w.put_u64s(impl_.abort_count, static_num_rules());
        }
        if constexpr (kHasAbortReasons)
            w.put_u64s(impl_.abort_reason_count, kNumReasonSlots);
        if constexpr (kHasCoverage) {
            w.put_u64s(impl_.stmt_count, M::kNumNodes);
            w.put_u64s(impl_.branch_taken_count, M::kNumNodes);
            w.put_u64s(impl_.branch_not_taken_count, M::kNumNodes);
        }
    }

    void
    load_extra_state(sim::StateReader& r) override
    {
        impl_.cycles = r.get_u64();
        if constexpr (kHasCounters) {
            r.get_bools(impl_.last_fired,
                        read_length(r, "fired", static_num_rules()));
            r.get_u64s(impl_.commit_count,
                       read_length(r, "commit counts", static_num_rules()));
            r.get_u64s(impl_.abort_count,
                       read_length(r, "abort counts", static_num_rules()));
        }
        if constexpr (kHasAbortReasons)
            r.get_u64s(impl_.abort_reason_count,
                       read_length(r, "abort reasons", kNumReasonSlots));
        if constexpr (kHasCoverage) {
            r.get_u64s(impl_.stmt_count,
                       read_length(r, "statement coverage", M::kNumNodes));
            r.get_u64s(impl_.branch_taken_count,
                       read_length(r, "branch-taken coverage",
                                   M::kNumNodes));
            r.get_u64s(impl_.branch_not_taken_count,
                       read_length(r, "branch-not-taken coverage",
                                   M::kNumNodes));
        }
    }

  private:
    M impl_;
    // Scratch vectors bridging the model's C arrays to the interface's
    // vector returns; refreshed on every accessor call.
    mutable std::vector<bool> fired_;
    mutable std::vector<uint64_t> commits_, aborts_, reasons_;
    mutable std::vector<uint64_t> stmt_, taken_, not_taken_;
};

} // namespace koika::codegen
