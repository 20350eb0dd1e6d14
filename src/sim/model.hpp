/**
 * @file
 * The common cycle-accurate model interface.
 *
 * Every execution engine in the repository — the reference interpreter
 * wrapper, the six Cuttlesim optimization tiers, generated C++ models,
 * and both RTL simulators — implements Model. Cycle-accuracy (paper §1)
 * is defined over this interface: two engines agree iff get_reg returns
 * the same value for every register after every cycle.
 *
 * Peripherals (src/harness/peripheral.hpp) interact with a design purely
 * through committed state between cycles, which keeps external I/O
 * identical across engines.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/bits.hpp"

namespace koika::sim {

/**
 * Why a rule's transaction failed (paper §2.3's three failure sources).
 * The numeric values are part of the generated-model ABI: instrumented
 * models index their abort_reason_count arrays with them (see
 * codegen/runtime/cuttlesim.hpp), so interpreted and compiled engines
 * can be compared entry by entry.
 */
enum class AbortReason : int {
    /** Explicit `abort` or a failed guard (`guard(0)` and `abort()`
     *  lower to the same check). */
    kGuard = 0,
    /** Read-port conflict: read0 of a register already written at
     *  port 0 this cycle, or read1 forwarding rules violated. */
    kReadConflict = 1,
    /** Write-port conflict: double write or write0-after-read1. */
    kWriteConflict = 2,
};

constexpr int kNumAbortReasons = 3;

inline const char*
abort_reason_name(AbortReason reason)
{
    switch (reason) {
      case AbortReason::kGuard: return "guard";
      case AbortReason::kReadConflict: return "read_conflict";
      case AbortReason::kWriteConflict: return "write_conflict";
    }
    return "?";
}

class Model
{
  public:
    virtual ~Model() = default;

    /** Advance the design by one cycle. */
    virtual void cycle() = 0;

    /** Committed value of register `reg` (valid between cycles). */
    virtual Bits get_reg(int reg) const = 0;

    /** Poke a register between cycles (peripherals, test setup). */
    virtual void set_reg(int reg, const Bits& value) = 0;

    virtual uint64_t cycles_run() const = 0;

    /** Number of registers (matches the source design's order). */
    virtual size_t num_regs() const = 0;

    /** Snapshot of all committed registers. */
    std::vector<Bits>
    snapshot() const
    {
        std::vector<Bits> out;
        out.reserve(num_regs());
        for (size_t i = 0; i < num_regs(); ++i)
            out.push_back(get_reg((int)i));
        return out;
    }
};

/**
 * Capability: all committed registers as one flat word buffer. Each
 * register takes ceil(width/64) little-endian words, in design order,
 * zero above its width — the register payload of a cuttlesim-ckpt-v1
 * file. GeneratedModel implements it with one emitted straight-line
 * pack and unpack; engines without it go through get_reg/set_reg.
 * sim::RegisterWords (sim/system.hpp) looks it up once per system.
 */
class FlatRegsModel
{
  public:
    virtual ~FlatRegsModel() = default;

    /** Length of the flat form, in words. */
    virtual size_t num_reg_words() const = 0;
    /** Write every committed register to out[0, num_reg_words()). */
    virtual void pack_regs(uint64_t* out) const = 0;
    /** Set every register from the flat form, as set_reg would. */
    virtual void unpack_regs(const uint64_t* in) = 0;
};

/**
 * A Model that can additionally report per-rule activity. Implemented by
 * the tier engines (always) and by GeneratedModel when the wrapped
 * compiled model was emitted with counters; the observability layer
 * (src/obs/) discovers it with dynamic_cast so the same stats collector
 * works on every engine.
 */
class RuleStatsModel : public Model
{
  public:
    /** Number of rules in the underlying design's schedule. */
    virtual size_t num_rules() const = 0;

    /** Source-level name of rule `rule` (same indexing as the counter
     *  vectors below). */
    virtual std::string rule_name(int rule) const = 0;

    /** Which rules committed during the most recent cycle. */
    virtual const std::vector<bool>& fired() const = 0;

    /**
     * Per-rule commit counters (Gcov-style architecture statistics,
     * case study 4): [r] = number of cycles rule r committed.
     */
    virtual const std::vector<uint64_t>& rule_commit_counts() const = 0;
    /** Per-rule abort counters. */
    virtual const std::vector<uint64_t>& rule_abort_counts() const = 0;

    /**
     * Per-rule, per-reason abort counters, flattened as
     * [rule * kNumAbortReasons + (int)reason]. Empty when the engine
     * does not track reasons (e.g. a generated model compiled without
     * `--instrument`); callers must handle both shapes.
     */
    virtual const std::vector<uint64_t>& rule_abort_reason_counts() const = 0;
};

/**
 * An engine that can report per-node execution coverage. This is a
 * standalone mixin rather than a Model subclass so engines can combine
 * it freely with RuleStatsModel without a diamond; the coverage layer
 * (src/obs/coverage.hpp) discovers it with
 * `dynamic_cast<CoverageModel*>(&model)` — the same pattern the stats
 * collector uses for RuleStatsModel.
 *
 * Counts are per AST node id of the source design. Engines may count
 * every node they visit (the interpreters do) or only the classified
 * statement/branch points (generated models do); consumers mask counts
 * through analysis::coverage_points before comparing engines, so both
 * shapes yield identical coverage.
 */
class CoverageModel
{
  public:
    virtual ~CoverageModel() = default;

    /**
     * Start collecting (idempotent). Engines that always collect — e.g.
     * generated models compiled with coverage arrays — may make this a
     * no-op. Counts only cover cycles run after the first call.
     */
    virtual void enable_coverage() = 0;

    /** Number of AST nodes (the length of the count vectors). */
    virtual size_t num_nodes() const = 0;

    /**
     * Per-node execution counts. Empty when coverage was never enabled
     * (mirrors the rule_abort_reason_counts contract: callers must
     * handle both shapes).
     */
    virtual const std::vector<uint64_t>& stmt_counts() const = 0;

    /** Per-node taken counts (meaningful at `if`/`guard` nodes: the
     *  condition evaluated truthy / the guard passed). */
    virtual const std::vector<uint64_t>& branch_taken_counts() const = 0;

    /** Per-node not-taken counts (else arm / guard failed). */
    virtual const std::vector<uint64_t>&
    branch_not_taken_counts() const = 0;
};

} // namespace koika::sim
