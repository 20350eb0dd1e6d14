/**
 * @file
 * The Cuttlesim code generator: Kôika -> readable, optimized C++.
 *
 * This is the paper's headline artifact (§3). Each design becomes one
 * self-contained C++ class whose structure matches the source design
 * nearly line-by-line (§4.2): enums and structs map to native C++ enums
 * and structs (gdb prints them symbolically with no custom
 * pretty-printers), each rule becomes a member function that exits early
 * on conflicts and explicit aborts, and the transaction machinery is the
 * final form of §3.2/§3.3:
 *
 *  - two logs only (cycle log `Log`, accumulated rule log `log`), each a
 *    read-write-set struct plus a data struct;
 *  - merged data fields and no separate beginning-of-cycle state;
 *  - read-write sets only for registers the static analysis cannot prove
 *    conflict-free, checks only where they can actually fail;
 *  - per-rule commit/rollback helpers restricted to the rule's footprint
 *    (whole-log copies when the footprint is wide);
 *  - rollback-free `return false` for failures with a pristine log.
 *
 * The emitted file includes only cuttlesim.hpp (header-only runtime) and
 * is deliberately debuggable: breakpoints on rule functions, watchpoints
 * on `log.rwset.*`, and step-through of individual rules all behave as
 * described in the paper's case studies.
 */
#pragma once

#include <string>

#include "analysis/analysis.hpp"
#include "koika/design.hpp"

namespace koika::codegen {

struct EmitOptions
{
    /** Emit per-rule commit/abort counters (Gcov-style statistics). */
    bool counters = true;

    /**
     * Instrument every early-exit branch with an abort-reason counter
     * (guard vs. read-port conflict vs. write-port conflict), indexed
     * like koika::sim::AbortReason. Off by default: the extra increment
     * on the failure path perturbs the inlining story (§3), so the
     * observability layer asks for it explicitly (`cuttlec
     * --instrument`). Implies nothing when `counters` is off.
     */
    bool abort_reasons = false;

    /**
     * Emit statement/branch coverage arrays (`stmt_count`,
     * `branch_taken_count`, `branch_not_taken_count`, one slot per AST
     * node, increments only at the points analysis::coverage_points
     * classifies). GeneratedModel exposes them through
     * sim::CoverageModel, so compiled models feed the same coverage
     * databases as the interpreter tiers. Off by default for the same
     * reason as abort_reasons; `cuttlec --instrument` turns it on.
     */
    bool coverage = false;

    /** Override the emitted class name (empty = model_class_name()). */
    std::string class_name;
};

/** C++ class name for a design ("rv32i-bp" -> "rv32i_bp"). */
std::string model_class_name(const Design& design);

/** Generate the full model header text. */
std::string emit_model(const Design& design,
                       const analysis::DesignAnalysis& an,
                       const EmitOptions& options = {});

/** Convenience: analyze + emit. */
std::string emit_model(const Design& design,
                       const EmitOptions& options = {});

/** Non-blank line count of the generated model (Table 1 column). */
size_t model_sloc(const Design& design);

} // namespace koika::codegen
