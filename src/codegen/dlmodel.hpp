/**
 * @file
 * In-process loading of compiled Cuttlesim models.
 *
 * The out-of-process pipeline (compile.hpp) runs generated models as
 * standalone binaries — right for differential tests and benches, but a
 * fault campaign needs a sim::Model it can step, poke, and checkpoint
 * from the harness process. This module closes that gap: it emits the
 * model with full instrumentation, compiles it into a shared object
 * through the same content-addressed cache, dlopens it, and hands back
 * a GeneratedModel adapter — so compiled engines plug into the exact
 * trial loop the interpreter tiers use (RuleStats, Coverage, and
 * Checkpointable interfaces included, which makes them warm-context and
 * batch-forkable).
 *
 * Amortization contract: the compile-cache probe, the dlopen, and the
 * symbol resolution happen once per (design, flags, cache) per thread —
 * a fault campaign's per-worker TrialContext triggers exactly one probe
 * when it builds its golden, and every later model on that worker is a
 * plain constructor call through the cached factory function. Loaded
 * libraries are deliberately never dlclosed: model destructors may run
 * arbitrarily late (FaultTarget teardown order), and code must outlive
 * every object it created.
 */
#pragma once

#include <memory>
#include <string>

#include "codegen/compile.hpp"
#include "koika/design.hpp"
#include "sim/model.hpp"

namespace koika::codegen {

/** Policy for building and caching an in-process compiled model. */
struct DlModelOptions
{
    /** Optimization/diagnostic flags for the external compiler (the
     *  loader appends -fPIC -shared and its include paths). Part of the
     *  content-addressed cache key. */
    std::string cxxflags = "-O2";
    /** Compiled-object cache; empty dir disables caching. */
    CacheConfig cache{default_cache_dir()};
    /** Scratch directory for emitted sources (each thread uses a
     *  private subdirectory). Empty = a per-process /tmp default. */
    std::string workdir;
};

/**
 * Digests of the in-tree headers a compiled model's shim includes: as
 * this binary was compiled against them (baked in by the build), and as
 * the source tree holds them now. load_compiled_model compiles the
 * model against the tree, so when the two differ it refuses through
 * check_tree_digest instead of loading an object whose class layouts
 * and vtables disagree with this binary's.
 */
std::string built_tree_digest();
std::string tree_digest();

/** FatalError (Diagnostic phase "dlopen") naming both digests and
 *  asking for a rebuild, unless `built` equals `on_disk`. */
void check_tree_digest(const std::string& design, const std::string& built,
                       const std::string& on_disk);

/**
 * Emit, compile (or fetch from cache), dlopen, and instantiate `design`
 * as an in-process model. The returned model implements
 * sim::RuleStatsModel, sim::CoverageModel, sim::CheckpointableModel and
 * sim::FlatRegsModel
 * (instrumentation is always emitted; the compiled engine must be a
 * drop-in for the T5 interpreter everywhere, warm trial contexts
 * included). Repeated calls on one thread with the same options reuse
 * the already-loaded library: no cache probe, no dlopen, just a
 * constructor call. Throws FatalError (with compiler or loader detail)
 * when the pipeline fails.
 */
std::unique_ptr<sim::Model>
load_compiled_model(const Design& design, const DlModelOptions& options = {});

} // namespace koika::codegen
