/**
 * @file
 * One system under test, and its state between cycles. Every in-memory
 * copy of a system — a fault trial's pristine restore, a batch lane
 * forked off the golden run, bisection's probe points — goes through
 * capture()/restore() below; replay::Checkpoint is the durable form of
 * the same state. The dlopened model shim does not include this header
 * (codegen/dlmodel.cpp's tree_digest).
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/model.hpp"
#include "sim/state.hpp"

namespace koika::sim {

/**
 * One fresh instance of the system under test: the model plus whatever
 * per-instance peripherals drive it. The stimulus (may be null) runs
 * after every cycle (0-based cycle index), exactly like the lockstep
 * harness's. `context` keeps peripheral objects alive for the model's
 * lifetime.
 *
 * save_env/load_env (may be null) serialize the peripherals' own state
 * — RAM contents, pending responses — so a captured system resumes
 * byte-identically (the "env" section of a cuttlesim-ckpt-v1 file).
 * load_env runs on a freshly built system, so save and load must agree
 * on peripheral order and layout.
 */
struct System
{
    std::unique_ptr<Model> model;
    std::function<void(Model&, uint64_t)> stimulus;
    std::function<void(StateWriter&)> save_env;
    std::function<void(StateReader&)> load_env;
    std::shared_ptr<void> context;
};

/** Builds a fresh, identically-initialized system per call. */
using SystemFactory = std::function<System()>;

/** A system's state between cycles, held in memory. */
struct SystemState
{
    /** Committed registers, design order. */
    std::vector<Bits> regs;
    /** CheckpointableModel::state_key() and save_extra_state bytes;
     *  both empty when the engine is not checkpointable. */
    std::string state_key;
    std::string engine;
    /** save_env bytes; empty without save_env. */
    std::string env;
};

/**
 * Whether restore() reproduces a captured system exactly: the engine
 * is checkpointable, and the peripherals are serializable (both hooks)
 * or absent (no hooks, no context). Warm trial contexts and lane forks
 * require it.
 */
bool restorable(const System& system);

/** Capture `system`'s state into `state`, reusing its buffers. */
void capture(const System& system, SystemState& state);

/**
 * Restore a captured state into a system built by the same factory:
 * registers always, the engine's state when its state key matches, the
 * peripherals when the system has load_env. Returns whether the
 * engine's state was restored (false: registers only).
 */
bool restore(System& system, const SystemState& state);

/** Index of the first register whose committed value differs from
 *  `regs` (design order), or -1 when all are equal. */
int first_difference(const Model& model, const std::vector<Bits>& regs);

} // namespace koika::sim
