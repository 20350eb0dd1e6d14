/**
 * @file
 * One system under test, and its state between cycles. Every in-memory
 * copy of a system — a fault trial's pristine restore, a batch lane
 * forked off the golden run, bisection's probe points — goes through
 * capture()/restore() below; replay::Checkpoint is the durable form of
 * the same state. Registers move as flat words (RegisterWords), the
 * engine's and peripherals' state as StateWriter bytes, so on a
 * compiled model a capture or restore is a few memory copies. The
 * dlopened model shim does not include this header (codegen/dlmodel.cpp's
 * tree_digest).
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
 * A model's committed registers as one flat word buffer: each register
 * ceil(width/64) little-endian words, design order, zero above its
 * width (FlatRegsModel's layout, and a cuttlesim-ckpt-v1 file's
 * register payload). Built once per system (System::words()): the
 * FlatRegsModel lookup is a dynamic_cast, which across the dlopen
 * boundary compares type names. Models with the capability move all
 * registers in one call; the others go through get_reg/set_reg.
 */
class RegisterWords
{
  public:
    explicit RegisterWords(Model& model);

    const Model* model() const { return model_; }
    /** Length of the flat form, in words. */
    size_t size() const { return owner_.size(); }
    /** Every committed register into out[0, size()). */
    void read(uint64_t* out) const;
    /** Set every register from in[0, size()). */
    void write(const uint64_t* in) const;
    /** Index of the first register whose committed value differs from
     *  `words` (size() of them), or -1 when all are equal. */
    int first_difference(const uint64_t* words) const;

  private:
    Model* model_;
    FlatRegsModel* flat_;
    std::vector<uint32_t> widths_;
    /** Register r's first word; offsets_[num_regs] == size(). */
    std::vector<uint32_t> offsets_;
    /** The register each word belongs to. */
    std::vector<int> owner_;
    /** first_difference's copy of the current registers. */
    mutable std::vector<uint64_t> scratch_;
};

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

    /** `model`'s registers as flat words; built on first use and again
     *  whenever `model` has been replaced since. */
    const RegisterWords& words() const;

  private:
    mutable std::unique_ptr<RegisterWords> words_;
};

/** Builds a fresh, identically-initialized system per call. */
using SystemFactory = std::function<System()>;

/** A system's state between cycles, held in memory. */
struct SystemState
{
    /** Committed registers in RegisterWords' flat layout. */
    std::vector<uint64_t> words;
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

/** `system`'s committed registers into `words` (resized), in
 *  SystemState::words' layout. */
void read_words(const System& system, std::vector<uint64_t>& words);

/** Index of the first register whose committed value differs from
 *  `words` (SystemState::words' layout), or -1 when all are equal. */
int first_difference(const System& system,
                     const std::vector<uint64_t>& words);

} // namespace koika::sim
