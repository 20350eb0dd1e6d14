/**
 * @file
 * Persistent checkpoints of simulation state (cuttlesim-ckpt-v1).
 *
 * The paper's headline debugging story (§4, case studies 1 and 3) is
 * rr-style time travel over committed state: a Cuttlesim model is a
 * plain sequential program, so a snapshot of its committed registers
 * *is* the simulation state, and saving/restoring one is cheap and
 * engine-agnostic. This module makes those snapshots durable:
 *
 *   - Checkpoint::capture() snapshots any sim::Model (reference
 *     interpreter, tiers T0-T5, GeneratedModel wrappers) between
 *     cycles: committed registers through the Model interface, plus the
 *     engine's auxiliary state (cycle counter, rule commit/abort
 *     tallies, coverage arrays) when the engine implements
 *     sim::CheckpointableModel.
 *   - Named sections carry whatever else a byte-identical resume
 *     needs: peripheral RAM and pending responses ("env"), coverage
 *     collector toggles ("coverage"), a metrics registry ("metrics").
 *   - save()/load() persist the cuttlesim-ckpt-v1 binary format:
 *     a "CKPT" magic and format version, a JSON descriptor (design
 *     name, SHA-256 design fingerprint, cycle count, register widths,
 *     section directory), the packed register payload, the section
 *     payloads, and a trailing SHA-256 over everything before it.
 *     load() validates all of that — magic, version, checksum, shape —
 *     and restore_into() additionally proves the checkpoint belongs to
 *     the design being restored (fingerprint match), so a stale or
 *     tampered checkpoint is rejected instead of silently corrupting a
 *     run. tools/check_ckpt_schema.py is the out-of-process validator
 *     for the same format.
 *
 * Writes are atomic (temp file + rename, base/io.hpp): a crash while
 * checkpointing never leaves a truncated file under the final name,
 * which is what makes long campaigns resumable.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "base/bits.hpp"
#include "koika/design.hpp"
#include "sim/model.hpp"
#include "sim/system.hpp"

namespace koika::replay {

/** SHA-256 of the printed design: names, widths, rules, schedule. */
std::string design_fingerprint(const Design& design);

class Checkpoint
{
  public:
    /** The on-disk schema tag ("cuttlesim-ckpt-v1"). */
    static const char* schema();

    std::string design;
    std::string fingerprint;
    /** Committed cycles at capture time (model.cycles_run()). */
    uint64_t cycle = 0;
    /** Register widths, design order (shape validation on restore). */
    std::vector<uint32_t> widths;
    /** Committed register values, design order. */
    std::vector<Bits> regs;

    /** Named auxiliary payloads (engine counters, peripherals, ...). */
    struct Section
    {
        std::string name;
        std::string bytes;
    };
    std::vector<Section> sections;

    /**
     * Snapshot `model` between cycles. Captures committed registers
     * and, when the engine implements sim::CheckpointableModel, its
     * auxiliary state under section "engine:<state_key>".
     */
    static Checkpoint capture(const Design& design,
                              const sim::Model& model);
    /** capture() of the system's model, plus its peripherals' state
     *  (save_env) under section "env". */
    static Checkpoint capture(const Design& design,
                              const sim::System& system);

    /**
     * Restore into `model`: validates that the checkpoint was taken
     * from this exact design (name, fingerprint, register shape),
     * writes every committed register back, and replays the engine
     * section when its state key matches. Returns true when the
     * engine's auxiliary state (cycle counter, rule/coverage counters)
     * was replayed; false means only registers were restored (the
     * engine family differs from the one that captured) and counters
     * restart from zero. FatalError on any mismatch with the design.
     */
    bool restore_into(const Design& design, sim::Model& model) const;
    /** restore_into() the system's model, then the "env" section (when
     *  present) into its peripherals (load_env). */
    bool restore_into(const Design& design, sim::System& system) const;

    /** Section payload by name; nullptr when absent. */
    const std::string* section(const std::string& name) const;
    /** Add or replace a section. */
    void set_section(const std::string& name, std::string bytes);

    /** The cuttlesim-ckpt-v1 byte string. */
    std::string serialize() const;
    /**
     * Parse and fully validate a byte string: magic, version, trailing
     * checksum, descriptor shape, payload sizes. FatalError with a
     * Diagnostic (phase "checkpoint") on any corruption.
     */
    static Checkpoint deserialize(const std::string& bytes);

    /** serialize() + atomic write (temp file + rename). */
    void save(const std::string& path) const;
    /** read + deserialize(); FatalError on IO or validation failure. */
    static Checkpoint load(const std::string& path);
};

/**
 * Append one length-prefixed checkpoint record to a spill stream (the
 * harness::Debugger ring-spill format: a file of consecutive
 * [u64 length][cuttlesim-ckpt-v1 record] entries, newest last).
 */
void append_spill_record(std::string& stream, const Checkpoint& ckpt);

/** Parse a spill stream back into records (oldest first). */
std::vector<Checkpoint> parse_spill_stream(const std::string& stream);

} // namespace koika::replay
