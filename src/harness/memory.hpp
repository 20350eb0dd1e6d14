/**
 * @file
 * Magic memory: the byte-addressable RAM peripheral behind the RISC-V
 * cores' instruction and data ports.
 *
 * A MemPort implements a one-outstanding-request register handshake:
 * the design commits {valid, addr, wstrb, data} request registers; the
 * port consumes the request between cycles, performs the access on a
 * shared MemoryDevice, and delivers load responses through {valid, data}
 * response registers as soon as they are free — giving the idealized
 * single-cycle memory of case study 3. A word store to kTohostAddr is
 * captured as benchmark output instead of hitting RAM.
 */
#pragma once

#include <optional>
#include <vector>

#include "harness/peripheral.hpp"

namespace koika::harness {

class MemoryDevice
{
  public:
    static constexpr uint32_t kTohostAddr = 0x40000000;

    explicit MemoryDevice(size_t bytes = 1 << 16) : mem_(bytes, 0) {}

    void
    load_words(const std::vector<uint32_t>& words, uint32_t base)
    {
        for (size_t i = 0; i < words.size(); ++i)
            write(base + 4 * (uint32_t)i, words[i], 0xF);
    }

    uint32_t
    read32(uint32_t addr) const
    {
        addr &= ~3u;
        if (addr + 3 >= mem_.size())
            return 0;
        return (uint32_t)mem_[addr] | ((uint32_t)mem_[addr + 1] << 8) |
               ((uint32_t)mem_[addr + 2] << 16) |
               ((uint32_t)mem_[addr + 3] << 24);
    }

    /** Word-aligned write under a 4-bit byte strobe. */
    void
    write(uint32_t addr, uint32_t data, uint32_t wstrb)
    {
        if (addr == kTohostAddr && wstrb == 0xF) {
            tohost_.push_back(data);
            return;
        }
        addr &= ~3u;
        if (addr + 3 >= mem_.size())
            return;
        for (uint32_t b = 0; b < 4; ++b)
            if ((wstrb >> b) & 1)
                mem_[addr + b] = (uint8_t)(data >> (8 * b));
    }

    const std::vector<uint32_t>& tohost() const { return tohost_; }
    const std::vector<uint8_t>& bytes() const { return mem_; }

    /** Checkpoint the full RAM image and captured tohost stream. */
    void
    save_state(sim::StateWriter& w) const
    {
        w.put_bytes(mem_.data(), mem_.size());
        w.put_u64(tohost_.size());
        for (uint32_t v : tohost_)
            w.put_u64(v);
    }

    /** Restore a save_state image; its RAM must be this device's size. */
    void
    load_state(sim::StateReader& r)
    {
        uint64_t n = r.get_u64();
        if (n != mem_.size())
            fatal("memory state: RAM image has %llu bytes, the device "
                  "has %zu",
                  (unsigned long long)n, mem_.size());
        r.get_raw(mem_.data(), n);
        tohost_.clear();
        uint64_t count = r.get_u64();
        for (uint64_t i = 0; i < count; ++i)
            tohost_.push_back((uint32_t)r.get_u64());
    }

  private:
    std::vector<uint8_t> mem_;
    std::vector<uint32_t> tohost_;
};

/** Register indices of one memory port in a design. */
struct MemPortRegs
{
    int req_valid = -1;
    int req_addr = -1;
    int req_data = -1;  ///< -1 for read-only (instruction) ports.
    int req_wstrb = -1; ///< -1 for read-only ports.
    int resp_valid = -1;
    int resp_data = -1;
};

class MemPort final : public Peripheral
{
  public:
    MemPort(MemoryDevice& device, MemPortRegs regs)
        : dev_(device), r_(regs)
    {
    }

    void
    tick(sim::Model& m) override
    {
        // Deliver an already-pending response first.
        if (pending_.has_value() &&
            m.get_reg(r_.resp_valid).is_zero()) {
            m.set_reg(r_.resp_data, Bits::of(32, *pending_));
            m.set_reg(r_.resp_valid, Bits::of(1, 1));
            pending_.reset();
        }
        // Accept at most one outstanding request.
        if (!pending_.has_value() &&
            !m.get_reg(r_.req_valid).is_zero()) {
            uint32_t addr = (uint32_t)m.get_reg(r_.req_addr).to_u64();
            uint32_t wstrb =
                r_.req_wstrb >= 0
                    ? (uint32_t)m.get_reg(r_.req_wstrb).to_u64()
                    : 0;
            m.set_reg(r_.req_valid, Bits::of(1, 0));
            if (wstrb == 0) {
                uint32_t value = dev_.read32(addr);
                if (m.get_reg(r_.resp_valid).is_zero()) {
                    m.set_reg(r_.resp_data, Bits::of(32, value));
                    m.set_reg(r_.resp_valid, Bits::of(1, 1));
                } else {
                    pending_ = value;
                }
            } else {
                uint32_t data =
                    (uint32_t)m.get_reg(r_.req_data).to_u64();
                dev_.write(addr, data, wstrb);
            }
        }
    }

    // The shared MemoryDevice is serialized once by its owner; the
    // port itself only carries the in-flight response.
    void
    save_state(sim::StateWriter& w) const override
    {
        w.put_u64(pending_.has_value() ? 1 : 0);
        w.put_u64(pending_.value_or(0));
    }

    void
    load_state(sim::StateReader& r) override
    {
        bool has = r.get_u64() != 0;
        uint64_t value = r.get_u64();
        pending_ = has ? std::optional<uint32_t>((uint32_t)value)
                       : std::nullopt;
    }

  private:
    MemoryDevice& dev_;
    MemPortRegs r_;
    std::optional<uint32_t> pending_;
};

} // namespace koika::harness
