/**
 * @file
 * Flat byte-stream serialization of engine and peripheral state.
 *
 * The checkpoint subsystem (src/replay/) persists *committed* register
 * state generically through sim::Model::get_reg/set_reg. Everything
 * else a byte-identical resume needs — cycle counters, per-rule
 * commit/abort tallies, coverage arrays, peripheral RAM, pending
 * memory responses — is auxiliary state that only the owning component
 * can name. StateWriter/StateReader give those components one tiny,
 * versionable wire format (little-endian, length-prefixed vectors) to
 * serialize through, and CheckpointableModel is the capability an
 * engine implements to participate. Discovery is by dynamic_cast, the
 * same pattern RuleStatsModel and CoverageModel use.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hpp"

namespace koika::sim {

/** Append-only little-endian byte buffer. */
class StateWriter
{
  public:
    StateWriter() = default;
    /** Write into `buf`'s storage (cleared first), reusing its capacity. */
    explicit StateWriter(std::string&& buf) : buf_(std::move(buf))
    {
        buf_.clear();
    }

    void
    put_u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back((char)((v >> (8 * i)) & 0xff));
    }

    void
    put_u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back((char)((v >> (8 * i)) & 0xff));
    }

    void
    put_bytes(const void* data, size_t len)
    {
        put_u64(len);
        buf_.append((const char*)data, len);
    }

    void put_string(const std::string& s) { put_bytes(s.data(), s.size()); }

    void
    put_u64_vec(const std::vector<uint64_t>& v)
    {
        put_u64(v.size());
        for (uint64_t x : v)
            put_u64(x);
    }

    void
    put_bool_vec(const std::vector<bool>& v)
    {
        put_u64(v.size());
        for (bool b : v)
            buf_.push_back(b ? 1 : 0);
    }

    const std::string& bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Sequential reader over a StateWriter buffer; FatalError on underrun. */
class StateReader
{
  public:
    explicit StateReader(const std::string& bytes) : buf_(bytes) {}

    uint32_t
    get_u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= (uint32_t)(uint8_t)buf_[pos_ + (size_t)i] << (8 * i);
        pos_ += 4;
        return v;
    }

    uint64_t
    get_u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= (uint64_t)(uint8_t)buf_[pos_ + (size_t)i] << (8 * i);
        pos_ += 8;
        return v;
    }

    std::string
    get_string()
    {
        uint64_t len = get_u64();
        need(len);
        std::string s = buf_.substr(pos_, len);
        pos_ += len;
        return s;
    }

    std::vector<uint64_t>
    get_u64_vec()
    {
        uint64_t n = get_u64();
        // n * 8 would wrap for a corrupt length; compare by division.
        if (n > remaining() / 8)
            fatal("checkpoint state section truncated: %llu u64s "
                  "wanted, %llu bytes left",
                  (unsigned long long)n,
                  (unsigned long long)remaining());
        std::vector<uint64_t> v;
        v.reserve(n);
        for (uint64_t i = 0; i < n; ++i)
            v.push_back(get_u64());
        return v;
    }

    std::vector<bool>
    get_bool_vec()
    {
        uint64_t n = get_u64();
        need(n);
        std::vector<bool> v;
        v.reserve(n);
        for (uint64_t i = 0; i < n; ++i)
            v.push_back(buf_[pos_ + i] != 0);
        pos_ += n;
        return v;
    }

    size_t remaining() const { return buf_.size() - pos_; }
    bool done() const { return pos_ == buf_.size(); }

  private:
    void
    need(uint64_t n)
    {
        if (buf_.size() - pos_ < n)
            fatal("checkpoint state section truncated: wanted %llu "
                  "more bytes, have %llu",
                  (unsigned long long)n,
                  (unsigned long long)(buf_.size() - pos_));
    }

    const std::string& buf_;
    size_t pos_ = 0;
};

/**
 * Capability: an engine that can export and re-import its auxiliary
 * state (cycle counter, rule counters, coverage arrays) so a
 * checkpointed run resumes byte-identically. Committed registers are
 * NOT part of this state — they travel through get_reg/set_reg, which
 * every Model supports; an engine without this capability can still be
 * checkpointed, it just restarts its counters from zero on restore.
 *
 * state_key() names the layout (e.g. "tier-v1"); restore only replays a
 * section whose key matches, so a checkpoint taken on one engine family
 * degrades gracefully (registers + cycle only) on another.
 */
class CheckpointableModel
{
  public:
    virtual ~CheckpointableModel() = default;

    virtual std::string state_key() const = 0;
    virtual void save_extra_state(StateWriter& w) const = 0;
    virtual void load_extra_state(StateReader& r) = 0;
};

} // namespace koika::sim
