#include "replay/checkpoint.hpp"

#include <cstring>

#include "base/error.hpp"
#include "base/io.hpp"
#include "base/sha256.hpp"
#include "koika/print.hpp"
#include "obs/json.hpp"

namespace koika::replay {

namespace {

constexpr char kMagic[4] = {'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 1;
/** Trailing checksum: 64 lowercase hex chars of SHA-256. */
constexpr size_t kChecksumLen = 64;

[[noreturn]] void
reject(const std::string& why)
{
    Diagnostic diag;
    diag.phase = "checkpoint";
    diag.detail = why;
    fatal_diag(std::move(diag), "invalid checkpoint: %s", why.c_str());
}

/** Replay one section through its owner's loader. A malformed section
 *  is reported as a checkpoint diagnostic that names it. */
template <typename Load>
void
load_section(const std::string& name, const std::string& bytes, Load load)
{
    sim::StateReader r(bytes);
    try {
        load(r);
    } catch (const FatalError& e) {
        reject("section '" + name + "': " + e.message());
    }
}

void
put_u32le(std::string& out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back((char)((v >> (8 * i)) & 0xff));
}

uint32_t
get_u32le(const std::string& in, size_t pos)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= (uint32_t)(uint8_t)in[pos + (size_t)i] << (8 * i);
    return v;
}

} // namespace

std::string
design_fingerprint(const Design& design)
{
    return sha256_hex(print_design(design));
}

const char*
Checkpoint::schema()
{
    return "cuttlesim-ckpt-v1";
}

Checkpoint
Checkpoint::capture(const Design& design, const sim::Model& model)
{
    KOIKA_CHECK(model.num_regs() == design.num_registers());
    Checkpoint ck;
    ck.design = design.name();
    ck.fingerprint = design_fingerprint(design);
    ck.cycle = model.cycles_run();
    ck.widths.reserve(design.num_registers());
    ck.regs.reserve(design.num_registers());
    for (size_t r = 0; r < design.num_registers(); ++r) {
        ck.widths.push_back(design.reg((int)r).type->width);
        ck.regs.push_back(model.get_reg((int)r));
    }
    if (const auto* cp =
            dynamic_cast<const sim::CheckpointableModel*>(&model)) {
        sim::StateWriter w;
        cp->save_extra_state(w);
        ck.set_section("engine:" + cp->state_key(), w.take());
    }
    return ck;
}

bool
Checkpoint::restore_into(const Design& d, sim::Model& model) const
{
    if (design != d.name())
        reject("checkpoint is for design '" + design +
               "', not '" + d.name() + "'");
    if (fingerprint != design_fingerprint(d))
        reject("design fingerprint mismatch for '" + design +
               "': the checkpoint was taken from a different version "
               "of the design");
    if (regs.size() != d.num_registers() ||
        model.num_regs() != d.num_registers())
        reject("register count mismatch");
    for (size_t r = 0; r < regs.size(); ++r) {
        if (regs[r].width() != d.reg((int)r).type->width)
            reject("width mismatch for register '" + d.reg((int)r).name +
                   "'");
        model.set_reg((int)r, regs[r]);
    }
    if (auto* cp = dynamic_cast<sim::CheckpointableModel*>(&model)) {
        std::string name = "engine:" + cp->state_key();
        if (const std::string* blob = section(name)) {
            load_section(name, *blob, [cp](sim::StateReader& r) {
                cp->load_extra_state(r);
            });
            return true;
        }
    }
    return false;
}

Checkpoint
Checkpoint::capture(const Design& design, const sim::System& system)
{
    Checkpoint ck = capture(design, *system.model);
    if (system.save_env != nullptr) {
        sim::StateWriter w;
        system.save_env(w);
        ck.set_section("env", w.take());
    }
    return ck;
}

bool
Checkpoint::restore_into(const Design& design, sim::System& system) const
{
    bool engine = restore_into(design, *system.model);
    if (const std::string* env = section("env")) {
        if (system.load_env == nullptr)
            reject("the checkpoint carries peripheral state ('env') "
                   "but the system has no peripherals");
        load_section("env", *env, system.load_env);
    }
    return engine;
}

const std::string*
Checkpoint::section(const std::string& name) const
{
    for (const Section& s : sections)
        if (s.name == name)
            return &s.bytes;
    return nullptr;
}

void
Checkpoint::set_section(const std::string& name, std::string bytes)
{
    for (Section& s : sections)
        if (s.name == name) {
            s.bytes = std::move(bytes);
            return;
        }
    sections.push_back({name, std::move(bytes)});
}

std::string
Checkpoint::serialize() const
{
    obs::Json header = obs::Json::object();
    header["schema"] = schema();
    header["design"] = design;
    header["fingerprint"] = fingerprint;
    header["cycle"] = cycle;
    obs::Json jw = obs::Json::array();
    for (uint32_t w : widths)
        jw.push_back((uint64_t)w);
    header["widths"] = std::move(jw);
    obs::Json js = obs::Json::array();
    for (const Section& s : sections) {
        obs::Json e = obs::Json::object();
        e["name"] = s.name;
        e["size"] = (uint64_t)s.bytes.size();
        js.push_back(std::move(e));
    }
    header["sections"] = std::move(js);
    std::string hdr = header.dump();

    std::string out(kMagic, sizeof kMagic);
    put_u32le(out, kVersion);
    put_u32le(out, (uint32_t)hdr.size());
    out += hdr;
    KOIKA_CHECK(regs.size() == widths.size());
    for (const Bits& v : regs) {
        for (uint32_t i = 0; i < v.nwords(); ++i) {
            uint64_t word = v.word(i);
            for (int b = 0; b < 8; ++b)
                out.push_back((char)((word >> (8 * b)) & 0xff));
        }
    }
    for (const Section& s : sections)
        out += s.bytes;
    out += sha256_hex(out);
    return out;
}

Checkpoint
Checkpoint::deserialize(const std::string& bytes)
{
    if (bytes.size() < sizeof kMagic + 8 + kChecksumLen)
        reject("file too short to be a checkpoint");
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
        reject("bad magic (not a cuttlesim-ckpt file)");
    uint32_t version = get_u32le(bytes, 4);
    if (version != kVersion)
        reject("unsupported format version " + std::to_string(version));

    std::string body = bytes.substr(0, bytes.size() - kChecksumLen);
    std::string sum = bytes.substr(bytes.size() - kChecksumLen);
    if (sha256_hex(body) != sum)
        reject("checksum mismatch: the file is corrupted or was "
               "modified after it was written");

    uint32_t hdr_len = get_u32le(bytes, 8);
    size_t pos = sizeof kMagic + 8;
    if (pos + hdr_len > body.size())
        reject("descriptor extends past end of file");
    obs::Json header;
    try {
        header = obs::Json::parse(body.substr(pos, hdr_len));
    } catch (const FatalError& e) {
        reject(std::string("unparseable descriptor: ") + e.message());
    }
    pos += hdr_len;

    const obs::Json* schema_field = header.find("schema");
    if (schema_field == nullptr || schema_field->as_string() != schema())
        reject("descriptor schema is not cuttlesim-ckpt-v1");

    Checkpoint ck;
    const obs::Json* jdesign = header.find("design");
    const obs::Json* jfp = header.find("fingerprint");
    const obs::Json* jcycle = header.find("cycle");
    const obs::Json* jwidths = header.find("widths");
    const obs::Json* jsections = header.find("sections");
    if (!jdesign || !jfp || !jcycle || !jwidths || !jsections)
        reject("descriptor is missing a required field");
    ck.design = jdesign->as_string();
    ck.fingerprint = jfp->as_string();
    ck.cycle = jcycle->as_u64();

    size_t reg_bytes = 0;
    for (size_t i = 0; i < jwidths->size(); ++i) {
        uint64_t w = jwidths->at(i).as_u64();
        if (w > Bits::kMaxWidth)
            reject("register width out of range");
        ck.widths.push_back((uint32_t)w);
        reg_bytes += ((w + 63) / 64) * 8;
    }
    if (pos + reg_bytes > body.size())
        reject("register payload extends past end of file");
    for (uint32_t w : ck.widths) {
        uint64_t words[Bits::kMaxWords] = {0};
        uint32_t nwords = (w + 63) / 64;
        for (uint32_t i = 0; i < nwords; ++i) {
            uint64_t word = 0;
            for (int b = 0; b < 8; ++b)
                word |= (uint64_t)(uint8_t)body[pos++] << (8 * b);
            words[i] = word;
        }
        Bits v = Bits::of_words(w, words, nwords);
        // Canonical form: a valid writer never sets bits above the
        // register width, so stray high bits mean corruption that the
        // checksum cannot catch (it covers the corrupted bytes too).
        if (v.nwords() > 0 && w % 64 != 0 &&
            (words[v.nwords() - 1] >> (w % 64)) != 0)
            reject("non-canonical register payload");
        ck.regs.push_back(v);
    }

    for (size_t i = 0; i < jsections->size(); ++i) {
        const obs::Json& e = jsections->at(i);
        const obs::Json* name = e.find("name");
        const obs::Json* size = e.find("size");
        if (!name || !size)
            reject("malformed section directory entry");
        uint64_t n = size->as_u64();
        if (pos + n > body.size())
            reject("section '" + name->as_string() +
                   "' extends past end of file");
        ck.sections.push_back({name->as_string(), body.substr(pos, n)});
        pos += n;
    }
    if (pos != body.size())
        reject("trailing bytes after last section");
    return ck;
}

void
Checkpoint::save(const std::string& path) const
{
    write_file_atomic(path, serialize());
}

Checkpoint
Checkpoint::load(const std::string& path)
{
    return deserialize(read_file(path));
}

void
append_spill_record(std::string& stream, const Checkpoint& ckpt)
{
    std::string rec = ckpt.serialize();
    for (int i = 0; i < 8; ++i)
        stream.push_back((char)(((uint64_t)rec.size() >> (8 * i)) & 0xff));
    stream += rec;
}

std::vector<Checkpoint>
parse_spill_stream(const std::string& stream)
{
    std::vector<Checkpoint> out;
    size_t pos = 0;
    while (pos < stream.size()) {
        if (stream.size() - pos < 8)
            reject("spill stream: truncated record length");
        uint64_t len = 0;
        for (int i = 0; i < 8; ++i)
            len |= (uint64_t)(uint8_t)stream[pos + (size_t)i] << (8 * i);
        pos += 8;
        if (stream.size() - pos < len)
            reject("spill stream: truncated record");
        out.push_back(Checkpoint::deserialize(stream.substr(pos, len)));
        pos += len;
    }
    return out;
}

} // namespace koika::replay
