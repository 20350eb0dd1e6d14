#include "rtl/rtl_emit.hpp"

#include <sstream>

namespace koika::rtl {

namespace {

constexpr size_t kChunkSize = 300;

std::string
hex_u64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxull", (unsigned long long)v);
    return buf;
}

class RtlEmitter
{
  public:
    RtlEmitter(const Netlist& nl, const std::string& cls)
        : nl_(nl), cls_(cls)
    {
    }

    std::string
    run()
    {
        const Design& d = nl_.design();
        os_ << "// Generated by cuttlec --rtl from Koika design '"
            << d.name() << "'.\n";
        os_ << "// Compiled cycle-based netlist simulation: every node, "
               "every cycle.\n";
        os_ << "#pragma once\n\n#include <cstdint>\n#include <cstring>\n"
               "\n#include \"cuttlesim.hpp\"\n\n";
        os_ << "namespace cuttlesim::models {\n\n";
        os_ << "class " << cls_ << " {\n  public:\n";
        os_ << "    static constexpr size_t kNumRegs = "
            << d.num_registers() << ";\n";
        os_ << "    static constexpr uint32_t kRegWidths[kNumRegs] = {";
        for (size_t r = 0; r < d.num_registers(); ++r)
            os_ << (r ? ", " : "") << d.reg((int)r).type->width;
        os_ << "};\n";
        os_ << "    uint64_t cycles = 0;\n\n";

        // Register storage.
        for (size_t r = 0; r < d.num_registers(); ++r) {
            const RegInfo& reg = d.reg((int)r);
            os_ << "    " << btype(reg.type->width) << " r" << r
                << " = " << bconst(reg.init) << ";\n";
        }
        os_ << "\n";

        // Node storage (members so evaluation can be chunked).
        for (size_t i = 0; i < nl_.num_nodes(); ++i) {
            const Node& n = nl_.node((int)i);
            if (n.kind == NodeKind::kConst) {
                os_ << "    const " << btype(n.width) << " n" << i
                    << " = " << bconst(n.value) << ";\n";
            } else {
                os_ << "    " << btype(n.width) << " n" << i << "{};\n";
            }
        }
        os_ << "\n";

        emit_chunks();
        emit_cycle();
        emit_accessors();

        os_ << "};\n\n} // namespace cuttlesim::models\n";
        return os_.str();
    }

  private:
    static std::string
    btype(uint32_t width)
    {
        return "bits<" + std::to_string(width) + ">";
    }

    std::string
    bconst(const Bits& v)
    {
        if (v.width() <= 64)
            return btype(v.width()) + "(" + hex_u64(v.word(0)) + ")";
        std::string words;
        for (uint32_t i = 0; i < (v.width() + 63) / 64; ++i) {
            if (i)
                words += ", ";
            words += hex_u64(v.word(i));
        }
        return btype(v.width()) + "::of_words({" + words + "})";
    }

    std::string
    node_expr(const Node& n)
    {
        auto a = [&] { return "n" + std::to_string(n.a); };
        auto b = [&] { return "n" + std::to_string(n.b); };
        switch (n.kind) {
          case NodeKind::kConst:
            panic("constants are member initializers");
          case NodeKind::kReg:
            return "r" + std::to_string(n.reg);
          case NodeKind::kMux:
            return "bool(" + a() + ") ? n" + std::to_string(n.b) +
                   " : n" + std::to_string(n.c);
          case NodeKind::kUnop:
            switch (n.op) {
              case Op::kNot: return "~" + a();
              case Op::kNeg: return a() + ".neg()";
              case Op::kZExtL:
                return "zextl<" + std::to_string(n.imm0) + ">(" + a() +
                       ")";
              case Op::kSExtL:
                return "sextl<" + std::to_string(n.imm0) + ">(" + a() +
                       ")";
              case Op::kSlice:
                return "slice<" + std::to_string(n.imm0) + ", " +
                       std::to_string(n.imm1) + ">(" + a() + ")";
              default: panic("bad unop");
            }
          case NodeKind::kBinop: {
            auto infix = [&](const char* op) {
                return a() + " " + op + " " + b();
            };
            auto cmp = [&](const char* op) {
                return "bits<1>(" + infix(op) + ")";
            };
            switch (n.op) {
              case Op::kAnd: return infix("&");
              case Op::kOr: return infix("|");
              case Op::kXor: return infix("^");
              case Op::kAdd: return infix("+");
              case Op::kSub: return infix("-");
              case Op::kMul: return infix("*");
              case Op::kEq: return cmp("==");
              case Op::kNe: return cmp("!=");
              case Op::kLtu: return cmp("<");
              case Op::kLeu: return cmp("<=");
              case Op::kGtu: return cmp(">");
              case Op::kGeu: return cmp(">=");
              case Op::kLts: return "bits<1>(lts(" + a() + ", " + b() + "))";
              case Op::kLes: return "bits<1>(les(" + a() + ", " + b() + "))";
              case Op::kGts: return "bits<1>(gts(" + a() + ", " + b() + "))";
              case Op::kGes: return "bits<1>(ges(" + a() + ", " + b() + "))";
              case Op::kLsl: return infix("<<");
              case Op::kLsr: return infix(">>");
              case Op::kAsr: return "asr(" + a() + ", " + b() + ")";
              case Op::kConcat:
                return "concat(" + a() + ", " + b() + ")";
              default: panic("bad binop");
            }
          }
        }
        panic("unreachable");
    }

    void
    emit_chunks()
    {
        size_t emitted = 0;
        for (size_t i = 0; i < nl_.num_nodes(); ++i) {
            const Node& n = nl_.node((int)i);
            if (n.kind == NodeKind::kConst)
                continue;
            if (emitted % kChunkSize == 0) {
                if (emitted > 0)
                    os_ << "    }\n";
                os_ << "    void eval_" << chunks_++ << "() {\n";
            }
            os_ << "        n" << i << " = " << node_expr(n) << ";\n";
            ++emitted;
        }
        if (emitted > 0)
            os_ << "    }\n";
        os_ << "\n";
    }

    void
    emit_cycle()
    {
        const Design& d = nl_.design();
        os_ << "    void cycle() {\n";
        for (size_t c = 0; c < chunks_; ++c)
            os_ << "        eval_" << c << "();\n";
        for (size_t r = 0; r < d.num_registers(); ++r)
            os_ << "        r" << r << " = n" << nl_.reg_next((int)r)
                << ";\n";
        os_ << "        ++cycles;\n    }\n\n";
    }

    void
    emit_accessors()
    {
        const Design& d = nl_.design();
        os_ << "    void get_reg_words(size_t r, uint64_t* out) const {\n";
        os_ << "        std::memset(out, 0, 8 * sizeof(uint64_t));\n";
        os_ << "        word_writer wr{out};\n        switch (r) {\n";
        for (size_t r = 0; r < d.num_registers(); ++r)
            os_ << "          case " << r << ": wr.put_bits(r" << r
                << "); break;\n";
        os_ << "        }\n        (void)wr;\n    }\n\n";
        os_ << "    void set_reg_words(size_t r, const uint64_t* in) {\n";
        os_ << "        word_reader rd{in};\n        switch (r) {\n";
        for (size_t r = 0; r < d.num_registers(); ++r)
            os_ << "          case " << r << ": r" << r
                << " = rd.get_bits<" << d.reg((int)r).type->width
                << ">(); break;\n";
        os_ << "        }\n        (void)rd;\n    }\n\n";
        // sim::FlatRegsModel's layout: ceil(width/64) words per
        // register at its own offset, zero above its width. Registers
        // are plain bits, so every word is one load or store.
        size_t total = 0;
        std::ostringstream pack, unpack;
        for (size_t r = 0; r < d.num_registers(); ++r) {
            uint32_t width = d.reg((int)r).type->width;
            if (width == 0)
                continue;
            if (width <= 64) {
                pack << "        out[" << total << "] = r" << r
                     << ".u64();\n";
                unpack << "        r" << r << " = bits<" << width
                       << ">(in[" << total << "]);\n";
            } else {
                for (uint32_t i = 0; i * 64 < width; ++i) {
                    pack << "        out[" << total + i << "] = r" << r
                         << ".w[" << i << "];\n";
                    unpack << "        r" << r << ".w[" << i << "] = in["
                           << total + i << "];\n";
                }
            }
            total += (width + 63) / 64;
        }
        os_ << "    static constexpr size_t kNumRegWords = " << total
            << ";\n";
        os_ << "    void pack_regs(uint64_t* out) const {\n"
            << pack.str() << "        (void)out;\n    }\n\n";
        os_ << "    void unpack_regs(const uint64_t* in) {\n"
            << unpack.str() << "        (void)in;\n    }\n";
    }

    const Netlist& nl_;
    std::string cls_;
    std::ostringstream os_;
    size_t chunks_ = 0;
};

} // namespace

std::string
emit_rtl_model(const Netlist& netlist, const std::string& class_name)
{
    return RtlEmitter(netlist, class_name).run();
}

} // namespace koika::rtl
