#include "codegen/cpp_emit.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "analysis/coverage_points.hpp"

namespace koika::codegen {

namespace {

const std::set<std::string>&
cpp_keywords()
{
    static const std::set<std::string> kw = {
        "alignas", "auto",   "bool",     "break",  "case",    "catch",
        "char",    "class",  "const",    "continue", "default", "delete",
        "do",      "double", "else",     "enum",   "explicit", "extern",
        "false",   "float",  "for",      "friend", "goto",    "if",
        "inline",  "int",    "long",     "mutable", "namespace", "new",
        "operator", "private", "protected", "public", "register",
        "return",  "short",  "signed",   "sizeof", "static",  "struct",
        "switch",  "template", "this",   "throw",  "true",    "try",
        "typedef", "typename", "union",  "unsigned", "using", "virtual",
        "void",    "volatile", "while",  "log",    "Log",     "cycle",
        "cycles",
    };
    return kw;
}

std::string
sanitize(const std::string& name)
{
    std::string out;
    for (char c : name)
        out += (std::isalnum((unsigned char)c) || c == '_') ? c : '_';
    if (out.empty() || std::isdigit((unsigned char)out[0]))
        out = "_" + out;
    if (cpp_keywords().count(out))
        out += "_";
    return out;
}

std::string
hex_u64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxull", (unsigned long long)v);
    return buf;
}

std::string
underlying_type(uint32_t width)
{
    if (width <= 8)
        return "uint8_t";
    if (width <= 16)
        return "uint16_t";
    if (width <= 32)
        return "uint32_t";
    return "uint64_t";
}

class Emitter
{
  public:
    Emitter(const Design& d, const analysis::DesignAnalysis& an,
            const EmitOptions& options)
        : d_(d), an_(an), opts_(options)
    {
        if (opts_.coverage)
            cov_kinds_ = analysis::coverage_points(d);
    }

    std::string
    run()
    {
        size_t pos = 0;
        for (int r : d_.schedule_order())
            sched_pos_.emplace(r, pos++);
        collect_types();
        name_registers();
        header();
        emit_types();
        emit_registers_struct();
        emit_rwsets();
        emit_log();
        emit_members();
        emit_functions();
        for (int r : d_.schedule_order())
            emit_rule(r);
        emit_cycle();
        emit_pack_unpack();
        footer();
        return out_.str();
    }

  private:
    // -- Output helpers -----------------------------------------------------
    void
    line(const std::string& text = "")
    {
        if (!text.empty())
            out_ << std::string((size_t)indent_ * 4, ' ') << text;
        out_ << "\n";
    }

    struct Indent
    {
        explicit Indent(Emitter& e) : e_(e) { ++e_.indent_; }
        ~Indent() { --e_.indent_; }
        Emitter& e_;
    };

    // -- Naming ---------------------------------------------------------------
    std::string
    class_name() const
    {
        return opts_.class_name.empty() ? model_class_name(d_)
                                        : opts_.class_name;
    }

    static std::string
    string_literal(const std::string& s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out + "\"";
    }

    std::string
    reg_name(int r) const
    {
        return reg_names_[(size_t)r];
    }

    void
    name_registers()
    {
        std::set<std::string> used;
        for (size_t r = 0; r < d_.num_registers(); ++r) {
            std::string n = sanitize(d_.reg((int)r).name);
            while (used.count(n))
                n += "_";
            used.insert(n);
            reg_names_.push_back(n);
        }
    }

    std::string
    type_cpp(const TypePtr& t)
    {
        if (t->is_bits())
            return "bits<" + std::to_string(t->width) + ">";
        auto it = type_names_.find(t->name);
        KOIKA_CHECK(it != type_names_.end());
        return it->second;
    }

    // -- Type collection -----------------------------------------------------
    void
    collect_type(const TypePtr& t)
    {
        if (t == nullptr || t->is_bits() ||
            type_names_.count(t->name))
            return;
        if (t->is_struct())
            for (const Field& f : t->fields)
                collect_type(f.type);
        std::string n = sanitize(t->name) + "_t";
        static const std::set<std::string> reserved = {
            "registers_t", "rwsets_t", "rwset_t", "log_t"};
        while (reserved.count(n) || used_type_names_.count(n))
            n += "_";
        used_type_names_.insert(n);
        type_names_[t->name] = n;
        ordered_types_.push_back(t);
    }

    void
    collect_types_in(const Action* a)
    {
        if (a == nullptr)
            return;
        collect_type(a->type);
        collect_type(a->const_type);
        collect_types_in(a->a0);
        collect_types_in(a->a1);
        collect_types_in(a->a2);
        for (const Action* arg : a->args)
            collect_types_in(arg);
    }

    void
    collect_types()
    {
        for (size_t r = 0; r < d_.num_registers(); ++r)
            collect_type(d_.reg((int)r).type);
        for (const auto& f : d_.functions()) {
            for (const auto& [n, t] : f->params)
                collect_type(t);
            collect_type(f->ret);
            collect_types_in(f->body);
        }
        for (size_t r = 0; r < d_.num_rules(); ++r)
            collect_types_in(d_.rule((int)r).body);
    }

    // -- Constants ----------------------------------------------------------
    std::string
    const_expr(const TypePtr& t, const Bits& v)
    {
        if (t->is_bits()) {
            if (t->width <= 64)
                return "bits<" + std::to_string(t->width) + ">(" +
                       hex_u64(v.word(0)) + ")";
            std::string words;
            for (uint32_t i = 0; i < (t->width + 63) / 64; ++i) {
                if (i)
                    words += ", ";
                words += hex_u64(v.word(i));
            }
            return "bits<" + std::to_string(t->width) + ">::of_words({" +
                   words + "})";
        }
        if (t->is_enum()) {
            for (const EnumMember& m : t->members)
                if (m.value == v)
                    return type_cpp(t) + "::" + sanitize(m.name);
            return "(" + type_cpp(t) + ")" + hex_u64(v.word(0));
        }
        // Struct literal, fields in declaration order.
        std::string expr = type_cpp(t) + "{";
        for (size_t i = 0; i < t->fields.size(); ++i) {
            const Field& f = t->fields[i];
            if (i)
                expr += ", ";
            expr += "." + sanitize(f.name) + " = " +
                    const_expr(f.type, v.slice(f.offset, f.type->width));
        }
        return expr + "}";
    }

    // -- Skeleton -------------------------------------------------------------
    void
    header()
    {
        line("// Generated by cuttlec from Koika design '" + d_.name() +
             "'.");
        line("// A cycle-accurate, debuggable C++ model: one function per");
        line("// rule, early exits on conflicts and aborts, minimized");
        line("// read-write sets (see DESIGN.md and the paper, section 3).");
        line("#pragma once");
        line();
        line("#include <cstdint>");
        line("#include <cstring>");
        line();
        line("#include \"cuttlesim.hpp\"");
        line();
        line("namespace cuttlesim::models {");
        line();
        line("class " + class_name() + " {");
        line("  public:");
        ++indent_;
    }

    void
    footer()
    {
        --indent_;
        line("};");
        line();
        line("} // namespace cuttlesim::models");
    }

    void
    emit_types()
    {
        for (const TypePtr& t : ordered_types_) {
            if (t->is_enum()) {
                KOIKA_CHECK(t->width <= 64);
                std::string decl = "enum class " + type_cpp(t) + " : " +
                                   underlying_type(t->width) + " { ";
                for (size_t i = 0; i < t->members.size(); ++i) {
                    if (i)
                        decl += ", ";
                    decl += sanitize(t->members[i].name) + " = " +
                            std::to_string(t->members[i].value.to_u64());
                }
                line(decl + " };");
            } else {
                line("struct " + type_cpp(t) + " {");
                {
                    Indent in(*this);
                    for (const Field& f : t->fields)
                        line(type_cpp(f.type) + " " + sanitize(f.name) +
                             "{};");
                    line("bool operator==(const " + type_cpp(t) +
                         "&) const = default;");
                }
                line("};");
            }
            line();
        }
    }

    void
    emit_registers_struct()
    {
        line("// Architectural state; initializers are the reset values.");
        line("struct registers_t {");
        {
            Indent in(*this);
            for (size_t r = 0; r < d_.num_registers(); ++r) {
                const RegInfo& reg = d_.reg((int)r);
                line(type_cpp(reg.type) + " " + reg_name((int)r) + " = " +
                     const_expr(reg.type, reg.init) + ";");
            }
        }
        line("};");
        line();
    }

    bool
    reg_tracked(int r) const
    {
        return !an_.reg_safe[(size_t)r];
    }

    void
    emit_rwsets()
    {
        line("// Read-write sets, kept only for registers the static");
        line("// analysis could not prove conflict-free.");
        line("struct rwset_t {");
        {
            Indent in(*this);
            line("bool rd1 : 1 = false;");
            line("bool wr0 : 1 = false;");
            line("bool wr1 : 1 = false;");
        }
        line("};");
        line("struct rwsets_t {");
        {
            Indent in(*this);
            bool any = false;
            for (size_t r = 0; r < d_.num_registers(); ++r) {
                if (reg_tracked((int)r)) {
                    line("rwset_t " + reg_name((int)r) + "{};");
                    any = true;
                }
            }
            if (!any)
                line("// all registers are safe");
        }
        line("};");
        line();
    }

    void
    emit_log()
    {
        line("struct log_t {");
        {
            Indent in(*this);
            line("rwsets_t rwset{};");
            line("registers_t data{};");
        }
        line("};");
        line();
        line("// Cycle log (committed) and accumulated rule log; their");
        line("// data fields double as the architectural state (merged");
        line("// data representation, paper section 3.2).");
        line("log_t Log{};");
        line("log_t log{};");
        line();
    }

    void
    emit_members()
    {
        size_t nsched = d_.schedule_order().size();
        line("uint64_t cycles = 0;");
        line("static constexpr size_t kNumRegs = " +
             std::to_string(d_.num_registers()) + ";");
        line("static constexpr size_t kNumRules = " +
             std::to_string(nsched) + ";");
        std::string widths;
        for (size_t r = 0; r < d_.num_registers(); ++r) {
            if (r)
                widths += ", ";
            widths += std::to_string(d_.reg((int)r).type->width);
        }
        line("static constexpr uint32_t kRegWidths[kNumRegs] = {" +
             widths + "};");
        if (nsched > 0) {
            std::string names;
            for (int r : d_.schedule_order()) {
                if (!names.empty())
                    names += ", ";
                names += string_literal(d_.rule(r).name);
            }
            line("static constexpr const char* kRuleNames[kNumRules] = {" +
                 names + "};");
        }
        if (opts_.counters && nsched > 0) {
            line("// Per-rule commit/abort counters: free architectural");
            line("// statistics (case study 4).");
            line("uint64_t commit_count[kNumRules] = {};");
            line("uint64_t abort_count[kNumRules] = {};");
            line("// Rules that committed during the most recent cycle.");
            line("bool last_fired[kNumRules] = {};");
        }
        if (opts_.counters && opts_.abort_reasons && nsched > 0) {
            line("// Why each abort happened (--instrument):");
            line("// [rule * num_abort_reasons + reason], reasons as in");
            line("// cuttlesim.hpp (guard, read conflict, write conflict).");
            line("uint64_t abort_reason_count[kNumRules * "
                 "num_abort_reasons] = {};");
        }
        if (opts_.coverage) {
            line("// Statement/branch coverage (--instrument): one slot");
            line("// per source AST node; increments only at classified");
            line("// statement and branch points, so counts line up with");
            line("// the interpreter tiers point by point.");
            line("static constexpr size_t kNumNodes = " +
                 std::to_string(d_.num_nodes()) + ";");
            line("uint64_t stmt_count[kNumNodes] = {};");
            line("uint64_t branch_taken_count[kNumNodes] = {};");
            line("uint64_t branch_not_taken_count[kNumNodes] = {};");
        }
        line();
    }

    // -- Combinational functions ------------------------------------------
    void
    emit_functions()
    {
        for (const auto& f : d_.functions()) {
            std::string sig = "static " + type_cpp(f->ret) + " " +
                              sanitize(f->name) + "(";
            scope_.assign((size_t)f->nslots, "");
            for (size_t i = 0; i < f->params.size(); ++i) {
                if (i)
                    sig += ", ";
                std::string pn = sanitize(f->params[i].first);
                sig += type_cpp(f->params[i].second) + " " + pn;
                scope_[i] = pn;
            }
            line(sig + ") {");
            {
                Indent in(*this);
                rule_ctx_ = -1; // pure context: no FAIL possible
                std::string result = materialize(f->body);
                line("return " + result + ";");
            }
            line("}");
            line();
        }
    }

    // -- Purity (w.r.t. C++ emission) ---------------------------------------
    bool
    is_pure(const Action* a)
    {
        switch (a->kind) {
          case ActionKind::kConst:
          case ActionKind::kVar:
            return true;
          case ActionKind::kRead:
            if (an_.ops[(size_t)a->id].may_fail)
                return false;
            // rd1 on a tracked register must record its mark.
            if (a->port == Port::p1 && reg_tracked(a->reg))
                return false;
            return true;
          case ActionKind::kUnop:
          case ActionKind::kGetField:
            return is_pure(a->a0);
          case ActionKind::kBinop:
            return is_pure(a->a0) && is_pure(a->a1);
          case ActionKind::kIf:
            return is_pure(a->a0) && is_pure(a->a1) && is_pure(a->a2);
          case ActionKind::kCall:
            for (const Action* arg : a->args)
                if (!is_pure(arg))
                    return false;
            return true;
          default:
            return false;
        }
    }

    // -- Pure expression rendering ------------------------------------------
    std::string
    emit_pure(const Action* a)
    {
        switch (a->kind) {
          case ActionKind::kConst:
            return const_expr(a->const_type, a->value);
          case ActionKind::kVar:
            return scope_[(size_t)a->slot];
          case ActionKind::kRead:
            return (a->port == Port::p0 ? "Log.data." : "log.data.") +
                   reg_name(a->reg);
          case ActionKind::kUnop:
            switch (a->op) {
              case Op::kNot:
                return "~" + paren(emit_pure(a->a0));
              case Op::kNeg:
                return paren(emit_pure(a->a0)) + ".neg()";
              case Op::kZExtL:
                return "zextl<" + std::to_string(a->imm0) + ">(" +
                       emit_pure(a->a0) + ")";
              case Op::kSExtL:
                return "sextl<" + std::to_string(a->imm0) + ">(" +
                       emit_pure(a->a0) + ")";
              case Op::kSlice:
                return "slice<" + std::to_string(a->imm0) + ", " +
                       std::to_string(a->imm1) + ">(" + emit_pure(a->a0) +
                       ")";
              default:
                panic("bad unop");
            }
          case ActionKind::kBinop:
            return emit_binop(a, emit_pure(a->a0), emit_pure(a->a1));
          case ActionKind::kGetField:
            return paren(emit_pure(a->a0)) + "." + sanitize(a->field);
          case ActionKind::kIf:
            return "(" + emit_pure(a->a0) + " ? " + emit_pure(a->a1) +
                   " : " + emit_pure(a->a2) + ")";
          case ActionKind::kCall: {
            std::string call = sanitize(a->fn->name) + "(";
            for (size_t i = 0; i < a->args.size(); ++i) {
                if (i)
                    call += ", ";
                call += emit_pure(a->args[i]);
            }
            return call + ")";
          }
          default:
            panic("emit_pure on impure node");
        }
    }

    static std::string
    paren(const std::string& e)
    {
        return "(" + e + ")";
    }

    std::string
    emit_binop(const Action* a, const std::string& x, const std::string& y)
    {
        auto infix = [&](const char* op) {
            return paren(x) + " " + op + " " + paren(y);
        };
        auto cmp = [&](const char* op) {
            return "bits<1>(" + infix(op) + ")";
        };
        switch (a->op) {
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
          case Op::kLts: return "bits<1>(lts(" + x + ", " + y + "))";
          case Op::kLes: return "bits<1>(les(" + x + ", " + y + "))";
          case Op::kGts: return "bits<1>(gts(" + x + ", " + y + "))";
          case Op::kGes: return "bits<1>(ges(" + x + ", " + y + "))";
          case Op::kLsl: return infix("<<");
          case Op::kLsr: return infix(">>");
          case Op::kAsr: return "asr(" + x + ", " + y + ")";
          case Op::kConcat: return "concat(" + x + ", " + y + ")";
          default: panic("bad binop");
        }
    }

    // -- Statement rendering --------------------------------------------------
    std::string
    fresh(const std::string& stem)
    {
        return stem + "_" + std::to_string(temp_counter_++);
    }

    /** Produce a C++ expression (possibly a temp) holding a's value. */
    std::string
    materialize(const Action* a)
    {
        if (is_pure(a))
            return emit_pure(a);
        std::string t = fresh("t");
        line(type_cpp(a->type) + " " + t + "{};");
        emit_stmt(a, &t);
        return t;
    }

    std::string
    fail_expr(const Action* fail_node)
    {
        KOIKA_CHECK(rule_ctx_ >= 0);
        std::string ret =
            an_.ops[(size_t)fail_node->id].clean_at_fail
                ? "return false;" // nothing to roll back
                : "return fail_" + sanitize(d_.rule(rule_ctx_).name) +
                      "();";
        if (!(opts_.counters && opts_.abort_reasons))
            return ret;
        const char* reason = "abort_guard";
        if (fail_node->kind == ActionKind::kRead)
            reason = "abort_read_conflict";
        else if (fail_node->kind == ActionKind::kWrite)
            reason = "abort_write_conflict";
        size_t pos = sched_pos_.at(rule_ctx_);
        return "{ ++abort_reason_count[" + std::to_string(pos) +
               " * num_abort_reasons + " + reason + "]; " + ret + " }";
    }

    void
    emit_stmt(const Action* a, const std::string* target)
    {
        // Coverage points count on entry, before the node can abort,
        // matching the interpreters (which count at eval entry). Marked
        // branch nodes must also emit a real if/else so both outcomes
        // have increment sites, so they bypass the pure shortcut.
        analysis::CoverKind ck =
            cov_kinds_.empty() ? analysis::CoverKind::kNone
                               : cov_kinds_[(size_t)a->id];
        if (ck != analysis::CoverKind::kNone)
            line("++stmt_count[" + std::to_string(a->id) + "];");
        if (is_pure(a) && ck != analysis::CoverKind::kBranch) {
            if (target != nullptr)
                line(*target + " = " + emit_pure(a) + ";");
            return;
        }
        switch (a->kind) {
          case ActionKind::kLet: {
            std::string vn =
                sanitize(a->var) + "_" + std::to_string(a->id);
            if (is_pure(a->a0)) {
                line(type_cpp(a->a0->type) + " " + vn + " = " +
                     emit_pure(a->a0) + ";");
            } else {
                line(type_cpp(a->a0->type) + " " + vn + "{};");
                emit_stmt(a->a0, &vn);
            }
            scope_[(size_t)a->slot] = vn;
            emit_stmt(a->a1, target);
            return;
          }

          case ActionKind::kAssign: {
            std::string vn = scope_[(size_t)a->slot];
            emit_stmt(a->a0, &vn);
            return;
          }

          case ActionKind::kSeq:
            emit_stmt(a->a0, nullptr);
            emit_stmt(a->a1, target);
            return;

          case ActionKind::kIf: {
            bool branch_point = ck == analysis::CoverKind::kBranch;
            std::string c = materialize(a->a0);
            line("if (" + c + ") {");
            {
                Indent in(*this);
                if (branch_point)
                    line("++branch_taken_count[" +
                         std::to_string(a->id) + "];");
                emit_stmt(a->a1, target);
            }
            // A branch point needs the else arm as an increment site
            // even when it would otherwise be elided.
            bool trivial_else = !branch_point && target == nullptr &&
                                a->a2->kind == ActionKind::kConst;
            if (trivial_else) {
                line("}");
            } else {
                line("} else {");
                {
                    Indent in(*this);
                    if (branch_point)
                        line("++branch_not_taken_count[" +
                             std::to_string(a->id) + "];");
                    emit_stmt(a->a2, target);
                }
                line("}");
            }
            return;
          }

          case ActionKind::kRead: {
            const analysis::OpInfo& op = an_.ops[(size_t)a->id];
            std::string rn = reg_name(a->reg);
            if (a->port == Port::p0) {
                if (op.may_fail)
                    line("if (Log.rwset." + rn + ".wr0 | Log.rwset." +
                         rn + ".wr1) " + fail_expr(a));
                if (target != nullptr)
                    line(*target + " = Log.data." + rn + ";");
            } else {
                if (op.may_fail)
                    line("if (Log.rwset." + rn + ".wr1) " + fail_expr(a));
                if (reg_tracked(a->reg))
                    line("log.rwset." + rn + ".rd1 = true;");
                if (target != nullptr)
                    line(*target + " = log.data." + rn + ";");
            }
            return;
          }

          case ActionKind::kWrite: {
            std::string v = materialize(a->a0);
            const analysis::OpInfo& op = an_.ops[(size_t)a->id];
            std::string rn = reg_name(a->reg);
            if (a->port == Port::p0) {
                if (op.may_fail)
                    line("if (log.rwset." + rn + ".rd1 | log.rwset." +
                         rn + ".wr0 | log.rwset." + rn + ".wr1) " +
                         fail_expr(a));
                if (reg_tracked(a->reg))
                    line("log.rwset." + rn + ".wr0 = true;");
            } else {
                if (op.may_fail)
                    line("if (log.rwset." + rn + ".wr1) " + fail_expr(a));
                if (reg_tracked(a->reg))
                    line("log.rwset." + rn + ".wr1 = true;");
            }
            line("log.data." + rn + " = " + v + ";");
            return;
          }

          case ActionKind::kGuard: {
            std::string c = materialize(a->a0);
            if (ck == analysis::CoverKind::kBranch) {
                // The fail path always returns, so the pass counter
                // after the if only increments when the guard holds.
                line("if (!" + paren(c) + ") { ++branch_not_taken_count[" +
                     std::to_string(a->id) + "]; " + fail_expr(a) + " }");
                line("++branch_taken_count[" + std::to_string(a->id) +
                     "];");
            } else {
                line("if (!" + paren(c) + ") " + fail_expr(a));
            }
            return;
          }

          case ActionKind::kUnop:
          case ActionKind::kBinop:
          case ActionKind::kGetField: {
            // Impure children: materialize them, then compose.
            std::string x = materialize(a->a0);
            std::string y =
                a->kind == ActionKind::kBinop ? materialize(a->a1) : "";
            if (target == nullptr)
                return; // value unused; children side effects done
            std::string expr;
            if (a->kind == ActionKind::kBinop) {
                expr = emit_binop(a, x, y);
            } else if (a->kind == ActionKind::kGetField) {
                expr = paren(x) + "." + sanitize(a->field);
            } else {
                expr = emit_unop_around(a, x);
            }
            line(*target + " = " + expr + ";");
            return;
          }

          case ActionKind::kSubstField: {
            std::string s = materialize(a->a0);
            std::string v = materialize(a->a1);
            if (target == nullptr)
                return;
            line(*target + " = " + s + ";");
            line(*target + "." + sanitize(a->field) + " = " + v + ";");
            return;
          }

          case ActionKind::kCall: {
            std::vector<std::string> args;
            for (const Action* arg : a->args)
                args.push_back(materialize(arg));
            if (target == nullptr)
                return;
            std::string call = sanitize(a->fn->name) + "(";
            for (size_t i = 0; i < args.size(); ++i) {
                if (i)
                    call += ", ";
                call += args[i];
            }
            line(*target + " = " + call + ");");
            return;
          }

          default:
            panic("unexpected impure node kind %s",
                  action_kind_name(a->kind));
        }
    }

    std::string
    emit_unop_around(const Action* a, const std::string& x)
    {
        switch (a->op) {
          case Op::kNot: return "~" + paren(x);
          case Op::kNeg: return paren(x) + ".neg()";
          case Op::kZExtL:
            return "zextl<" + std::to_string(a->imm0) + ">(" + x + ")";
          case Op::kSExtL:
            return "sextl<" + std::to_string(a->imm0) + ">(" + x + ")";
          case Op::kSlice:
            return "slice<" + std::to_string(a->imm0) + ", " +
                   std::to_string(a->imm1) + ">(" + x + ")";
          default:
            panic("bad unop");
        }
    }

    // -- Rules -----------------------------------------------------------------
    void
    emit_rule(int r)
    {
        const Rule& rule = d_.rule(r);
        const analysis::RuleSummary& summary = an_.rules[(size_t)r];
        std::string rn = sanitize(rule.name);

        // Footprint plans (§3.3 "Restrict commits and rollbacks").
        std::vector<int> fp_flags, fp_data;
        for (int reg : summary.footprint_tracked)
            if (reg_tracked(reg))
                fp_flags.push_back(reg);
        fp_data = summary.footprint_writes;
        bool full = fp_data.size() * 2 > d_.num_registers();

        line("// rule " + rule.name);
        if (summary.may_fail) {
            line("bool fail_" + rn + "() {");
            {
                Indent in(*this);
                if (full) {
                    line("log = Log;");
                } else {
                    for (int reg : fp_flags)
                        line("log.rwset." + reg_name(reg) +
                             " = Log.rwset." + reg_name(reg) + ";");
                    for (int reg : fp_data)
                        line("log.data." + reg_name(reg) + " = Log.data." +
                             reg_name(reg) + ";");
                }
                line("return false;");
            }
            line("}");
        }
        line("void commit_" + rn + "() {");
        {
            Indent in(*this);
            if (full) {
                line("Log = log;");
            } else {
                for (int reg : fp_flags)
                    line("Log.rwset." + reg_name(reg) + " = log.rwset." +
                         reg_name(reg) + ";");
                for (int reg : fp_data)
                    line("Log.data." + reg_name(reg) + " = log.data." +
                         reg_name(reg) + ";");
            }
        }
        line("}");
        line("bool rule_" + rn + "() {");
        {
            Indent in(*this);
            rule_ctx_ = r;
            scope_.assign((size_t)rule.nslots, "");
            emit_stmt(rule.body, nullptr);
            line("commit_" + rn + "();");
            line("return true;");
            rule_ctx_ = -1;
        }
        line("}");
        line();
    }

    void
    emit_cycle()
    {
        line("void cycle() {");
        {
            Indent in(*this);
            line("Log.rwset = {};");
            line("log.rwset = {};");
            size_t pos = 0;
            for (int r : d_.schedule_order()) {
                std::string call =
                    "rule_" + sanitize(d_.rule(r).name) + "()";
                if (opts_.counters) {
                    std::string p = std::to_string(pos);
                    line("last_fired[" + p + "] = " + call + ";");
                    line("if (last_fired[" + p + "]) ++commit_count[" + p +
                         "]; else ++abort_count[" + p + "];");
                } else {
                    line(call + ";");
                }
                ++pos;
            }
            line("++cycles;");
        }
        line("}");
        line();
    }

    // -- Pack / unpack for the harness ---------------------------------------
    void
    emit_pack_value(const TypePtr& t, const std::string& expr)
    {
        if (t->is_bits()) {
            line("wr.put_bits(" + expr + ");");
        } else if (t->is_enum()) {
            line("wr.put((uint64_t)" + expr + ", " +
                 std::to_string(t->width) + ");");
        } else {
            // LSB-first: last declared field first.
            for (size_t i = t->fields.size(); i-- > 0;)
                emit_pack_value(t->fields[i].type,
                                expr + "." + sanitize(t->fields[i].name));
        }
    }

    void
    emit_unpack_value(const TypePtr& t, const std::string& target)
    {
        if (t->is_bits()) {
            line(target + " = rd.get_bits<" + std::to_string(t->width) +
                 ">();");
        } else if (t->is_enum()) {
            line(target + " = (" + type_cpp(t) + ")rd.get(" +
                 std::to_string(t->width) + ");");
        } else {
            for (size_t i = t->fields.size(); i-- > 0;)
                emit_unpack_value(t->fields[i].type,
                                  target + "." +
                                      sanitize(t->fields[i].name));
        }
    }

    void
    emit_pack_unpack()
    {
        line("// Flat register access for the test/bench harness.");
        line("void get_reg_words(size_t r, uint64_t* out) const {");
        {
            Indent in(*this);
            line("std::memset(out, 0, 8 * sizeof(uint64_t));");
            line("word_writer wr{out};");
            line("switch (r) {");
            for (size_t r = 0; r < d_.num_registers(); ++r) {
                line("  case " + std::to_string(r) + ": {");
                {
                    Indent in2(*this);
                    emit_pack_value(d_.reg((int)r).type,
                                    "Log.data." + reg_name((int)r));
                    line("break;");
                }
                line("  }");
            }
            line("}");
            line("(void)wr;");
        }
        line("}");
        line();
        line("void set_reg_words(size_t r, const uint64_t* in) {");
        {
            Indent in(*this);
            line("word_reader rd{in};");
            line("switch (r) {");
            for (size_t r = 0; r < d_.num_registers(); ++r) {
                line("  case " + std::to_string(r) + ": {");
                {
                    Indent in2(*this);
                    emit_unpack_value(d_.reg((int)r).type,
                                      "Log.data." + reg_name((int)r));
                    line("log.data." + reg_name((int)r) + " = Log.data." +
                         reg_name((int)r) + ";");
                    line("break;");
                }
                line("  }");
            }
            line("}");
            line("(void)rd;");
        }
        line("}");
        line();
        emit_flat_regs();
    }

    // All registers at once, in sim::FlatRegsModel's layout: each
    // register ceil(width/64) words from its own word offset, zero above
    // its width. Every bits or enum leaf sits at a bit position known
    // here, so each word is a few shifts and ors of the fields that
    // overlap it: straight-line code, no loops and no switch.
    struct Leaf
    {
        TypePtr type;
        std::string expr;
        /** Bit position from the flat buffer's start. */
        size_t pos;
    };

    void
    collect_leaves(const TypePtr& t, const std::string& expr, size_t pos,
                   std::vector<Leaf>& out)
    {
        if (t->is_bits() || t->is_enum()) {
            if (t->width > 0)
                out.push_back({t, expr, pos});
            return;
        }
        for (const Field& f : t->fields)
            collect_leaves(f.type, expr + "." + sanitize(f.name),
                           pos + f.offset, out);
    }

    /** Bits [pos, pos + width) of the buffer `in`, width <= 64. */
    static std::string
    extract_bits(size_t pos, uint32_t width)
    {
        size_t word = pos / 64, off = pos % 64;
        std::string v = "in[" + std::to_string(word) + "]";
        if (off != 0)
            v = "(" + v + " >> " + std::to_string(off) + ")";
        if (off + width > 64)
            v = "(" + v + " | (in[" + std::to_string(word + 1) + "] << " +
                std::to_string(64 - off) + "))";
        if (width < 64 && off + width != 64)
            v = "(" + v + " & " + hex_u64((uint64_t{1} << width) - 1) + ")";
        return v;
    }

    void
    emit_flat_regs()
    {
        std::vector<Leaf> leaves;
        size_t words = 0;
        for (size_t r = 0; r < d_.num_registers(); ++r) {
            const TypePtr& t = d_.reg((int)r).type;
            collect_leaves(t, "Log.data." + reg_name((int)r), 64 * words,
                           leaves);
            words += (t->width + 63) / 64;
        }
        line("static constexpr size_t kNumRegWords = " +
             std::to_string(words) + ";");
        line("void pack_regs(uint64_t* out) const {");
        {
            Indent in(*this);
            // The first piece stored to a word assigns it; later ones
            // or into it.
            std::vector<bool> stored(words, false);
            auto store = [&](size_t word, const std::string& v) {
                line("out[" + std::to_string(word) + "] " +
                     (stored[word] ? "|= " : "= ") + v + ";");
                stored[word] = true;
            };
            for (const Leaf& leaf : leaves) {
                uint32_t w = leaf.type->width;
                for (uint32_t i = 0; i * 64 < w; ++i) {
                    std::string piece =
                        leaf.type->is_enum()
                            ? "(uint64_t)" + leaf.expr
                            : "::cuttlesim::detail::word_of(" + leaf.expr +
                                  ", " + std::to_string(i) + ")";
                    size_t pos = leaf.pos + 64 * (size_t)i;
                    size_t off = pos % 64;
                    store(pos / 64,
                          off == 0 ? piece
                                   : piece + " << " + std::to_string(off));
                    if (off + std::min<uint32_t>(64, w - 64 * i) > 64)
                        store(pos / 64 + 1, "(" + piece + " >> " +
                                                std::to_string(64 - off) +
                                                ")");
                }
            }
            for (size_t word = 0; word < words; ++word)
                if (!stored[word])
                    line("out[" + std::to_string(word) + "] = 0;");
            line("(void)out;");
        }
        line("}");
        line();
        line("void unpack_regs(const uint64_t* in) {");
        {
            Indent in(*this);
            for (const Leaf& leaf : leaves) {
                uint32_t w = leaf.type->width;
                if (leaf.type->is_enum()) {
                    line(leaf.expr + " = (" + type_cpp(leaf.type) + ")" +
                         extract_bits(leaf.pos, w) + ";");
                } else if (w <= 64) {
                    line(leaf.expr + " = " + type_cpp(leaf.type) + "(" +
                         extract_bits(leaf.pos, w) + ");");
                } else {
                    for (uint32_t i = 0; i * 64 < w; ++i)
                        line("::cuttlesim::detail::set_word(" + leaf.expr +
                             ", " + std::to_string(i) + ", " +
                             extract_bits(leaf.pos + 64 * (size_t)i,
                                          std::min<uint32_t>(64,
                                                             w - 64 * i)) +
                             ");");
                }
            }
            line("log.data = Log.data;");
            line("(void)in;");
        }
        line("}");
    }

    const Design& d_;
    const analysis::DesignAnalysis& an_;
    EmitOptions opts_;
    std::ostringstream out_;
    int indent_ = 0;
    int temp_counter_ = 0;
    int rule_ctx_ = -1;
    std::map<int, size_t> sched_pos_;
    std::vector<std::string> reg_names_;
    std::vector<std::string> scope_;
    std::map<std::string, std::string> type_names_;
    std::set<std::string> used_type_names_;
    std::vector<TypePtr> ordered_types_;
    /** Empty unless opts_.coverage (then indexed by Action::id). */
    std::vector<analysis::CoverKind> cov_kinds_;
};

} // namespace

std::string
model_class_name(const Design& design)
{
    return sanitize(design.name());
}

std::string
emit_model(const Design& design, const analysis::DesignAnalysis& an,
           const EmitOptions& options)
{
    KOIKA_CHECK(design.typechecked);
    return Emitter(design, an, options).run();
}

std::string
emit_model(const Design& design, const EmitOptions& options)
{
    return emit_model(design, analysis::analyze(design), options);
}

size_t
model_sloc(const Design& design)
{
    std::string text = emit_model(design);
    size_t lines = 0;
    bool nonblank = false;
    for (char c : text) {
        if (c == '\n') {
            if (nonblank)
                ++lines;
            nonblank = false;
        } else if (c != ' ') {
            nonblank = true;
        }
    }
    return lines;
}

} // namespace koika::codegen
