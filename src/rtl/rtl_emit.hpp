/**
 * @file
 * Netlist -> C++ emitter: the compiled RTL simulator.
 *
 * This is how cycle-based Verilog simulators (Verilator and the
 * Verilog-to-C compilers of the related work) actually execute: the
 * netlist is translated into straight-line C++ that evaluates every
 * combinational node every cycle, then latches registers. Emitting and
 * compiling this next to the Cuttlesim model gives Figure 1 its honest,
 * compiled-vs-compiled comparison — the difference left is exactly the
 * paper's point: the RTL model must compute every rule's datapath every
 * cycle, while the Cuttlesim model exits rules early.
 *
 * The generated class has the same flat register interface
 * (get_reg_words / set_reg_words / pack_regs / unpack_regs / kNumRegs /
 * cycles) as Cuttlesim models, so the same harness and the same
 * peripherals drive both.
 */
#pragma once

#include <string>

#include "rtl/netlist.hpp"

namespace koika::rtl {

/** Generate a compiled-netlist model class named `class_name`. */
std::string emit_rtl_model(const Netlist& netlist,
                           const std::string& class_name);

} // namespace koika::rtl
