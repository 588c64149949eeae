// SPICE-subset netlist reader and writer.
//
// Supported cards (case-insensitive, '*' comments, engineering suffixes):
//   R<name> n1 n2 value            resistor
//   C<name> n1 n2 value            capacitor
//   L<name> n1 n2 value            inductor
//   K<name> Lname1 Lname2 k        mutual inductive coupling
//   I<name> n1 n2 value            independent current source
//   .port <name> n1 [n2]           terminal pair exposed in Z(s) (top level)
//   .subckt <name> pin1 [pin2 …]   hierarchical definition
//   .ends [name]                   end of definition
//   X<name> n1 … nk <subname>      subcircuit instance (flattened on parse;
//                                  internal nodes become "<inst>.<node>")
//   .end                           optional terminator
//
// Node identifiers are arbitrary tokens; "0" and "gnd" map to the datum
// node. Other nodes are numbered 1, 2, … in order of first appearance,
// left to right within a card. The writer emits the same dialect, so
// write→parse round-trips.
#pragma once

#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "circuit/netlist.hpp"

namespace sympvl {

/// Default element budget of the parsers: no limit.
inline constexpr Index kUnlimitedElements = std::numeric_limits<Index>::max();

/// Parses a netlist from text. Every failure — malformed input, a bad
/// element value, a subcircuit expansion past `max_elements` cards —
/// throws sympvl::Error with code kIo, stage "parser" and the line number
/// as the context index. The budget counts each element and each
/// subcircuit instance the flattener would emit, and also bounds the
/// bytes of the prefixed names and keys an expansion builds at 64 per
/// element of it. Both are checked before an instance is expanded.
Netlist parse_netlist(std::string_view text,
                      Index max_elements = kUnlimitedElements);

/// Reads the stream to its end, then parses it as parse_netlist(text).
Netlist parse_netlist(std::istream& in, Index max_elements = kUnlimitedElements);

/// Reads and parses a netlist file.
Netlist parse_netlist_file(const std::string& path,
                           Index max_elements = kUnlimitedElements);

/// Serializes `netlist` in the dialect above (nodes as integers, datum "0").
std::string write_netlist(const Netlist& netlist, const std::string& title = "");

/// Wraps a netlist as a reusable `.subckt` block whose pins are the
/// netlist's ports (each must be ground-referenced). This is how a
/// SyMPVL-synthesized reduced circuit (Section 6) is handed to an existing
/// circuit simulator.
std::string write_subckt(const Netlist& netlist, const std::string& name,
                         const std::string& title = "");

/// Parses an engineering-notation value: 4.7k, 100n, 2meg, 1e-12, 3p...
/// Grammar: [+-] digits [. digits] [e [+-] digits] [suffix], where the
/// suffix is letters whose head is a scale (f p n u m k meg g t, SPICE
/// semantics, case insensitive) and whose tail (a unit such as "F") is
/// ignored. The result must be finite. Throws Error(kIo) otherwise.
double parse_value(std::string_view token);

}  // namespace sympvl
