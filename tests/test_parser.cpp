#include "circuit/parser.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "circuit/mna.hpp"
#include "gen/package.hpp"
#include "gen/power_grid.hpp"
#include "netlist_bomb.hpp"
#include "sim/ac.hpp"

namespace sympvl {
namespace {

TEST(ParseValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_value("10"), 10.0);
  EXPECT_DOUBLE_EQ(parse_value("4.7"), 4.7);
  EXPECT_DOUBLE_EQ(parse_value("1e-12"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_value("-3.5e2"), -350.0);
}

TEST(ParseValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_value("2.2K"), 2.2e3);
  EXPECT_DOUBLE_EQ(parse_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("1MEG"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("5m"), 5e-3);
  EXPECT_DOUBLE_EQ(parse_value("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(parse_value("7n"), 7e-9);
  EXPECT_DOUBLE_EQ(parse_value("2p"), 2e-12);
  EXPECT_DOUBLE_EQ(parse_value("1f"), 1e-15);
  EXPECT_DOUBLE_EQ(parse_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_value("1t"), 1e12);
}

TEST(ParseValue, UnitTailsIgnored) {
  EXPECT_DOUBLE_EQ(parse_value("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_value("2kOhm"), 2e3);
}

TEST(ParseValue, Malformed) {
  EXPECT_THROW(parse_value("abc"), Error);
  EXPECT_THROW(parse_value(""), Error);
  EXPECT_THROW(parse_value("1x"), Error);
}

TEST(ParseValue, GrammarIsSignMantissaExponentSuffix) {
  EXPECT_DOUBLE_EQ(parse_value("+5"), 5.0);
  EXPECT_DOUBLE_EQ(parse_value(".5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_value("5."), 5.0);
  EXPECT_DOUBLE_EQ(parse_value("2E3"), 2e3);
  EXPECT_DOUBLE_EQ(parse_value("1e-3k"), 1.0);
  EXPECT_DOUBLE_EQ(parse_value("1.5e+2meg"), 1.5e8);
  // Not decimal, not finite, or trailing garbage: coded errors.
  for (const char* bad :
       {"inf", "-inf", "nan", "infinity", "0x10", "1e999", "1e308k", "1e-999",
        " 1", "1 ", "+", "-", ".", "e5", "1e", "1e+", "1.2.3", "1k!", "1_k",
        "++1", "1,5", "1e5x"}) {
    try {
      parse_value(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIo) << bad;
    }
  }
}

TEST(Parser, NonFiniteValueIsACodedErrorWithItsLine) {
  for (const char* text : {"R1 1 0 1\nC2 1 0 inf\n.port p 1\n",
                           "R1 1 0 1\nC2 1 0 nan\n.port p 1\n",
                           "R1 1 0 1\nC2 1 0 0x10\n.port p 1\n"}) {
    try {
      parse_netlist(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIo);
      EXPECT_EQ(e.context().index, 2);
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
  }
}

TEST(Parser, SimpleRcNetlist) {
  const Netlist nl = parse_netlist(R"(
* RC divider
R1 in mid 1k
R2 mid 0 1k
C1 mid gnd 10p
.port in in
.end
)");
  EXPECT_EQ(nl.resistors().size(), 2u);
  EXPECT_EQ(nl.capacitors().size(), 1u);
  EXPECT_EQ(nl.port_count(), 1);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].resistance, 1000.0);
  EXPECT_DOUBLE_EQ(nl.capacitors()[0].capacitance, 1e-11);
}

TEST(Parser, GndAliasesToDatum) {
  const Netlist nl = parse_netlist("R1 a gnd 5\nR2 b 0 5\n.port p a\n");
  EXPECT_EQ(nl.resistors()[0].n2, 0);
  EXPECT_EQ(nl.resistors()[1].n2, 0);
}

TEST(Parser, MutualInductance) {
  const Netlist nl = parse_netlist(R"(
L1 a 0 1n
L2 b 0 2n
K12 L1 L2 0.5
.port p a
)");
  ASSERT_EQ(nl.mutuals().size(), 1u);
  EXPECT_EQ(nl.mutuals()[0].l1, 0);
  EXPECT_EQ(nl.mutuals()[0].l2, 1);
  EXPECT_DOUBLE_EQ(nl.mutuals()[0].coupling, 0.5);
}

TEST(Parser, CurrentSource) {
  const Netlist nl = parse_netlist("I1 0 a 1m\nR1 a 0 50\n.port p a\n");
  ASSERT_EQ(nl.current_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.current_sources()[0].value, 1e-3);
}

TEST(Parser, CommentsAndBlankLines) {
  const Netlist nl = parse_netlist(R"(
* full-line comment
; also a comment

R1 a 0 10 * trailing comment
.port p a
)");
  EXPECT_EQ(nl.resistors().size(), 1u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_netlist("R1 a 0 10\nXbogus 1 2 3\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, BadCardArity) {
  EXPECT_THROW(parse_netlist("R1 a 0\n"), Error);
  EXPECT_THROW(parse_netlist("K1 L1 L2 0.5\n"), Error);  // unknown inductors
  EXPECT_THROW(parse_netlist(".port\n"), Error);
}

TEST(Parser, StopsAtEnd) {
  const Netlist nl = parse_netlist("R1 a 0 1\n.port p a\n.end\nR2 b 0 1\n");
  EXPECT_EQ(nl.resistors().size(), 1u);
}

TEST(Parser, SubcktFlattening) {
  // One RC section defined once, instanced twice in series.
  const Netlist nl = parse_netlist(R"(
.subckt rcsec in out
Rs in out 100
Cs out 0 1p
.ends rcsec
X1 a b rcsec
X2 b c rcsec
Rload c 0 1k
.port drive a
)");
  EXPECT_EQ(nl.resistors().size(), 3u);
  EXPECT_EQ(nl.capacitors().size(), 2u);
  // Flattened names carry the instance prefix.
  EXPECT_EQ(nl.resistors()[0].name, "x1.Rs");
  EXPECT_EQ(nl.capacitors()[1].name, "x2.Cs");

  // Same transfer function as the hand-flattened circuit.
  Netlist hand;
  hand.add_resistor(1, 2, 100.0);
  hand.add_capacitor(2, 0, 1e-12);
  hand.add_resistor(2, 3, 100.0);
  hand.add_capacitor(3, 0, 1e-12);
  hand.add_resistor(3, 0, 1000.0);
  hand.add_port(1, 0);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex za = ac_z_matrix(build_mna(nl), s)(0, 0);
    const Complex zb = ac_z_matrix(build_mna(hand), s)(0, 0);
    EXPECT_NEAR(std::abs(za - zb), 0.0, 1e-10 * std::abs(zb)) << f;
  }
}

TEST(Parser, SubcktGroundPin) {
  // A pin wired to ground in the parent must land on the datum node.
  const Netlist nl = parse_netlist(R"(
.subckt load a ref
Rl a ref 50
.ends
X1 in 0 load
C1 in 0 1p
.port p in
)");
  ASSERT_EQ(nl.resistors().size(), 1u);
  EXPECT_EQ(nl.resistors()[0].n2, 0);
  EXPECT_EQ(nl.node_count(), 2);  // only "in" beyond the datum
}

TEST(Parser, SubcktPinsMatchInAnyCase) {
  // Pin names, subcircuit names and their uses in the body may differ in
  // case; every spelling wires the pins to the parent nodes.
  for (const char* header : {".subckt cell A B", ".subckt cell a b",
                             ".subckt CELL A b", ".subckt Cell a B"}) {
    const Netlist nl = parse_netlist(std::string(header) + R"(
R1 A b 1k
C1 B 0 1p
.ends
X1 in out cell
R2 out 0 1k
.port p in
)");
    SCOPED_TRACE(header);
    EXPECT_EQ(nl.node_count(), 3);  // in = 1, out = 2, beyond the datum
    ASSERT_EQ(nl.resistors().size(), 2u);
    EXPECT_EQ(nl.resistors()[0].n1, 1);
    EXPECT_EQ(nl.resistors()[0].n2, 2);
    ASSERT_EQ(nl.capacitors().size(), 1u);
    EXPECT_EQ(nl.capacitors()[0].n1, 2);
    EXPECT_EQ(nl.capacitors()[0].n2, 0);
  }
}

TEST(Parser, NestedSubcktInstances) {
  const Netlist nl = parse_netlist(R"(
.subckt unit a b
Ru a b 10
.ends
.subckt pair x y
X1 x m unit
X2 m y unit
.ends
Xtop in out pair
Rterm out 0 100
C1 in 0 1p
.port p in
)");
  EXPECT_EQ(nl.resistors().size(), 3u);
  // DC resistance: 10 + 10 + 100.
  const CMat z = ac_z_matrix(build_mna(nl), Complex(0.0, 0.0));
  EXPECT_NEAR(z(0, 0).real(), 120.0, 1e-9);
}

TEST(Parser, SubcktWithMutualInductors) {
  const Netlist nl = parse_netlist(R"(
.subckt xfmr p s
L1 p 0 1n
L2 s 0 4n
K1 L1 L2 0.5
.ends
Xa in out xfmr
Rload out 0 50
.port drive in
)");
  ASSERT_EQ(nl.mutuals().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.mutuals()[0].coupling, 0.5);
}

TEST(Parser, SubcktErrors) {
  EXPECT_THROW(parse_netlist("X1 a b missing\n"), Error);  // unknown def
  EXPECT_THROW(parse_netlist(".subckt s a\nRx a 0 1\n"), Error);  // unterminated
  EXPECT_THROW(parse_netlist(".subckt s a\n.ends t\n"), Error);  // name mismatch
  EXPECT_THROW(parse_netlist(R"(
.subckt s a
.subckt t b
.ends
.ends
)"),
               Error);  // nested definitions
  EXPECT_THROW(parse_netlist(R"(
.subckt s a b
Rs a b 1
.ends
X1 n1 s
.port p n1
)"),
               Error);  // wrong pin count
  EXPECT_THROW(parse_netlist(R"(
.subckt s a
.port p a
.ends
X1 n1 s
)"),
               Error);  // .port inside a subckt
}

TEST(Parser, WriteSubcktRoundTrip) {
  // Export a small netlist as a subckt, instance it behind a resistor and
  // verify the composite transfer function.
  Netlist block;
  block.add_resistor(1, 2, 100.0);
  block.add_capacitor(2, 0, 2e-12);
  block.add_resistor(2, 0, 400.0);
  block.add_port(1, 0, "in");
  const std::string sub = write_subckt(block, "blk", "exported block");

  const std::string full = sub + R"(
Rdrv top 1 50
X1 1 blk
C0 top 0 1f
.port p top
)";
  // X pins: block has one port at node "1" -> pin name "1".
  const Netlist nl = parse_netlist(full);
  const Complex z0 = ac_z_matrix(build_mna(nl), Complex(0.0, 0.0))(0, 0);
  EXPECT_NEAR(z0.real(), 50.0 + 100.0 + 400.0, 1e-8);
}

TEST(Parser, WriteSubcktRejectsFloatingPorts) {
  Netlist block;
  block.add_resistor(1, 2, 10.0);
  block.add_capacitor(1, 0, 1e-12);
  block.add_capacitor(2, 0, 1e-12);
  block.add_port(1, 2);  // not ground-referenced
  EXPECT_THROW(write_subckt(block, "b"), Error);
}

TEST(Parser, WriteParseRoundTripPreservesTransferFunction) {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 400.0);
  nl.add_capacitor(2, 0, 2e-12);
  const Index l1 = nl.add_inductor(1, 3, 1e-9);
  const Index l2 = nl.add_inductor(3, 0, 2e-9);
  nl.add_mutual(l1, l2, 0.3);
  nl.add_port(1, 0, "in");

  const std::string text = write_netlist(nl, "round trip");
  const Netlist back = parse_netlist(text);
  EXPECT_EQ(back.resistors().size(), nl.resistors().size());
  EXPECT_EQ(back.inductors().size(), nl.inductors().size());
  EXPECT_EQ(back.mutuals().size(), nl.mutuals().size());

  // The transfer function must be identical even if node numbering moved.
  const MnaSystem s1 = build_mna(nl, MnaForm::kGeneral);
  const MnaSystem s2 = build_mna(back, MnaForm::kGeneral);
  for (double f : {1e6, 1e8, 1e10}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat z1 = ac_z_matrix(s1, s);
    const CMat z2 = ac_z_matrix(s2, s);
    EXPECT_NEAR(std::abs(z1(0, 0) - z2(0, 0)), 0.0,
                1e-9 * std::abs(z1(0, 0)));
  }
}

// Node ids of every card in writer order: R, C, L, I, then ports.
std::vector<Index> card_nodes(const Netlist& nl) {
  std::vector<Index> ids;
  for (const auto& r : nl.resistors()) ids.insert(ids.end(), {r.n1, r.n2});
  for (const auto& c : nl.capacitors()) ids.insert(ids.end(), {c.n1, c.n2});
  for (const auto& l : nl.inductors()) ids.insert(ids.end(), {l.n1, l.n2});
  for (const auto& s : nl.current_sources()) ids.insert(ids.end(), {s.n1, s.n2});
  for (const auto& p : nl.ports()) ids.insert(ids.end(), {p.n1, p.n2});
  return ids;
}

template <typename T>
void expect_same_sparse(const SparseMatrix<T>& a, const SparseMatrix<T>& b) {
  EXPECT_EQ(a.colptr(), b.colptr());
  EXPECT_EQ(a.rowind(), b.rowind());
  EXPECT_EQ(a.values(), b.values());  // bit for bit
}

void expect_round_trip_keeps_numbering(const Netlist& source) {
  // Parsed back, nodes are numbered by first appearance, left to right.
  std::vector<Index> id(static_cast<size_t>(source.node_count()), -1);
  id[0] = 0;
  Index next = 1;
  std::vector<Index> expected;
  for (const Index n : card_nodes(source)) {
    Index& k = id[static_cast<size_t>(n)];
    if (k < 0) k = next++;
    expected.push_back(k);
  }
  const Netlist once = parse_netlist(write_netlist(source));
  EXPECT_EQ(card_nodes(once), expected);

  // Written and parsed again, every node keeps its id, so G, C and B come
  // out bit for bit.
  const Netlist twice = parse_netlist(write_netlist(once));
  EXPECT_EQ(card_nodes(twice), card_nodes(once));
  const MnaSystem a = build_mna(once);
  const MnaSystem b = build_mna(twice);
  expect_same_sparse(a.G, b.G);
  expect_same_sparse(a.C, b.C);
  ASSERT_EQ(a.B.rows(), b.B.rows());
  ASSERT_EQ(a.B.cols(), b.B.cols());
  for (Index i = 0; i < a.B.rows(); ++i)
    for (Index j = 0; j < a.B.cols(); ++j) EXPECT_EQ(a.B(i, j), b.B(i, j));
}

TEST(Parser, NodesNumberedByFirstAppearanceLeftToRight) {
  const Netlist nl = parse_netlist("R1 b a 1\nR2 c b 1\nC1 d 0 1p\n.port p c d\n");
  EXPECT_EQ(nl.resistors()[0].n1, 1);  // b
  EXPECT_EQ(nl.resistors()[0].n2, 2);  // a
  EXPECT_EQ(nl.resistors()[1].n1, 3);  // c
  EXPECT_EQ(nl.capacitors()[0].n1, 4);  // d
  EXPECT_EQ(nl.ports()[0].n1, 3);
  EXPECT_EQ(nl.ports()[0].n2, 4);
}

TEST(Parser, WriteParseRoundTripKeepsNodeIdsOfGridAndPackage) {
  PowerGridOptions grid;
  grid.rows = grid.cols = 32;
  grid.ports = 8;
  expect_round_trip_keeps_numbering(make_power_grid(grid).netlist);
  expect_round_trip_keeps_numbering(make_package_circuit({}).netlist);
}

TEST(Parser, StringStreamAndFileInputAgree) {
  const std::string text = write_netlist(make_package_circuit({}).netlist);
  const Netlist a = parse_netlist(text);
  std::istringstream in(text);
  const Netlist b = parse_netlist(in);
  const std::string path = ::testing::TempDir() + "parser_input.sp";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const Netlist c = parse_netlist_file(path);
  std::remove(path.c_str());
  for (const Netlist* other : {&b, &c}) {
    EXPECT_EQ(write_netlist(*other), write_netlist(a));
    EXPECT_EQ(other->node_count(), a.node_count());
  }
  try {
    parse_netlist_file(path);  // removed above
    FAIL() << "opened a missing file";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

TEST(Parser, ForwardReferenceToSubcktKeepsCardOrder) {
  const Netlist nl = parse_netlist(R"(
R0 in a 5
X1 a b rcsec
Rload b 0 1k
.subckt rcsec p q
Rs p q 100
Cs q 0 1p
.ends
.port drive in
)");
  ASSERT_EQ(nl.resistors().size(), 3u);
  EXPECT_EQ(nl.resistors()[0].name, "R0");
  EXPECT_EQ(nl.resistors()[1].name, "x1.Rs");
  EXPECT_EQ(nl.resistors()[2].name, "Rload");
  EXPECT_EQ(nl.resistors()[1].n1, 2);  // a, numbered before b
  EXPECT_EQ(nl.resistors()[1].n2, 3);
}

void expect_coded(const std::string& text, Index line, const char* what) {
  try {
    parse_netlist(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo) << e.what();
    EXPECT_EQ(e.context().stage, "parser");
    EXPECT_EQ(e.context().index, line) << e.what();
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(Parser, EveryFailureIsCodedWithItsLine) {
  expect_coded(".subckt s a\nRx a 0 1\n", 1, "unterminated .subckt");
  expect_coded(".subckt s a b\nX1 a b s\n.ends\nX0 n 0 s\n.port p n\n", 2,
               "recursive subcircuit");
  expect_coded(".subckt s a b\nX1 a b t\n.ends\n.subckt t a b\nX1 a b s\n"
               ".ends\nX0 n 0 s\n.port p n\n",
               5, "recursive subcircuit");
  // Same inductor name twice in one scope: a K card would be ambiguous.
  expect_coded("L1 a 0 1n\nl1 b 0 1n\nK1 L1 L1 0.5\n", 2, "duplicate inductor");
  expect_coded("K1 La Lb 0.5\n", 1, "unknown inductor");
  // Netlist checks surface as parser errors of the offending card.
  expect_coded("R1 a 0 1\nR2 a a 1\n", 2, "shorted");
  expect_coded("R1 a 0 1\nC1 a 0 -1p\n", 2, "positive");
  expect_coded("L1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 1.5\n", 3, "coupling");
  expect_coded("R1 a 0 1\n.ends\n", 2, ".ends without");
  expect_coded(".subckt s a\n.ends t\n", 2, "does not match");
  expect_coded(".bogus 1 2\n", 1, "unknown directive");
}

TEST(Parser, DuplicateInductorNamesInSeparateScopesAreFine) {
  const Netlist nl = parse_netlist(R"(
.subckt xfmr p s
L1 p 0 1n
L2 s 0 4n
K1 L1 L2 0.5
.ends
L1 in 0 1n
Xa in out xfmr
Xb out mid xfmr
R1 mid 0 50
.port drive in
)");
  EXPECT_EQ(nl.inductors().size(), 5u);
  ASSERT_EQ(nl.mutuals().size(), 2u);
  EXPECT_EQ(nl.inductors()[static_cast<size_t>(nl.mutuals()[1].l1)].name, "xb.L1");
}

TEST(Parser, DeepNestingLimit) {
  // 32 nested levels are accepted, 33 are not.
  auto chain = [](int levels) {
    std::string text = ".subckt s0 a b\nR1 a b 1\n.ends\n";
    for (int k = 1; k < levels; ++k)
      text += ".subckt s" + std::to_string(k) + " a b\nX1 a b s" +
              std::to_string(k - 1) + "\n.ends\n";
    return text + "X0 n 0 s" + std::to_string(levels - 1) + "\n.port p n\n";
  };
  EXPECT_EQ(parse_netlist(chain(32)).resistors().size(), 1u);
  // Reported at the reference that is one level too deep: s1's use of s0.
  expect_coded(chain(33), 5, "nested deeper than 32");
}

TEST(Parser, ExpansionBudgetIsCheckedBeforeExpanding) {
  // Within budget: 1 + 10·(1 + 1) + 1 cards for two levels (X, X×10,
  // R×10, .port).
  const std::string two = expansion_bomb(1);
  EXPECT_EQ(parse_netlist(two, 22).resistors().size(), 10u);
  try {
    parse_netlist(two, 21);
    ADD_FAILURE() << "budget of 21 cards not enforced";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("limit of 21 elements"), std::string::npos)
        << e.what();
  }
  // Six and nine levels (10^6 and 10^9 elements) fail at their top-level
  // instance, without expanding anything.
  for (const int levels : {6, 9}) {
    const std::string bomb = expansion_bomb(levels);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      parse_netlist(bomb, Index(2) << 20);
      ADD_FAILURE() << levels << "-level bomb parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIo);
      EXPECT_EQ(e.context().index, 3 + 12 * levels + 1) << e.what();
      EXPECT_NE(std::string(e.what()).find("limit of 2097152 elements"),
                std::string::npos)
          << e.what();
    }
    const double s = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    EXPECT_LT(s, 0.25) << levels << " levels";
  }
  // Unlimited by default.
  EXPECT_EQ(parse_netlist(expansion_bomb(3)).resistors().size(), 1000u);
}

TEST(Parser, ExpansionNameBytesAreBudgetedBeforeExpanding) {
  // Five levels (10^5 resistors, 211,111 cards) fit the card budget, but
  // a 1 MB top-level instance name would prefix every expanded name.
  const std::string bomb = expansion_bomb(5, "X" + std::string(1 << 20, 'a'));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    parse_netlist(bomb, Index(2) << 20);
    ADD_FAILURE() << "long-named bomb parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_EQ(e.context().index, 3 + 12 * 5 + 1) << e.what();
    EXPECT_NE(std::string(e.what()).find("more than 134217728 bytes of names"),
              std::string::npos)
        << e.what();
  }
  const double s = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(s, 0.25);
  // Deep short names stay within it: 10^4 resistors under a 4-level
  // prefix, at the element budget of a flat text of the same card count.
  const std::string four = expansion_bomb(4);
  EXPECT_EQ(parse_netlist(four, 1 + 11110 + 10000 + 1).resistors().size(), 10000u);
}

}  // namespace
}  // namespace sympvl
