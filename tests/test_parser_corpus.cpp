// Fuzz-style corpus for the netlist parser behind parse_netlist() and the
// serving daemon's reduce path. Every input must either parse or be
// rejected with a coded Error (kIo, stage "parser", the line number as
// index) — never a crash, a hang, another exception type or an uncoded
// error.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "circuit/parser.hpp"

namespace sympvl {
namespace {

/// True when `text` parsed; a failure must be a coded parser error.
bool parses_or_coded(const std::string& text) {
  try {
    parse_netlist(text);
    return true;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo) << e.what();
    EXPECT_EQ(e.context().stage, "parser") << e.what();
    EXPECT_GE(e.context().index, 1) << "line missing: " << e.what();
    return false;
  }
}

void expect_rejected(const std::string& text) {
  EXPECT_FALSE(parses_or_coded(text)) << "accepted: " << text;
}

const char* kBase = R"(* corpus base
.subckt cell a b
Rs a m 10
Ls m b 1n
Cs b 0 1p
.ends cell
.subckt pair x y
X1 x mid cell
X2 mid y cell
.ends
L1 in 0 2n
L2 out 0 2n
K12 L1 L2 0.25
Xp in out pair
R1 out 0 50
I1 0 in 1m
.port p1 in
.port p2 out 0
.end
)";

TEST(ParserCorpus, BaseParses) { EXPECT_TRUE(parses_or_coded(kBase)); }

TEST(ParserCorpus, TruncatedCards) {
  for (const char* text :
       {"R1", "R1 a", "R1 a 0", "C1 a 0", "L1 a", "I1 a 0", "K1 L1 L2",
        "L1 a 0 1n\nK1 L1", "X1", "X1 a", ".port", ".port p", ".subckt",
        ".subckt s", ".subckt s a\nR1 a", "R1 a 0 1e", "R1 a 0 1e+", "R1 a 0 -"})
    expect_rejected(text);
  // Every prefix of a valid netlist parses or fails coded.
  const std::string base = kBase;
  for (size_t n = 0; n <= base.size(); ++n) parses_or_coded(base.substr(0, n));
}

TEST(ParserCorpus, CrlfAndTabSeparators) {
  const std::string text =
      "R1\ta\t0\t1k\r\nC1 a\t0 1p \r\n\t.port\tp\ta\r\n.end\r\n";
  ASSERT_TRUE(parses_or_coded(text));
  const Netlist nl = parse_netlist(text);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].resistance, 1e3);
  EXPECT_DOUBLE_EQ(nl.capacitors()[0].capacitance, 1e-12);
  EXPECT_EQ(nl.port_count(), 1);
  // A lone CR is whitespace inside a line, not a line break.
  expect_rejected("R1 a 0 1k\rC1 a 0 1p\n");
}

TEST(ParserCorpus, NulBytes) {
  using namespace std::string_literals;
  // NUL is an ordinary token character: in a node name it is a name.
  EXPECT_TRUE(parses_or_coded("R1 a\0b 0 1\n.port p a\0b\n"s));
  expect_rejected("R1 a 0 1\0\n"s);
  expect_rejected("\0\0\0\n"s);
  expect_rejected("R1 a 0 1\n\0.port p a\n"s);
}

TEST(ParserCorpus, MegabyteTokens) {
  const std::string big(1 << 20, 'n');
  EXPECT_TRUE(parses_or_coded("R1 " + big + " 0 1\n.port p " + big + "\n"));
  expect_rejected("R1 a 0 " + std::string(1 << 20, '9') + "\n");  // overflows
  expect_rejected("R1 a 0 1" + std::string(1 << 20, 'x') + "\n");
  expect_rejected(big + "\n");
  EXPECT_TRUE(parses_or_coded("* " + big + "\nR1 a 0 1\n.port p a\n"));
}

TEST(ParserCorpus, UnknownDirectives) {
  for (const char* text : {".option reltol=1e-3\n", ".tran 1n 10n\n",
                           ".include other.sp\n", ".\n", ".PORTS p a\n",
                           ".subckt s a\n.param x=1\n.ends\nX1 n s\n"})
    expect_rejected(text);
}

TEST(ParserCorpus, MismatchedEnds) {
  for (const char* text : {".ends\n", ".ends s\n", ".subckt s a\n.ends t\n",
                           ".subckt s a\n.subckt t b\n.ends\n.ends\n",
                           ".subckt s a\nR1 a 0 1\n.end\n",
                           ".subckt s a\nR1 a 0 1\n"})
    expect_rejected(text);
  // A .ends name matches case-insensitively.
  EXPECT_TRUE(parses_or_coded(".subckt Cell a\nR1 a 0 1\n.ends CELL\nX1 n cell\n"
                              ".port p n\n"));
}

TEST(ParserCorpus, RecursiveSubcircuits) {
  expect_rejected(".subckt s a\nX1 a s\n.ends\nX0 n s\n");
  expect_rejected(".subckt s a\nX1 a t\n.ends\n.subckt t a\nX1 a s\n.ends\nX0 n s\n");
  // A long chain of distinct definitions is stopped by the depth limit,
  // not by the stack.
  std::string chain = ".subckt s0 a\nR1 a 0 1\n.ends\n";
  for (int k = 1; k < 5000; ++k)
    chain += ".subckt s" + std::to_string(k) + " a\nX1 a s" +
             std::to_string(k - 1) + "\n.ends\n";
  expect_rejected(chain + "X0 n s4999\n.port p n\n");
  // Defined but never instanced: no expansion, no error.
  EXPECT_TRUE(parses_or_coded(".subckt s a\nX1 a s\n.ends\nR1 a 0 1\n.port p a\n"));
}

TEST(ParserCorpus, MutualToUnknownInductor) {
  for (const char* text :
       {"K1 L1 L2 0.5\n", "L1 a 0 1n\nK1 L1 L9 0.5\n",
        "K1 L1 L2 0.5\nL1 a 0 1n\nL2 b 0 1n\n",  // K before its inductors
        // Inside a subcircuit, K sees only the instance's own inductors.
        "L1 a 0 1n\nL2 b 0 1n\n.subckt s x\nK1 L1 L2 0.5\n.ends\nX1 a s\n"})
    expect_rejected(text);
}

TEST(ParserCorpus, SeededByteMutationsOfAValidNetlist) {
  const std::string base = kBase;
  using namespace std::string_literals;
  const std::string alphabet = " \t\r\n\0.*;xXkKlLrR0-+e9"s;
  std::mt19937_64 rng(20260417);
  int parsed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = base;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const size_t at = rng() % text.size();
      const char c = alphabet[rng() % alphabet.size()];
      switch (rng() % 3) {
        case 0: text[at] = c; break;
        case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        default: text.erase(at, 1 + rng() % 8); break;
      }
    }
    parsed += parses_or_coded(text) ? 1 : 0;
  }
  // Both outcomes occur: the corpus exercises acceptance and rejection.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 3000);
}

}  // namespace
}  // namespace sympvl
