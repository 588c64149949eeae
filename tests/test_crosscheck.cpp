// Cross-method consistency suite: every reduction method in the library
// (SyMPVL, SyPVL, PVL, block-Arnoldi, rational multi-point, modal form)
// approximates the SAME transfer function, so on a common circuit their
// converged answers must agree with the exact AC analysis and with each
// other. Randomized over circuit classes and seeds.
#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "mor/arnoldi.hpp"
#include "mor/postprocess.hpp"
#include "mor/pvl.hpp"
#include "mor/rational.hpp"
#include "mor/sympvl.hpp"
#include "mor/sypvl.hpp"
#include "sim/ac.hpp"

namespace sympvl {
namespace {

// Both fields are 8 bytes wide so the struct has no padding: gtest prints
// the raw bytes of a parameter without a PrintTo into the test name, and
// uninitialised padding would make those names differ from run to run.
struct CrossCase {
  Index seed;
  Index nodes;
};

class CrossCheck : public testing::TestWithParam<CrossCase> {};

TEST_P(CrossCheck, AllMethodsConvergeToExactSiso) {
  const auto [seed, nodes] = GetParam();
  const Netlist nl = random_rc(
      {.nodes = nodes, .ports = 1, .seed = static_cast<unsigned>(seed)});
  const MnaSystem sys = build_mna(nl);
  const Index n = std::min<Index>(nodes, 24);  // deep enough to converge

  SympvlOptions sopt;
  sopt.order = n;
  const ReducedModel rom = sympvl_reduce(sys, sopt);
  const ReducedModel rom1 = sypvl_reduce(sys, sopt);
  PvlOptions popt;
  popt.order = n;
  const PvlModel pvl = pvl_reduce_entry(sys, 0, 0, popt);
  ArnoldiOptions aopt;
  aopt.order = n;
  const ArnoldiModel arn = arnoldi_reduce(sys, aopt);
  RationalOptions ropt;
  ropt.shifts = {0.0};
  ropt.iterations_per_shift = n;
  const ArnoldiModel rat = rational_reduce(sys, ropt);
  const ModalModel modal = modal_decompose(rom);

  for (double f : {1e6, 1e8, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex exact = ac_z_matrix(sys, s)(0, 0);
    const double tol = 2e-3 * std::abs(exact);
    EXPECT_NEAR(std::abs(rom.eval(s)(0, 0) - exact), 0.0, tol) << "sympvl " << f;
    EXPECT_NEAR(std::abs(rom1.eval(s)(0, 0) - exact), 0.0, tol) << "sypvl " << f;
    EXPECT_NEAR(std::abs(pvl.eval(s) - exact), 0.0, tol) << "pvl " << f;
    EXPECT_NEAR(std::abs(arn.eval(s)(0, 0) - exact), 0.0, tol) << "arnoldi " << f;
    EXPECT_NEAR(std::abs(rat.eval(s)(0, 0) - exact), 0.0, tol) << "rational " << f;
    EXPECT_NEAR(std::abs(modal.eval(s)(0, 0) - exact), 0.0, tol) << "modal " << f;
  }
}

TEST_P(CrossCheck, SympvlAndArnoldiShareKrylovAccuracy) {
  // Same span → same transfer function on symmetric pencils: the two
  // models agree with each other far more tightly than either agrees with
  // the exact answer at low order.
  const auto [seed, nodes] = GetParam();
  const Netlist nl = random_rc(
      {.nodes = nodes, .ports = 2, .seed = static_cast<unsigned>(seed + 500)});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions sopt;
  sopt.order = 8;
  const ReducedModel rom = sympvl_reduce(sys, sopt);
  ArnoldiOptions aopt;
  aopt.order = 8;
  const ArnoldiModel arn = arnoldi_reduce(sys, aopt);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat za = rom.eval(s);
    const CMat zb = arn.eval(s);
    for (Index i = 0; i < 2; ++i)
      for (Index j = 0; j < 2; ++j)
        EXPECT_NEAR(std::abs(za(i, j) - zb(i, j)), 0.0,
                    1e-6 * (std::abs(za(i, j)) + 1.0))
            << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossCheck,
                         testing::Values(CrossCase{41, 24}, CrossCase{42, 30},
                                         CrossCase{43, 36}, CrossCase{44, 28},
                                         CrossCase{45, 32}),
                         [](const testing::TestParamInfo<CrossCase>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

TEST(CrossCheckRlc, SympvlVsPvlOnIndefinitePencil) {
  // The J ≠ I code path against the nonsymmetric-Lanczos code path.
  const Netlist nl = random_rlc({.nodes = 22, .ports = 1, .seed = 77});
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  SympvlOptions sopt;
  sopt.order = 12;
  const ReducedModel rom = sympvl_reduce(sys, sopt);
  PvlOptions popt;
  popt.order = 12;
  const PvlModel pvl = pvl_reduce_entry(sys, 0, 0, popt);
  for (double f : {1e6, 1e7, 1e8}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex exact = ac_z_matrix(sys, s)(0, 0);
    EXPECT_NEAR(std::abs(rom.eval(s)(0, 0) - exact), 0.0, 1e-2 * std::abs(exact))
        << f;
    EXPECT_NEAR(std::abs(pvl.eval(s) - exact), 0.0, 1e-2 * std::abs(exact)) << f;
  }
}

TEST(CrossCheckLc, SympvlMatchesExactThroughSquaredVariable) {
  // LC circuits run through the σ = s² machinery end to end.
  const Netlist nl = random_lc({.nodes = 18, .ports = 1, .seed = 88});
  const MnaSystem sys = build_mna(nl, MnaForm::kLC);
  SympvlOptions opt;
  opt.order = 16;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  for (double f : {1e8, 5e8, 2e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex exact = ac_z_matrix(sys, s)(0, 0);
    EXPECT_NEAR(std::abs(rom.eval(s)(0, 0) - exact), 0.0,
                5e-3 * std::abs(exact))
        << f;
  }
}

}  // namespace
}  // namespace sympvl
