// Per-method status rules of the reduce() facade: every method returns
// a ReduceResult with a populated status, a uniform report and structured
// diagnostics — and agrees exactly with the throwing primitive it calls
// (sympvl_reduce, sypvl_reduce, pvl_reduce_entry, arnoldi_reduce) on
// healthy inputs.
#include "mor/reduce.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mor/balanced.hpp"
#include "mor/rational.hpp"

namespace sympvl {
namespace {

Netlist two_port_rc() {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 3, 150.0);
  nl.add_resistor(3, 0, 200.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_capacitor(3, 0, 1.5e-12);
  nl.add_port(1, 0);
  nl.add_port(3, 0);
  return nl;
}

Netlist one_port_rc() {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 200.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  return nl;
}

const Complex kProbe(0.0, 2.0 * M_PI * 1e9);

TEST(Driver, RunSympvlMatchesLegacyAndReportsOk) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;  // system has 3 nodes: the full Krylov space
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kOk);
  EXPECT_EQ(res.report.achieved_order, 3);
  EXPECT_TRUE(res.diagnostics.empty());

  const ReducedModel legacy = sympvl_reduce(sys, opt);
  const CMat za = res.value().eval(kProbe);
  const CMat zb = legacy.eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j)
      EXPECT_EQ(za(i, j), zb(i, j));  // deterministic: bit-identical
}

TEST(Driver, RunSympvlNetlistOverloadCapturesAssemblyFailure) {
  Netlist nl;  // no ports at all: assembly must reject it
  nl.add_resistor(1, 0, 100.0);
  ReduceOptions opt;
  opt.order = 2;
  const ReduceResult res = reduce(nl, opt);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kFailed);
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_FALSE(res.diagnostics.front().message.empty());
  EXPECT_THROW(res.value(), Error);
}

TEST(Driver, RunSypvlOkOnSinglePort) {
  const MnaSystem sys = build_mna(one_port_rc());
  ReduceOptions opt;
  opt.order = 2;
  opt.method = ReduceMethod::kSypvl;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kOk);
  EXPECT_EQ(res.report.achieved_order, 2);
  EXPECT_EQ(res.model.order(), 2);

  const ReduceResult bad = reduce(build_mna(two_port_rc()), opt);  // p = 2
  EXPECT_EQ(bad.status, ReductionStatus::kFailed);
  ASSERT_FALSE(bad.diagnostics.empty());
  EXPECT_EQ(bad.diagnostics.front().code, ErrorCode::kInvalidArgument);
}

TEST(Driver, RunPvlOkAndStructuredOnBadPort) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kPvl;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kOk);
  EXPECT_EQ(res.report.achieved_order, res.model.order());
  PvlOptions popt;
  static_cast<CommonReductionOptions&>(popt) = opt;
  const PvlModel legacy = pvl_reduce_entry(sys, 0, 0, popt);
  EXPECT_EQ(res.model.eval(kProbe)(0, 0), legacy.eval(kProbe));

  opt.pvl_row = 5;  // port index out of range
  const ReduceResult bad = reduce(sys, opt);
  EXPECT_EQ(bad.status, ReductionStatus::kFailed);
  ASSERT_FALSE(bad.diagnostics.empty());
  EXPECT_EQ(bad.diagnostics.front().code, ErrorCode::kInvalidArgument);
}

TEST(Driver, RunArnoldiOkAndMatchesLegacy) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 4;
  opt.method = ReduceMethod::kArnoldi;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kOk);
  EXPECT_EQ(res.report.achieved_order, res.model.order());

  ArnoldiOptions aopt;
  static_cast<CommonReductionOptions&>(aopt) = opt;
  const ArnoldiModel legacy = arnoldi_reduce(sys, aopt);
  const CMat za = res.model.eval(kProbe);
  const CMat zb = legacy.eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j)
      EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Driver, ConsolidatedOptionsShareBaseFields) {
  // All option structs expose the CommonReductionOptions surface; a
  // generic helper can configure any of them.
  const auto configure = [](CommonReductionOptions& opt) {
    opt.order = 7;
    opt.s0 = 2.5;
    opt.auto_shift = false;
    opt.verbosity = 0;
  };
  SympvlOptions so;
  PvlOptions po;
  ArnoldiOptions ao;
  RationalOptions ro;
  BalancedOptions bo;
  LanczosOptions lo;
  for (CommonReductionOptions* opt :
       {static_cast<CommonReductionOptions*>(&so),
        static_cast<CommonReductionOptions*>(&po),
        static_cast<CommonReductionOptions*>(&ao),
        static_cast<CommonReductionOptions*>(&ro),
        static_cast<CommonReductionOptions*>(&bo),
        static_cast<CommonReductionOptions*>(&lo)})
    configure(*opt);
  EXPECT_EQ(so.order, 7);
  EXPECT_EQ(bo.order, 7);
  EXPECT_EQ(po.s0, 2.5);
  EXPECT_FALSE(lo.auto_shift);
  // Driver-specific defaults survive the shared base.
  EXPECT_EQ(ao.deflation_tol, 1e-10);
  EXPECT_EQ(ro.deflation_tol, 1e-10);
  EXPECT_EQ(so.deflation_tol, 1e-8);
  EXPECT_EQ(po.breakdown_tol, 1e-12);
}

TEST(Driver, InvalidOrderIsStructuredFailure) {
  // reduce() rejects invalid options up front with a coded error naming
  // the field, before any method runs.
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 0;
  try {
    reduce(sys, opt);
    FAIL() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(ex.context().stage, "reduce.validate");
    EXPECT_NE(std::string(ex.what()).find("order"), std::string::npos);
  }
}

}  // namespace
}  // namespace sympvl
