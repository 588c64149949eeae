// The public reduce() facade: method dispatch agrees with the primitive
// each method calls, the MacroModel variant evaluates uniformly, failures
// surface as status + diagnostics, and the unified sweep accepts the
// facade's models.
#include "mor/reduce.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/package.hpp"
#include "sim/sweep_api.hpp"

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

const Complex kProbe(0.0, 2.0 * M_PI * 1e9);

TEST(Reduce, SympvlDispatchMatchesDriverBitwise) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kOk);
  ASSERT_NE(res.model.as_reduced(), nullptr);
  EXPECT_EQ(res.model.order(), 3);
  EXPECT_EQ(res.model.port_count(), 2);

  const ReducedModel primitive = sympvl_reduce(sys, opt);
  const CMat za = res.value().eval(kProbe);
  const CMat zb = primitive.eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Reduce, ShardedWithOneShardMatchesSympvlBitwise) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.shard.shards = 1;
  const ReduceResult sharded = reduce(sys, opt);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.shard.shards, 1);

  opt.method = ReduceMethod::kSympvl;
  const ReduceResult mono = reduce(sys, opt);
  const CMat za = sharded.value().eval(kProbe);
  const CMat zb = mono.value().eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Reduce, ShardedManyPortPathReportsShardTelemetry) {
  PackageOptions popt;
  popt.pins = 16;
  popt.segments = 2;
  popt.signal_pins = 8;
  const MnaSystem sys =
      build_mna(make_package_circuit(popt).netlist, MnaForm::kAuto);
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 32;
  opt.shard.shards = 4;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.model.as_arnoldi(), nullptr);
  EXPECT_EQ(res.shard.shards, 4);
  EXPECT_EQ(res.model.port_count(), 16);
  EXPECT_GT(res.shard.stitched_order, 0);
  const CMat z = res.value().eval(kProbe);
  for (Index i = 0; i < z.rows(); ++i)
    for (Index j = 0; j < z.cols(); ++j)
      EXPECT_TRUE(std::isfinite(z(i, j).real()) &&
                  std::isfinite(z(i, j).imag()));
}

Netlist one_port_rc() {
  Netlist nl;  // SyPVL is the single-port predecessor: needs exactly one port
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 150.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  return nl;
}

TEST(Reduce, SypvlDispatchMatchesDriver) {
  const MnaSystem sys = build_mna(one_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kSypvl;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  const ReducedModel primitive = sypvl_reduce(sys, opt);
  const CMat za = res.value().eval(kProbe);
  const CMat zb = primitive.eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Reduce, PvlDispatchWrapsScalarAsOneByOne) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kPvl;
  opt.pvl_row = 1;
  opt.pvl_col = 0;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.model.as_pvl(), nullptr);
  EXPECT_EQ(res.model.port_count(), 1);
  const CMat z = res.value().eval(kProbe);
  ASSERT_EQ(z.rows(), 1);
  ASSERT_EQ(z.cols(), 1);

  PvlOptions popt;
  static_cast<CommonReductionOptions&>(popt) = opt;
  const PvlModel primitive = pvl_reduce_entry(sys, 1, 0, popt);
  EXPECT_EQ(z(0, 0), primitive.eval(kProbe));
}

TEST(Reduce, ArnoldiDispatchMatchesDriver) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kArnoldi;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.model.as_arnoldi(), nullptr);

  ArnoldiOptions aopt;
  static_cast<CommonReductionOptions&>(aopt) = opt;
  const ArnoldiModel primitive = arnoldi_reduce(sys, aopt);
  const CMat za = res.value().eval(kProbe);
  const CMat zb = primitive.eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

// A port node feeding two identical RC branches: n = 3, but by symmetry
// the two branch nodes always carry equal voltages, so every Krylov space
// the methods build from the port stops at dimension 2.
Netlist twin_branch_rc() {
  Netlist nl;
  for (Index branch : {2, 3}) {
    nl.add_resistor(1, branch, 100.0);
    nl.add_resistor(branch, 0, 200.0);
    nl.add_capacitor(branch, 0, 1e-12);
  }
  nl.add_port(1, 0);
  return nl;
}

TEST(Reduce, ExhaustedKrylovSpaceIsOkForEveryMethod) {
  // Stopping short of the request because the Krylov space is exhausted
  // leaves an exact model: kOk, not kTruncated, for every method.
  const MnaSystem sys = build_mna(twin_branch_rc());
  ASSERT_EQ(sys.size(), 3);
  for (ReduceMethod method :
       {ReduceMethod::kSympvl, ReduceMethod::kShardedSympvl,
        ReduceMethod::kSypvl, ReduceMethod::kPvl, ReduceMethod::kArnoldi}) {
    SCOPED_TRACE(reduce_method_name(method));
    ReduceOptions opt;
    opt.order = 3;
    opt.method = method;
    const ReduceResult res = reduce(sys, opt);
    EXPECT_EQ(res.status, ReductionStatus::kOk);
    EXPECT_EQ(res.report.achieved_order, 2);
    EXPECT_TRUE(res.report.exhausted);
    EXPECT_TRUE(res.diagnostics.empty());
  }
}

TEST(Reduce, NetlistOverloadCapturesAssemblyFailure) {
  Netlist bad;  // a port with no elements: MNA assembly must reject it
  bad.add_port(1, 0);
  ReduceOptions opt;
  opt.order = 2;
  const ReduceResult res = reduce(bad, opt);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kFailed);
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_TRUE(res.model.empty());
  EXPECT_THROW(res.value(), Error);
}

TEST(Reduce, MacroModelSweepDispatches) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  const Vec freqs{1e8, 1e9, 5e9};

  const ReduceResult lanczos = reduce(sys, opt);
  const SweepResult sa = sweep(lanczos.value(), freqs);
  ASSERT_EQ(sa.size(), freqs.size());
  EXPECT_TRUE(sa.all_ok());

  opt.method = ReduceMethod::kPvl;
  const ReduceResult pvl = reduce(sys, opt);
  const SweepResult sb = sweep(pvl.value(), freqs);
  ASSERT_EQ(sb.size(), freqs.size());
  ASSERT_EQ(sb.values[0].rows(), 1);

  opt.method = ReduceMethod::kArnoldi;
  const ReduceResult arnoldi = reduce(sys, opt);
  const SweepResult sc = sweep(arnoldi.value(), freqs);
  EXPECT_TRUE(sc.all_ok());

  // The exact engine agrees with the order-3 model on this 3-node system.
  const SweepResult exact = sweep(sys, freqs);
  for (size_t k = 0; k < freqs.size(); ++k)
    for (Index i = 0; i < 2; ++i)
      for (Index j = 0; j < 2; ++j)
        EXPECT_NEAR(std::abs(sa.values[k](i, j) - exact.values[k](i, j)), 0.0,
                    1e-6 * std::abs(exact.values[k](i, j)) + 1e-12);
}

TEST(Reduce, EmptyMacroModelThrowsOnUse) {
  MacroModel empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.order(), 0);
  EXPECT_EQ(empty.port_count(), 0);
  EXPECT_THROW(empty.eval(kProbe), Error);
  EXPECT_THROW(sweep(empty, Vec{1e9}), Error);
}

}  // namespace
}  // namespace sympvl
