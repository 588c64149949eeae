// The one frequency-sweep entry point: sympvl::sweep(target, grid,
// options) over every sweepable object — the exact AcSweepEngine, an
// MnaSystem (one-shot exact sweep), ReducedModel, ModalModel,
// ArnoldiModel (Arnoldi baselines, multipoint/rational models, sharded
// stitched models) and the MacroModel of reduce(). Every overload
// evaluates Z(j·2πf) per grid point under the same per-point fault
// containment and returns a SweepResult; the sweepable classes carry no
// sweep member of their own.
#pragma once

#include "circuit/mna.hpp"
#include "mor/postprocess.hpp"
#include "mor/reduce.hpp"
#include "mor/reduced_model.hpp"
#include "sim/ac.hpp"
#include "sim/sweep.hpp"

namespace sympvl {

/// Behavior knobs shared by every sweep target.
struct SweepOptions {
  /// Throw Error(kSweepPointFailed) describing the first failed point
  /// instead of returning a partially-healthy SweepResult (the old
  /// all-or-nothing contract).
  bool throw_on_failure = false;
  /// Factorization cache for targets that factor pencils per point
  /// (the MnaSystem overload; nullptr = the process-global cache).
  FactorCache* factor_cache = nullptr;
};

/// Validates a sweep request with coded errors: throws
/// Error(ErrorCode::kInvalidArgument, stage "sweep.validate") when the
/// grid is empty or carries a non-finite/negative frequency. Shared by
/// every sweep() overload below and by the serving daemon, which maps
/// the coded error onto a machine-readable response instead of dying.
void validate(const SweepOptions& options, const Vec& frequencies_hz);

/// Exact AC sweep through an existing engine (symbolic analysis already
/// amortized across calls). A frequency point whose pencil cannot be
/// factored (or that hits an injected fault) yields a NaN matrix and a
/// structured error record while every other point completes unaffected
/// — and bit-identical to an all-healthy sweep.
SweepResult sweep(const AcSweepEngine& engine, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Reduced-model sweep: evaluates Zₙ(j·2πf) per grid point.
SweepResult sweep(const ReducedModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Modal (pole/residue) sweep.
SweepResult sweep(const ModalModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// One-shot exact sweep: builds an AcSweepEngine over `sys` (honoring
/// options.factor_cache) and sweeps. Amortize the engine yourself when
/// sweeping the same system repeatedly.
SweepResult sweep(const MnaSystem& sys, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Congruence-model sweep (Arnoldi baselines, multipoint/rational
/// models, and the stitched models of the port-sharding layer):
/// evaluates Z_r(j·2πf) per point with the same containment.
SweepResult sweep(const ArnoldiModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Facade sweep: whatever concrete model reduce() produced. Throws
/// kInvalidArgument on an empty MacroModel.
SweepResult sweep(const MacroModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

}  // namespace sympvl
