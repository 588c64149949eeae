#include "sim/sweep_api.hpp"

#include <cmath>
#include <utility>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {

namespace {

// Applies the all-or-nothing contract when requested: the error carries
// the first failed point, exactly like SweepResult::values_or_throw.
SweepResult finish(SweepResult res, const SweepOptions& options) {
  if (options.throw_on_failure && !res.all_ok()) {
    const SweepPointError& first = res.errors.front();
    ErrorContext ctx;
    ctx.stage = "sweep";
    ctx.index = first.index;
    ctx.frequency = Complex(first.frequency_hz, 0.0);
    throw Error(ErrorCode::kSweepPointFailed,
                std::to_string(res.errors.size()) + " of " +
                    std::to_string(res.values.size()) +
                    " sweep points failed; first: " + first.message,
                std::move(ctx));
  }
  return res;
}

// The one sweep loop behind every overload: evaluates z_at(j·2πf) at each
// grid point under the containment harness (static partition, so the
// result is bit-identical for any thread count), records the failed-point
// count on `span` when there is one, and applies the all-or-nothing
// contract when requested.
template <typename ZAt>
SweepResult evaluate_points(const Vec& frequencies_hz, Index ports,
                            const SweepOptions& options,
                            obs::ScopedTimer* span, ZAt&& z_at) {
  SweepResult res = detail::run_contained_sweep(
      frequencies_hz, ports, ports, [&](Index k) {
        return z_at(Complex(
            0.0, 2.0 * M_PI * frequencies_hz[static_cast<size_t>(k)]));
      });
  if (span != nullptr) span->arg("failed_points", res.failed_count());
  return finish(std::move(res), options);
}

}  // namespace

void validate(const SweepOptions& options, const Vec& frequencies_hz) {
  (void)options;  // current knobs (bool + cache pointer) have no invalid
                  // states; the signature keeps the seam stable as the
                  // option surface grows.
  for (size_t k = 0; k < frequencies_hz.size(); ++k) {
    const double f = frequencies_hz[k];
    if (!std::isfinite(f) || f < 0.0)
      throw Error(ErrorCode::kInvalidArgument,
                  "sweep grid: frequency must be finite and >= 0 Hz",
                  {.stage = "sweep.validate", .index = static_cast<Index>(k),
                   .value = f});
  }
}

SweepResult sweep(const AcSweepEngine& engine, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(options, frequencies_hz);
  const MnaSystem& sys = engine.system();
  obs::ScopedTimer span("ac.sweep");
  span.arg("points", static_cast<Index>(frequencies_hz.size()));
  span.arg("threads", num_threads());
  span.arg("mna_size", sys.size());
  return evaluate_points(frequencies_hz, sys.port_count(), options, &span,
                         [&](Complex s) { return engine.z_at(s); });
}

SweepResult sweep(const ReducedModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(options, frequencies_hz);
  obs::ScopedTimer span("model.sweep");
  span.arg("points", static_cast<Index>(frequencies_hz.size()));
  span.arg("order", model.order());
  span.arg("threads", num_threads());
  return evaluate_points(frequencies_hz, model.port_count(), options, &span,
                         [&](Complex s) { return model.eval(s); });
}

SweepResult sweep(const ModalModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(options, frequencies_hz);
  return evaluate_points(frequencies_hz, model.port_count(), options, nullptr,
                         [&](Complex s) { return model.eval(s); });
}

SweepResult sweep(const MnaSystem& sys, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(options, frequencies_hz);
  return sweep(AcSweepEngine(sys, options.factor_cache), frequencies_hz,
               options);
}

SweepResult sweep(const ArnoldiModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(options, frequencies_hz);
  return evaluate_points(frequencies_hz, model.port_count(), options, nullptr,
                         [&](Complex s) { return model.eval(s); });
}

SweepResult sweep(const MacroModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  require(!model.empty(), ErrorCode::kInvalidArgument,
          "sweep: empty MacroModel", ErrorContext{.stage = "sweep"});
  validate(options, frequencies_hz);
  // The typed overloads keep each model's span (model.sweep for
  // ReducedModel); PVL evaluates through MacroModel's 1×1 wrapping.
  if (const ReducedModel* m = model.as_reduced())
    return sweep(*m, frequencies_hz, options);
  if (const ArnoldiModel* m = model.as_arnoldi())
    return sweep(*m, frequencies_hz, options);
  return evaluate_points(frequencies_hz, 1, options, nullptr,
                         [&](Complex s) { return model.eval(s); });
}

}  // namespace sympvl
