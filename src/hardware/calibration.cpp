#include "hardware/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace qucp {

namespace {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

/// Lognormal sample around a median with shape sigma, clamped.
double lognormal(Rng& rng, double median, double sigma, double lo, double hi) {
  const double v = median * std::exp(rng.normal(0.0, sigma));
  return std::clamp(v, lo, hi);
}

}  // namespace

void Calibration::validate(const Topology& topo) const {
  const auto nq = static_cast<std::size_t>(topo.num_qubits());
  const auto ne = static_cast<std::size_t>(topo.num_edges());
  if (q1_error.size() != nq || readout_error.size() != nq ||
      t1_us.size() != nq || t2_us.size() != nq) {
    throw std::invalid_argument("Calibration: per-qubit vector size mismatch");
  }
  if (cx_error.size() != ne || cx_duration_ns.size() != ne) {
    throw std::invalid_argument("Calibration: per-edge vector size mismatch");
  }
  auto in_unit = [](double e) { return e >= 0.0 && e < 1.0; };
  if (!std::all_of(q1_error.begin(), q1_error.end(), in_unit) ||
      !std::all_of(readout_error.begin(), readout_error.end(), in_unit) ||
      !std::all_of(cx_error.begin(), cx_error.end(), in_unit)) {
    throw std::invalid_argument("Calibration: error rate outside [0,1)");
  }
  // T1/T2 may be infinite (no idle noise); a duration must be finite.
  auto positive = [](double v) { return v > 0.0; };
  auto duration = [](double v) { return v > 0.0 && std::isfinite(v); };
  if (!std::all_of(t1_us.begin(), t1_us.end(), positive) ||
      !std::all_of(t2_us.begin(), t2_us.end(), positive) ||
      !std::all_of(cx_duration_ns.begin(), cx_duration_ns.end(), duration) ||
      !duration(q1_duration_ns) || !duration(readout_duration_ns)) {
    throw std::invalid_argument(
        "Calibration: non-positive time or non-finite duration");
  }
}

double Calibration::avg_cx_error() const { return mean(cx_error); }
double Calibration::avg_readout_error() const { return mean(readout_error); }
double Calibration::avg_q1_error() const { return mean(q1_error); }

Calibration synthesize_calibration(const Topology& topo,
                                   const CalibrationProfile& p, Rng rng) {
  const int nq = topo.num_qubits();
  const int ne = topo.num_edges();
  Calibration cal;
  cal.q1_error.reserve(nq);
  cal.readout_error.reserve(nq);
  cal.t1_us.reserve(nq);
  cal.t2_us.reserve(nq);
  for (int q = 0; q < nq; ++q) {
    cal.q1_error.push_back(
        lognormal(rng, p.q1_error_median, p.q1_error_spread, 5e-5, 5e-3));
    double ro = lognormal(rng, p.readout_median, p.readout_spread, 5e-3, 0.2);
    cal.readout_error.push_back(ro);
    cal.t1_us.push_back(std::max(20.0, rng.normal(p.t1_mean_us, 20.0)));
    cal.t2_us.push_back(std::max(15.0, rng.normal(p.t2_mean_us, 25.0)));
  }
  for (int e = 0; e < ne; ++e) {
    cal.cx_error.push_back(
        lognormal(rng, p.cx_error_median, p.cx_error_spread, 2e-3, 0.15));
    cal.cx_duration_ns.push_back(
        std::clamp(rng.normal(p.cx_duration_mean_ns, 80.0), 150.0, 900.0));
  }
  // Degrade a deterministic subset ("red" edges/qubits in Fig. 1).
  const int bad_edges =
      static_cast<int>(std::round(p.bad_edge_fraction * ne));
  for (int k = 0; k < bad_edges; ++k) {
    const auto e = rng.index(static_cast<std::size_t>(ne));
    cal.cx_error[e] =
        std::min(0.15, cal.cx_error[e] * p.bad_edge_multiplier);
  }
  const int bad_ro =
      static_cast<int>(std::round(p.bad_readout_fraction * nq));
  for (int k = 0; k < bad_ro; ++k) {
    const auto q = rng.index(static_cast<std::size_t>(nq));
    cal.readout_error[q] =
        std::min(0.25, cal.readout_error[q] * p.bad_readout_multiplier);
  }
  cal.validate(topo);
  return cal;
}

}  // namespace qucp
