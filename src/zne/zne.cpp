#include "zne/zne.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/strings.hpp"
#include "sim/statevector.hpp"

namespace qucp {

namespace {

// Seed of the random gate folding; fixed, so a run is reproducible.
constexpr std::uint64_t kFoldingSeed = 99;

}  // namespace

double parity_expectation(const Distribution& dist) {
  double e = 0.0;
  for (const auto& [outcome, p] : dist.probs()) {
    e += (std::popcount(outcome) % 2 ? -1.0 : 1.0) * p;
  }
  return e;
}

ZneResult run_zne(const Device& device, const Circuit& circuit,
                  ZneProcess process, const ZneOptions& options) {
  if (options.scales.empty() || options.scales.front() != 1.0) {
    throw std::invalid_argument("run_zne: scales must start at 1.0");
  }
  ZneResult result;
  result.ideal_expectation = parity_expectation(ideal_distribution(circuit));

  // Folding relies on redundant G G^dagger G sequences surviving to the
  // device; peephole optimization would silently cancel them. Disable it
  // for every process so the comparison stays apples-to-apples.
  ParallelOptions exec_opts = options.parallel;
  exec_opts.optimize_circuits = false;

  // Folded circuits (scale 1 = original).
  Rng fold_rng(kFoldingSeed);
  std::vector<Circuit> folded;
  for (double s : options.scales) {
    Circuit f = s == 1.0
                    ? circuit
                    : fold_gates_at_random(
                          circuit, s,
                          fold_rng.derive("fold" + std::to_string(s)));
    f.set_name(circuit.name() + "@x" + std::to_string(s));
    result.scales.push_back(achieved_scale(circuit, f));
    folded.push_back(std::move(f));
  }

  if (process == ZneProcess::Baseline) {
    const BatchReport report =
        run_parallel(device, {circuit}, exec_opts);
    result.unmitigated = parity_expectation(report.programs[0].noisy);
    result.mitigated = result.unmitigated;
    result.best_factory = "none";
    result.abs_error =
        std::abs(result.unmitigated - result.ideal_expectation);
    result.throughput = report.throughput;
    result.expectations = {result.unmitigated};
    result.scales = {1.0};
    return result;
  }

  // Measure the expectation at every scale.
  if (process == ZneProcess::Parallel) {
    const BatchReport report = run_parallel(device, folded, exec_opts);
    for (const ProgramReport& pr : report.programs) {
      result.expectations.push_back(parity_expectation(pr.noisy));
    }
    result.throughput = report.throughput;
  } else {
    for (const Circuit& f : folded) {
      const BatchReport report = run_parallel(device, {f}, exec_opts);
      result.expectations.push_back(
          parity_expectation(report.programs[0].noisy));
      result.throughput = report.throughput;
    }
  }
  result.unmitigated = result.expectations.front();

  // Extrapolate with every fit; report the one closest to ideal (the
  // paper's protocol, acknowledging extrapolation's noise sensitivity).
  using Samples = std::span<const double>;
  using Extrapolate = double (*)(Samples, Samples);
  const std::pair<const char*, Extrapolate> fits[] = {
      {"Linear", [](Samples s, Samples v) { return polyfit(s, v, 1)[0]; }},
      {"Poly2", [](Samples s, Samples v) { return polyfit(s, v, 2)[0]; }},
      {"Richardson", richardson_extrapolate},
  };
  double best_err = std::numeric_limits<double>::infinity();
  for (const auto& [name, extrapolate] : fits) {
    double value = 0.0;
    try {
      value = extrapolate(result.scales, result.expectations);
    } catch (const std::exception&) {
      continue;  // e.g. singular fit on degenerate scales
    }
    const double err = std::abs(value - result.ideal_expectation);
    if (err < best_err) {
      best_err = err;
      result.mitigated = value;
      result.best_factory = name;
    }
  }
  if (result.best_factory.empty()) {
    std::string achieved;
    for (double s : result.scales) {
      achieved += (achieved.empty() ? "" : ", ") + fmt_double(s, 4);
    }
    throw std::invalid_argument(
        "run_zne: no extrapolation fits the achieved scales {" + achieved +
        "}; at least two distinct scales are needed");
  }
  result.abs_error = std::abs(result.mitigated - result.ideal_expectation);
  return result;
}

}  // namespace qucp
