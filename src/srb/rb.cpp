#include "srb/rb.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "srb/fit.hpp"

namespace qucp {

namespace {

constexpr std::array<GateKind, 6> kCliffords1q = {
    GateKind::X, GateKind::Y, GateKind::Z,
    GateKind::H, GateKind::S, GateKind::Sdg};

void random_clifford_layer(Circuit& c, int a, int b, Rng& rng) {
  c.append({kCliffords1q[rng.index(kCliffords1q.size())], {a}, {}});
  c.append({kCliffords1q[rng.index(kCliffords1q.size())], {b}, {}});
}

double survival_00(const ProgramOutcome& outcome) {
  return outcome.distribution.prob(0);
}

/// EPC from the fitted per-mirror-step decay: each step is a forward +
/// inverse cycle pair, so the per-cycle decay is sqrt(alpha).
double epc_from_alpha(double alpha) {
  const double per_cycle = std::sqrt(std::clamp(alpha, 0.0, 1.0));
  return 0.75 * (1.0 - per_cycle);
}

}  // namespace

Circuit make_rb_sequence(const Device& device, int a, int b, int cycles,
                         Rng& rng) {
  if (!device.topology().adjacent(a, b)) {
    throw std::invalid_argument("make_rb_sequence: qubits not coupled");
  }
  if (cycles < 1) throw std::invalid_argument("make_rb_sequence: cycles < 1");
  Circuit half(device.num_qubits(), 2, "rb_half");
  for (int m = 0; m < cycles; ++m) {
    random_clifford_layer(half, a, b, rng);
    half.cx(a, b);
  }
  Circuit seq = half;
  seq.compose(half.inverse());
  seq.set_name("rb_" + std::to_string(a) + "_" + std::to_string(b));
  seq.measure(a, 0);
  seq.measure(b, 1);
  return seq;
}

RbResult run_rb(const Device& device, int a, int b, const RbOptions& options,
                Rng rng) {
  RbResult result;
  for (int len : options.lengths) {
    double total = 0.0;
    for (int s = 0; s < options.seeds; ++s) {
      Rng seq_rng = rng.derive("rb:" + std::to_string(len) + ":" +
                               std::to_string(s));
      const Circuit seq = make_rb_sequence(device, a, b, len, seq_rng);
      ExecOptions exec = options.exec;
      exec.seed = seq_rng.seed();
      const ProgramOutcome outcome = execute_single(device, seq, exec);
      total += survival_00(outcome);
    }
    result.lengths.push_back(static_cast<double>(len));
    result.survival.push_back(total / options.seeds);
  }
  const DecayFit fit =
      fit_exponential_decay(result.lengths, result.survival, 0.25);
  result.alpha = fit.alpha;
  result.epc = epc_from_alpha(fit.alpha);
  return result;
}

std::pair<RbResult, RbResult> run_simultaneous_rb(const Device& device,
                                                  int a1, int b1, int a2,
                                                  int b2,
                                                  const RbOptions& options,
                                                  Rng rng) {
  if (a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2) {
    throw std::invalid_argument("run_simultaneous_rb: edges share a qubit");
  }
  RbResult r1;
  RbResult r2;
  for (int len : options.lengths) {
    double total1 = 0.0;
    double total2 = 0.0;
    for (int s = 0; s < options.seeds; ++s) {
      Rng rng1 = rng.derive("srb1:" + std::to_string(len) + ":" +
                            std::to_string(s));
      Rng rng2 = rng.derive("srb2:" + std::to_string(len) + ":" +
                            std::to_string(s));
      std::vector<PhysicalProgram> programs;
      programs.push_back(
          {make_rb_sequence(device, a1, b1, len, rng1), "rb1"});
      programs.push_back(
          {make_rb_sequence(device, a2, b2, len, rng2), "rb2"});
      ExecOptions exec = options.exec;
      exec.seed = rng1.seed() ^ (rng2.seed() << 1);
      const ParallelRunReport report =
          execute_parallel(device, std::move(programs), exec);
      total1 += survival_00(report.programs[0]);
      total2 += survival_00(report.programs[1]);
    }
    r1.lengths.push_back(static_cast<double>(len));
    r1.survival.push_back(total1 / options.seeds);
    r2.lengths.push_back(static_cast<double>(len));
    r2.survival.push_back(total2 / options.seeds);
  }
  const DecayFit f1 = fit_exponential_decay(r1.lengths, r1.survival, 0.25);
  const DecayFit f2 = fit_exponential_decay(r2.lengths, r2.survival, 0.25);
  r1.alpha = f1.alpha;
  r1.epc = epc_from_alpha(f1.alpha);
  r2.alpha = f2.alpha;
  r2.epc = epc_from_alpha(f2.alpha);
  return {r1, r2};
}

}  // namespace qucp
