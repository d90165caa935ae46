#include "vqe/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/statevector.hpp"

namespace qucp {

namespace {

// Repetitions of the swept RyRz ansatz.
constexpr int kAnsatzReps = 2;

}  // namespace

std::vector<double> theta_grid(int count, double lo, double hi) {
  if (count < 1) throw std::invalid_argument("theta_grid: count < 1");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  if (count == 1) {
    out.push_back(lo);
    return out;
  }
  for (int i = 0; i < count; ++i) {
    out.push_back(lo + (hi - lo) * i / (count - 1));
  }
  return out;
}

VqeSweepResult run_vqe_sweep(const Device& device,
                             const Hamiltonian& hamiltonian,
                             std::vector<double> thetas,
                             const VqeSweepOptions& options) {
  if (thetas.empty()) throw std::invalid_argument("run_vqe_sweep: no thetas");
  const auto groups = group_commuting_terms(hamiltonian);
  const int n = hamiltonian.num_qubits();
  const Matrix h_matrix = hamiltonian.matrix();

  VqeSweepResult result;
  result.thetas = thetas;
  result.exact_ground = hamiltonian.ground_energy();

  // Build every measurement circuit: thetas x groups.
  std::vector<Circuit> circuits;
  circuits.reserve(thetas.size() * groups.size());
  for (std::size_t t = 0; t < thetas.size(); ++t) {
    const Circuit prep = make_tied_ansatz(n, kAnsatzReps, thetas[t]);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Circuit mc = measurement_circuit(prep, groups[g]);
      mc.set_name("t" + std::to_string(t) + "g" + std::to_string(g));
      circuits.push_back(std::move(mc));
    }
    // Noiseless reference energy.
    Statevector sv(n);
    sv.apply_circuit(prep);
    result.ideal_energies.push_back(sv.expectation(h_matrix));
  }
  result.circuits_executed = static_cast<int>(circuits.size());

  // Execute: one batch (QuCP+PG) or one job per circuit (PG).
  std::vector<Distribution> distributions;
  distributions.reserve(circuits.size());
  if (options.run_parallel) {
    const BatchReport report =
        run_parallel(device, circuits, options.parallel);
    result.throughput = report.throughput;
    for (const ProgramReport& pr : report.programs) {
      distributions.push_back(pr.noisy);
    }
  } else {
    for (const Circuit& circuit : circuits) {
      const BatchReport report =
          run_parallel(device, {circuit}, options.parallel);
      distributions.push_back(report.programs[0].noisy);
      result.throughput = report.throughput;  // per-job throughput
    }
  }

  for (std::size_t t = 0; t < thetas.size(); ++t) {
    double energy = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      energy += group_energy(groups[g], distributions[t * groups.size() + g]);
    }
    result.energies.push_back(energy);
  }

  result.min_energy =
      *std::min_element(result.energies.begin(), result.energies.end());
  result.min_ideal_energy = *std::min_element(result.ideal_energies.begin(),
                                              result.ideal_energies.end());
  result.delta_e_base_pct =
      std::abs((result.min_energy - result.min_ideal_energy) /
               result.min_ideal_energy) *
      100.0;
  result.delta_e_theory_pct =
      std::abs((result.min_energy - result.exact_ground) /
               result.exact_ground) *
      100.0;
  return result;
}

}  // namespace qucp
