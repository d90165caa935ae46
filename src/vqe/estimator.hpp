#pragma once
// VQE energy estimation: PG (independent) vs QuCP+PG (parallel).
//
// For a parameter sweep, each theta contributes one measurement circuit
// per commuting group. PG executes those circuits one job at a time (the
// paper's independent baseline); QuCP+PG packs all of them into one
// parallel batch on the device. The energy estimate at each theta sums the
// group energies plus any identity offsets; the sweep minimum approximates
// the ground energy (Table III / Fig. 5). The ansatz is the tied RyRz
// ansatz with two repetitions.

#include <vector>

#include "core/parallel.hpp"
#include "vqe/ansatz.hpp"
#include "vqe/grouping.hpp"

namespace qucp {

struct VqeSweepOptions {
  ParallelOptions parallel;      ///< method/sigma/exec for QuCP+PG
  bool run_parallel = true;      ///< false: PG (one circuit per job)
};

struct VqeSweepResult {
  std::vector<double> thetas;
  std::vector<double> energies;        ///< measured estimate per theta
  std::vector<double> ideal_energies;  ///< noiseless simulator reference
  double min_energy = 0.0;
  double min_ideal_energy = 0.0;
  double exact_ground = 0.0;           ///< eigensolver ("theory")
  int circuits_executed = 0;           ///< nc of Table III
  double throughput = 0.0;             ///< hardware throughput achieved
  /// |E - E_ideal| / |E_ideal| and |E - E_exact| / |E_exact| in percent.
  double delta_e_base_pct = 0.0;
  double delta_e_theory_pct = 0.0;
};

/// Sweep the tied-parameter ansatz over `thetas` against `hamiltonian` on
/// `device`. Number of simultaneous circuits = thetas.size() * #groups.
[[nodiscard]] VqeSweepResult run_vqe_sweep(const Device& device,
                                           const Hamiltonian& hamiltonian,
                                           std::vector<double> thetas,
                                           const VqeSweepOptions& options);

/// Evenly spaced theta grid over [lo, hi].
[[nodiscard]] std::vector<double> theta_grid(int count, double lo, double hi);

}  // namespace qucp
