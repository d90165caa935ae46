#include "vqe/estimator.hpp"

#include <gtest/gtest.h>

#include "quiet_device.hpp"

namespace qucp {
namespace {

VqeSweepOptions fast_options(bool parallel) {
  VqeSweepOptions opts;
  opts.run_parallel = parallel;
  opts.parallel.method = Method::QuCP;
  opts.parallel.exec.shots = 256;
  return opts;
}

TEST(ThetaGrid, EvenSpacing) {
  const auto grid = theta_grid(5, 0.0, 1.0);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  EXPECT_NEAR(grid[1] - grid[0], 0.25, 1e-12);
  EXPECT_EQ(theta_grid(1, 0.3, 0.9), (std::vector<double>{0.3}));
  EXPECT_THROW((void)theta_grid(0, 0.0, 1.0), std::invalid_argument);
}

TEST(VqeSweep, CircuitCountIsThetasTimesGroups) {
  const Device d = make_manhattan65();
  const auto result = run_vqe_sweep(d, h2_hamiltonian(),
                                    theta_grid(8, -1.0, 1.0),
                                    fast_options(true));
  // 8 thetas x 2 commuting groups = 16 circuits (Table III row a).
  EXPECT_EQ(result.circuits_executed, 16);
  EXPECT_NEAR(result.throughput, 32.0 / 65.0, 1e-9);  // 49.2%
}

TEST(VqeSweep, ExactGroundMatchesEigensolver) {
  const Device d = make_manhattan65();
  const auto result = run_vqe_sweep(d, h2_hamiltonian(),
                                    theta_grid(4, -1.0, 1.0),
                                    fast_options(true));
  EXPECT_NEAR(result.exact_ground, -1.857275, 1e-5);
}

TEST(VqeSweep, IdealEnergiesBoundedBelowByGround) {
  const Device d = make_manhattan65();
  const auto result = run_vqe_sweep(d, h2_hamiltonian(),
                                    theta_grid(10, -2.0, 2.0),
                                    fast_options(true));
  for (double e : result.ideal_energies) {
    EXPECT_GE(e, result.exact_ground - 1e-9);
  }
  EXPECT_GE(result.min_ideal_energy, result.exact_ground - 1e-9);
}

TEST(VqeSweep, NoiselessParallelMatchesIdeal) {
  const Device d = test_devices::quiet_device(make_manhattan65());
  const auto result = run_vqe_sweep(d, h2_hamiltonian(),
                                    theta_grid(6, -1.0, 1.0),
                                    fast_options(true));
  for (std::size_t i = 0; i < result.energies.size(); ++i) {
    EXPECT_NEAR(result.energies[i], result.ideal_energies[i], 1e-6) << i;
  }
  EXPECT_NEAR(result.delta_e_base_pct, 0.0, 1e-4);
}

TEST(VqeSweep, IndependentModeRunsSameCircuits) {
  const Device d = make_manhattan65();
  const auto thetas = theta_grid(3, -0.8, 0.2);
  const auto pg = run_vqe_sweep(d, h2_hamiltonian(), thetas,
                                fast_options(false));
  EXPECT_EQ(pg.circuits_executed, 6);
  // Independent throughput: one 2-qubit circuit on the 65-qubit chip.
  EXPECT_NEAR(pg.throughput, 2.0 / 65.0, 1e-9);  // 3.1% (Table III)
}

TEST(VqeSweep, ErrorsComputedAgainstBothReferences) {
  const Device d = make_manhattan65();
  const auto result = run_vqe_sweep(d, h2_hamiltonian(),
                                    theta_grid(8, -1.5, 1.5),
                                    fast_options(true));
  EXPECT_GE(result.delta_e_base_pct, 0.0);
  EXPECT_GE(result.delta_e_theory_pct, 0.0);
  EXPECT_LT(result.delta_e_theory_pct, 60.0);  // sane under mild noise
  EXPECT_EQ(result.energies.size(), result.thetas.size());
}

TEST(VqeSweep, RejectsEmptyThetas) {
  const Device d = make_manhattan65();
  EXPECT_THROW(
      (void)run_vqe_sweep(d, h2_hamiltonian(), {}, fast_options(true)),
      std::invalid_argument);
}

}  // namespace
}  // namespace qucp
