#include "zne/folding.hpp"

#include <gtest/gtest.h>

#include "sim/statevector.hpp"

namespace qucp {
namespace {

Circuit sample_circuit() {
  Circuit c(3, 3, "sample");
  c.h(0);
  c.t(1);
  c.cx(0, 1);
  c.ry(0.4, 2);
  c.cx(1, 2);
  c.s(0);
  c.rz(-0.3, 1);
  c.x(2);
  c.measure_all();
  return c;
}

TEST(Folding, ScaleOneIsIdentityTransformation) {
  const Circuit c = sample_circuit();
  const Circuit folded = fold_gates_at_random(c, 1.0, Rng(1));
  EXPECT_EQ(folded.gate_count(), c.gate_count());
}

class FoldScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(FoldScaleTest, AchievedScaleNearRequested) {
  const Circuit c = sample_circuit();
  const double scale = GetParam();
  const Circuit folded = fold_gates_at_random(c, scale, Rng(7));
  // Quantization: folds add pairs of gates, so the achieved scale is
  // within 1/n of the request.
  EXPECT_NEAR(achieved_scale(c, folded), scale,
              2.0 / c.gate_count() + 1e-12);
}

TEST_P(FoldScaleTest, FoldingPreservesSemantics) {
  const Circuit c = sample_circuit();
  const Circuit folded = fold_gates_at_random(c, GetParam(), Rng(3));
  const Distribution want = ideal_distribution(c);
  const Distribution got = ideal_distribution(folded);
  for (const auto& [outcome, p] : want.probs()) {
    EXPECT_NEAR(got.prob(outcome), p, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, FoldScaleTest,
                         ::testing::Values(1.0, 1.5, 2.0, 2.5, 3.0, 4.5));

TEST(Folding, MeasurementsStayTerminalAndUntouched) {
  const Circuit c = sample_circuit();
  const Circuit folded = fold_gates_at_random(c, 2.5, Rng(5));
  EXPECT_EQ(folded.count_ops().at("measure"), 3);
  // All measurements at the very end.
  std::size_t first_measure = folded.size();
  for (std::size_t i = 0; i < folded.size(); ++i) {
    if (folded.ops()[i].kind == GateKind::Measure) {
      first_measure = std::min(first_measure, i);
    } else {
      EXPECT_GT(first_measure, i) << "gate after measurement";
    }
  }
}

TEST(Folding, RejectsBadScale) {
  const Circuit c = sample_circuit();
  EXPECT_THROW((void)fold_gates_at_random(c, 0.5, Rng(1)),
               std::invalid_argument);
}

TEST(Folding, NonTerminalMeasurementRejected) {
  Circuit c(2, 2);
  c.h(0);
  c.measure(0, 0);
  c.x(0);
  EXPECT_THROW((void)fold_gates_at_random(c, 2.0, Rng(1)),
               std::invalid_argument);
}

TEST(Folding, DeterministicPerSeed) {
  const Circuit c = sample_circuit();
  const Circuit a = fold_gates_at_random(c, 2.0, Rng(9));
  const Circuit b = fold_gates_at_random(c, 2.0, Rng(9));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.ops()[i], b.ops()[i]);
  }
}

TEST(Folding, PaperScaleFactors) {
  EXPECT_EQ(paper_scale_factors(), (std::vector<double>{1.0, 1.5, 2.0, 2.5}));
}

TEST(Folding, AchievedScaleValidation) {
  const Circuit empty(2);
  EXPECT_THROW((void)achieved_scale(empty, empty), std::invalid_argument);
}

}  // namespace
}  // namespace qucp
