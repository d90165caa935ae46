#include "zne/factory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace qucp {
namespace {

TEST(Polyfit, ExactLine) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{3, 5, 7, 9};  // y = 1 + 2x
  const auto c = polyfit(xs, ys, 1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 2.0, 1e-9);
}

TEST(Polyfit, ExactQuadratic) {
  const std::vector<double> xs{0, 1, 2, 3};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.0 - x + 0.5 * x * x);
  const auto c = polyfit(xs, ys, 2);
  EXPECT_NEAR(c[0], 2.0, 1e-9);
  EXPECT_NEAR(c[1], -1.0, 1e-9);
  EXPECT_NEAR(c[2], 0.5, 1e-9);
}

TEST(Polyfit, LeastSquaresAveragesNoise) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6};
  const std::vector<double> ys{2.1, 1.9, 2.05, 1.95, 2.02, 1.98};
  const auto c = polyfit(xs, ys, 0);
  EXPECT_NEAR(c[0], 2.0, 0.05);
}

TEST(Polyfit, Validation) {
  const std::vector<double> xs{1, 2};
  const std::vector<double> ys{1, 2};
  EXPECT_THROW((void)polyfit(xs, ys, 2), std::invalid_argument);
  EXPECT_THROW((void)polyfit(xs, ys, -1), std::invalid_argument);
  const std::vector<double> y1{1};
  EXPECT_THROW((void)polyfit(xs, y1, 1), std::invalid_argument);
}

TEST(LinearFactoryTest, ExtrapolatesLineToZero) {
  const std::vector<double> scales{1.0, 1.5, 2.0, 2.5};
  std::vector<double> values;
  for (double s : scales) values.push_back(0.9 - 0.2 * s);  // ideal 0.9
  EXPECT_NEAR(polyfit(scales, values, 1)[0], 0.9, 1e-9);
}

TEST(PolyFactoryTest, CapturesCurvature) {
  const std::vector<double> scales{1.0, 1.5, 2.0, 2.5};
  std::vector<double> values;
  for (double s : scales) values.push_back(1.0 - 0.1 * s - 0.05 * s * s);
  EXPECT_NEAR(polyfit(scales, values, 2)[0], 1.0, 1e-9);
}

TEST(RichardsonFactoryTest, InterpolatesExactly) {
  // Any polynomial of degree n-1 through n points extrapolates exactly.
  const std::vector<double> scales{1.0, 1.5, 2.0};
  std::vector<double> values;
  for (double s : scales) values.push_back(0.8 - 0.3 * s + 0.02 * s * s);
  EXPECT_NEAR(richardson_extrapolate(scales, values), 0.8, 1e-9);
}

TEST(RichardsonFactoryTest, Validation) {
  const std::vector<double> one{1.0};
  const std::vector<double> v1{0.5};
  EXPECT_THROW((void)richardson_extrapolate(one, v1), std::invalid_argument);
  const std::vector<double> dup{1.0, 1.0};
  const std::vector<double> v2{0.5, 0.6};
  EXPECT_THROW((void)richardson_extrapolate(dup, v2), std::invalid_argument);
}

TEST(Factories, ExponentialDecaySignal) {
  // Expectation decaying as E(s) = E0 * exp(-0.3 s): none of the fits is
  // exact, but all must beat the unmitigated scale-1 value.
  const double e0 = 1.0;
  const std::vector<double> scales{1.0, 1.5, 2.0, 2.5};
  std::vector<double> values;
  for (double s : scales) values.push_back(e0 * std::exp(-0.3 * s));
  const double unmitigated_err = std::abs(values[0] - e0);

  EXPECT_LT(std::abs(polyfit(scales, values, 1)[0] - e0), unmitigated_err)
      << "Linear";
  EXPECT_LT(std::abs(polyfit(scales, values, 2)[0] - e0), unmitigated_err)
      << "Poly2";
  EXPECT_LT(std::abs(richardson_extrapolate(scales, values) - e0),
            unmitigated_err)
      << "Richardson";
}

}  // namespace
}  // namespace qucp
