#include "hardware/calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace qucp {
namespace {

Topology line4() { return Topology(4, {{0, 1}, {1, 2}, {2, 3}}); }

TEST(Calibration, SynthesizedIsValid) {
  const Topology topo = line4();
  const Calibration cal =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(1));
  EXPECT_NO_THROW(cal.validate(topo));
  EXPECT_EQ(cal.q1_error.size(), 4u);
  EXPECT_EQ(cal.cx_error.size(), 3u);
}

TEST(Calibration, Deterministic) {
  const Topology topo = line4();
  const Calibration a =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(5));
  const Calibration b =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(5));
  EXPECT_EQ(a.cx_error, b.cx_error);
  EXPECT_EQ(a.readout_error, b.readout_error);
  const Calibration c =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(6));
  EXPECT_NE(a.cx_error, c.cx_error);
}

TEST(Calibration, MediansRoughlyHonored) {
  // On a larger graph the lognormal medians should land near the profile.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 99; ++i) edges.emplace_back(i, i + 1);
  const Topology topo(100, edges);
  CalibrationProfile p;
  p.cx_error_median = 0.02;
  p.bad_edge_fraction = 0.0;
  p.bad_readout_fraction = 0.0;
  const Calibration cal = synthesize_calibration(topo, p, Rng(7));
  EXPECT_NEAR(cal.avg_cx_error(), 0.02, 0.012);
  EXPECT_GT(cal.avg_readout_error(), 0.005);
  EXPECT_LT(cal.avg_q1_error(), 0.005);
}

TEST(Calibration, BadEdgesDegrade) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 49; ++i) edges.emplace_back(i, i + 1);
  const Topology topo(50, edges);
  CalibrationProfile clean;
  clean.bad_edge_fraction = 0.0;
  clean.bad_readout_fraction = 0.0;
  CalibrationProfile dirty = clean;
  dirty.bad_edge_fraction = 0.3;
  dirty.bad_edge_multiplier = 5.0;
  const Calibration a = synthesize_calibration(topo, clean, Rng(9));
  const Calibration b = synthesize_calibration(topo, dirty, Rng(9));
  EXPECT_GT(b.avg_cx_error(), a.avg_cx_error());
}

TEST(Calibration, ValidateRejectsBadSizes) {
  const Topology topo = line4();
  Calibration cal =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(1));
  cal.q1_error.pop_back();
  EXPECT_THROW(cal.validate(topo), std::invalid_argument);
}

TEST(Calibration, ValidateRejectsOutOfRangeErrors) {
  const Topology topo = line4();
  Calibration cal =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(1));
  cal.cx_error[0] = 1.5;
  EXPECT_THROW(cal.validate(topo), std::invalid_argument);
  cal.cx_error[0] = -0.1;
  EXPECT_THROW(cal.validate(topo), std::invalid_argument);
}

TEST(Calibration, ValidateRejectsNonPositiveDurations) {
  const Topology topo = line4();
  Calibration cal =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(1));
  cal.q1_duration_ns = 0.0;
  EXPECT_THROW(cal.validate(topo), std::invalid_argument);
  cal.q1_duration_ns = 35.0;
  cal.t1_us[2] = -1.0;
  EXPECT_THROW(cal.validate(topo), std::invalid_argument);
  cal.t1_us[2] = 80.0;
  EXPECT_NO_THROW(cal.validate(topo));
  // A NaN or infinite duration would make every schedule time NaN or
  // infinite; each duration field is checked on its own.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    for (double* field :
         {&cal.q1_duration_ns, &cal.readout_duration_ns,
          &cal.cx_duration_ns[1]}) {
      const double saved = *field;
      *field = bad;
      EXPECT_THROW(cal.validate(topo), std::invalid_argument) << bad;
      *field = saved;
    }
  }
  EXPECT_NO_THROW(cal.validate(topo));
}

TEST(Calibration, ValidateAcceptsANoiselessChip) {
  // Zero error rates and infinite T1/T2 describe a chip without gate,
  // readout or idle noise; tests build quiet devices that way.
  const Topology topo = line4();
  Calibration cal =
      synthesize_calibration(topo, CalibrationProfile{}, Rng(1));
  for (std::vector<double>* v : {&cal.q1_error, &cal.readout_error,
                                 &cal.cx_error}) {
    std::fill(v->begin(), v->end(), 0.0);
  }
  const double forever = std::numeric_limits<double>::infinity();
  std::fill(cal.t1_us.begin(), cal.t1_us.end(), forever);
  std::fill(cal.t2_us.begin(), cal.t2_us.end(), forever);
  EXPECT_NO_THROW(cal.validate(topo));
}

}  // namespace
}  // namespace qucp
