#include "mitigation/readout.hpp"

#include <gtest/gtest.h>

#include "hardware/device.hpp"
#include "sim/executor.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"

namespace qucp {
namespace {

TEST(ReadoutMitigation, Validation) {
  EXPECT_THROW(ReadoutMitigator::from_flip_probs({}), std::invalid_argument);
  EXPECT_THROW(ReadoutMitigator::from_flip_probs({0.6}),
               std::invalid_argument);
  EXPECT_NO_THROW(ReadoutMitigator::from_flip_probs({0.1, 0.02}));
}

TEST(ReadoutMitigation, InvertsKnownFlips) {
  // Apply flips forward with the noise helper, then mitigate: must
  // recover the clean distribution.
  std::vector<double> probs{0.7, 0.1, 0.15, 0.05};
  const std::vector<double> clean = probs;
  const std::vector<double> flips{0.08, 0.03};
  apply_readout_flips(probs, flips);

  std::vector<Distribution::Entry> noisy_entries;
  for (std::size_t x = 0; x < probs.size(); ++x) {
    noisy_entries.emplace_back(x, probs[x]);
  }
  const Distribution noisy(2, std::move(noisy_entries));

  const auto mitigator = ReadoutMitigator::from_flip_probs({0.08, 0.03});
  const Distribution recovered = mitigator.mitigate(noisy);
  for (std::size_t x = 0; x < clean.size(); ++x) {
    EXPECT_NEAR(recovered.prob(x), clean[x], 1e-9) << x;
  }
}

TEST(ReadoutMitigation, NoErrorIsIdentity) {
  const auto mitigator = ReadoutMitigator::from_flip_probs({0.0, 0.0});
  const Distribution d(2, {{0, 0.25}, {1, 0.25}, {2, 0.25}, {3, 0.25}});
  const Distribution out = mitigator.mitigate(d);
  for (std::uint64_t x = 0; x < 4; ++x) {
    EXPECT_NEAR(out.prob(x), 0.25, 1e-12);
  }
}

TEST(ReadoutMitigation, ClipsNegativesAndRenormalizes) {
  // A point distribution that readout error could not have produced:
  // the inverse generates negatives which must be clipped.
  const auto mitigator = ReadoutMitigator::from_flip_probs({0.2});
  const Distribution d(1, {{0, 0.5}, {1, 0.5}});
  const Distribution out = mitigator.mitigate(d);
  double total = 0.0;
  for (const auto& [x, p] : out.probs()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ReadoutMitigation, ImprovesExecutorPst) {
  const Device d = make_line_device(4);
  Circuit c(4, 2);
  c.x(0);
  c.cx(0, 1);
  c.measure(0, 0);
  c.measure(1, 1);
  const ProgramOutcome out = execute_single(d, c, {});
  const Distribution ideal = ideal_distribution(c);
  const auto mitigator = ReadoutMitigator::from_flip_probs(
      {d.readout_error(0), d.readout_error(1)});
  const Distribution mitigated = mitigator.mitigate(out.distribution);
  EXPECT_GT(mitigated.prob(ideal.most_likely()),
            out.distribution.prob(ideal.most_likely()));
}

TEST(ReadoutMitigation, RejectsOutcomesBeyondCalibratedBits) {
  const auto mitigator = ReadoutMitigator::from_flip_probs({0.1});
  const Distribution d(2, {{2, 1.0}});  // bit 1 set, only bit 0 calibrated
  EXPECT_THROW((void)mitigator.mitigate(d), std::invalid_argument);
}

}  // namespace
}  // namespace qucp
