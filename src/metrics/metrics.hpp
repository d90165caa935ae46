#pragma once
// Output-fidelity metrics from the paper's Eqs. (2)-(4).
//
// PST (Probability of a Successful Trial) scores circuits with one known
// correct outcome; JSD (Jensen-Shannon divergence, base-2, in [0,1])
// scores circuits whose ideal output is a distribution. JSD is defined
// through KL divergence (Eq. 4) against the mixture, but is computed in
// one merge walk over both supports and never calls a KL routine; the
// KL form lives on as an oracle in tests/test_metrics.cpp.

#include <cstdint>

#include "sim/counts.hpp"

namespace qucp {

/// PST = successful trials / total trials (Eq. 2), taken on the exact
/// distribution: the probability mass on the expected outcome.
[[nodiscard]] double pst(const Distribution& dist, std::uint64_t expected);

/// Jensen-Shannon divergence (Eq. 3), base-2: always finite, symmetric,
/// bounded to [0, 1]. Lower is better.
[[nodiscard]] double jsd(const Distribution& p, const Distribution& q);

/// Hardware throughput: used qubits / total qubits (paper §II-A).
[[nodiscard]] double hardware_throughput(int qubits_used, int device_qubits);

}  // namespace qucp
