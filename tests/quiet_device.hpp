#pragma once
// Test devices with chosen noise sources switched off. The executor always
// applies every noise source a device describes, so a test that needs a
// quiet chip asks the calibration for one: zero CX and 1q error rates give
// depolarizing parameter 0, infinite T1/T2 give identity relaxation, zero
// readout error leaves every bit unflipped and an empty crosstalk ground
// truth yields no crosstalk events.

#include <algorithm>
#include <limits>
#include <utility>

#include "hardware/device.hpp"

namespace qucp::test_devices {

enum Noise : unsigned {
  kGateNoise = 1U,       ///< cx_error and q1_error
  kIdleNoise = 2U,       ///< T1/T2 relaxation in schedule gaps
  kReadoutNoise = 4U,    ///< readout_error
  kCrosstalkNoise = 8U,  ///< the crosstalk ground truth
  kAllNoise = 15U,
};

/// `device` with the noise sources in `zeroed` (a bitwise or of Noise
/// values) switched off; topology, durations, name and every other source
/// are kept.
inline Device quiet_device(const Device& device, unsigned zeroed = kAllNoise) {
  Calibration cal = device.calibration();
  if ((zeroed & kGateNoise) != 0U) {
    std::fill(cal.cx_error.begin(), cal.cx_error.end(), 0.0);
    std::fill(cal.q1_error.begin(), cal.q1_error.end(), 0.0);
  }
  if ((zeroed & kIdleNoise) != 0U) {
    constexpr double kForever = std::numeric_limits<double>::infinity();
    std::fill(cal.t1_us.begin(), cal.t1_us.end(), kForever);
    std::fill(cal.t2_us.begin(), cal.t2_us.end(), kForever);
  }
  if ((zeroed & kReadoutNoise) != 0U) {
    std::fill(cal.readout_error.begin(), cal.readout_error.end(), 0.0);
  }
  return Device(device.name(), device.topology(), std::move(cal),
                (zeroed & kCrosstalkNoise) != 0U
                    ? CrosstalkModel{}
                    : device.crosstalk_ground_truth());
}

}  // namespace qucp::test_devices
