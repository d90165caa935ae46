#pragma once
// Device = topology + calibration + hidden crosstalk ground truth.
//
// Factories model the three IBM machines the paper evaluates on:
//   - ibmq_melbourne16 : 15 qubits, ladder layout (Fig. 1; CX errors
//     transcribed from the figure)
//   - ibmq_toronto27   : 27 qubits, Falcon heavy-hex (Fig. 2, Fig. 3)
//   - ibmq_manhattan65 : 65 qubits, Hummingbird heavy-hex (Fig. 4-6)
// plus small synthetic devices for tests.

#include <memory>
#include <string>

#include "hardware/calibration.hpp"
#include "hardware/crosstalk.hpp"
#include "hardware/topology.hpp"

namespace qucp {

/// A Device never changes once built: every derived cache (CandidateIndex,
/// transpile and compiled-program caches, solo-EFS memos) assumes so. A
/// new calibration means a new Device, as Backend::recalibrate
/// (service/backend.hpp) builds one per epoch.
class Device {
 public:
  Device(std::string name, Topology topology, Calibration calibration,
         CrosstalkModel crosstalk);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const Calibration& calibration() const noexcept {
    return cal_;
  }
  /// Ground-truth crosstalk. Only the simulator and validation code may
  /// consult this; partitioners must work from calibration + SRB estimates.
  [[nodiscard]] const CrosstalkModel& crosstalk_ground_truth() const noexcept {
    return xtalk_;
  }

  [[nodiscard]] int num_qubits() const noexcept { return topo_.num_qubits(); }

  /// CX error of the edge (a,b); throws when not coupled.
  [[nodiscard]] double cx_error(int a, int b) const;
  [[nodiscard]] double cx_duration_ns(int a, int b) const;
  [[nodiscard]] double readout_error(int q) const;

 private:
  std::string name_;
  Topology topo_;
  Calibration cal_;
  CrosstalkModel xtalk_;
};

/// 15-qubit IBM Q 16 Melbourne with Fig. 1's CX error pattern.
[[nodiscard]] Device make_melbourne16(std::uint64_t seed = 2022);

/// 27-qubit heavy-hex Falcon (IBM Q 27 Toronto).
[[nodiscard]] Device make_toronto27(std::uint64_t seed = 2022);

/// 65-qubit heavy-hex Hummingbird (IBM Q 65 Manhattan).
[[nodiscard]] Device make_manhattan65(std::uint64_t seed = 2022);

/// Path graph of n qubits, uniform-ish calibration; for tests.
[[nodiscard]] Device make_line_device(int n, std::uint64_t seed = 7);

/// r x c grid device; for tests.
[[nodiscard]] Device make_grid_device(int rows, int cols,
                                      std::uint64_t seed = 7);

}  // namespace qucp
