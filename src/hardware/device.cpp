#include "hardware/device.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace qucp {

Device::Device(std::string name, Topology topology, Calibration calibration,
               CrosstalkModel crosstalk)
    : name_(std::move(name)),
      topo_(std::move(topology)),
      cal_(std::move(calibration)),
      xtalk_(std::move(crosstalk)) {
  cal_.validate(topo_);
}

double Device::cx_error(int a, int b) const {
  const auto e = topo_.edge_index(a, b);
  if (!e) throw std::invalid_argument("Device::cx_error: qubits not coupled");
  return cal_.cx_error[static_cast<std::size_t>(*e)];
}

double Device::cx_duration_ns(int a, int b) const {
  const auto e = topo_.edge_index(a, b);
  if (!e) {
    throw std::invalid_argument("Device::cx_duration_ns: qubits not coupled");
  }
  return cal_.cx_duration_ns[static_cast<std::size_t>(*e)];
}

double Device::readout_error(int q) const {
  if (q < 0 || q >= num_qubits()) {
    throw std::out_of_range("Device::readout_error");
  }
  return cal_.readout_error[static_cast<std::size_t>(q)];
}

namespace {

/// IBM Q 16 Melbourne: two rows (0-6 top, 7-14 bottom) with rung links.
Topology melbourne_topology() {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 6; ++i) edges.emplace_back(i, i + 1);         // top row
  for (int i = 7; i < 14; ++i) edges.emplace_back(i, i + 1);        // bottom
  edges.emplace_back(0, 14);
  edges.emplace_back(1, 13);
  edges.emplace_back(2, 12);
  edges.emplace_back(3, 11);
  edges.emplace_back(4, 10);
  edges.emplace_back(5, 9);
  edges.emplace_back(6, 8);
  return Topology(15, std::move(edges));
}

/// 27-qubit Falcon heavy-hex coupling map (ibmq_toronto family).
Topology toronto_topology() {
  const std::vector<std::pair<int, int>> edges = {
      {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},   {5, 8},
      {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12}, {11, 14}, {12, 13},
      {12, 15}, {13, 14}, {14, 16}, {15, 18}, {16, 19}, {17, 18}, {18, 21},
      {19, 20}, {19, 22}, {21, 23}, {22, 25}, {23, 24}, {24, 25}, {25, 26}};
  return Topology(27, edges);
}

/// 65-qubit Hummingbird heavy-hex coupling map (ibmq_manhattan).
Topology manhattan_topology() {
  std::vector<std::pair<int, int>> edges;
  auto row = [&edges](int first, int last) {
    for (int i = first; i < last; ++i) edges.emplace_back(i, i + 1);
  };
  row(0, 9);    // 0..9
  edges.insert(edges.end(), {{0, 10}, {4, 11}, {8, 12}});
  edges.insert(edges.end(), {{10, 13}, {11, 17}, {12, 21}});
  row(13, 23);  // 13..23
  edges.insert(edges.end(), {{15, 24}, {19, 25}, {23, 26}});
  edges.insert(edges.end(), {{24, 29}, {25, 33}, {26, 37}});
  row(27, 37);  // 27..37
  edges.insert(edges.end(), {{27, 38}, {31, 39}, {35, 40}});
  edges.insert(edges.end(), {{38, 41}, {39, 45}, {40, 49}});
  row(41, 51);  // 41..51
  edges.insert(edges.end(), {{43, 52}, {47, 53}, {51, 54}});
  edges.insert(edges.end(), {{52, 56}, {53, 60}, {54, 64}});
  row(55, 64);  // 55..64
  return Topology(65, edges);
}

}  // namespace

Device make_melbourne16(std::uint64_t seed) {
  Topology topo = melbourne_topology();
  Rng rng(seed);
  CalibrationProfile profile;
  profile.cx_error_median = 0.030;  // Melbourne-era error rates (Fig. 1)
  profile.readout_median = 0.045;
  profile.bad_edge_fraction = 0.0;  // errors are set explicitly below
  Calibration cal =
      synthesize_calibration(topo, profile, rng.derive("melbourne-cal"));
  // CX errors (in %) transcribed from Fig. 1, ordered: top-row links
  // 0-1..5-6, bottom-row links 7-8..13-14, rung links 0-14,1-13,...,6-8.
  const std::vector<double> fig1_pct = {
      2.1, 3.1, 1.9, 5.9, 1.1, 5.3,            // top row
      2.6, 6.2, 3.7, 2.4, 2.8, 2.7, 2.7,       // bottom row
      2.8, 2.9, 3.7, 4.0, 5.4, 4.9, 4.4};      // rungs
  for (std::size_t e = 0; e < fig1_pct.size(); ++e) {
    cal.cx_error[e] = fig1_pct[e] / 100.0;
  }
  CrosstalkModel xtalk = plant_crosstalk(topo, 0.15, 2.0, 5.0,
                                         rng.derive("melbourne-xtalk"));
  return Device("ibmq_melbourne16", std::move(topo), std::move(cal),
                std::move(xtalk));
}

Device make_toronto27(std::uint64_t seed) {
  Topology topo = toronto_topology();
  Rng rng(seed);
  CalibrationProfile profile;
  profile.cx_error_median = 0.015;  // Falcon-generation medians
  profile.readout_median = 0.030;
  profile.bad_edge_fraction = 0.15;
  profile.bad_edge_multiplier = 5.0;
  Calibration cal =
      synthesize_calibration(topo, profile, rng.derive("toronto-cal"));
  // Fig. 2 shows a sparse set of significantly-affected pairs on Toronto.
  CrosstalkModel xtalk =
      plant_crosstalk(topo, 0.25, 2.5, 8.0, rng.derive("toronto-xtalk"));
  return Device("ibmq_toronto27", std::move(topo), std::move(cal),
                std::move(xtalk));
}

Device make_manhattan65(std::uint64_t seed) {
  Topology topo = manhattan_topology();
  Rng rng(seed);
  CalibrationProfile profile;
  profile.cx_error_median = 0.018;  // Hummingbird medians
  profile.readout_median = 0.034;
  profile.bad_edge_fraction = 0.15;
  profile.bad_edge_multiplier = 5.0;
  Calibration cal =
      synthesize_calibration(topo, profile, rng.derive("manhattan-cal"));
  CrosstalkModel xtalk =
      plant_crosstalk(topo, 0.35, 2.5, 8.0, rng.derive("manhattan-xtalk"));
  return Device("ibmq_manhattan65", std::move(topo), std::move(cal),
                std::move(xtalk));
}

Device make_line_device(int n, std::uint64_t seed) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  Topology topo(n, std::move(edges));
  Rng rng(seed);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal =
      synthesize_calibration(topo, profile, rng.derive("line-cal"));
  return Device("line" + std::to_string(n), std::move(topo), std::move(cal),
                CrosstalkModel{});
}

Device make_grid_device(int rows, int cols, std::uint64_t seed) {
  std::vector<std::pair<int, int>> edges;
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  Topology topo(rows * cols, std::move(edges));
  Rng rng(seed);
  CalibrationProfile profile;
  Calibration cal =
      synthesize_calibration(topo, profile, rng.derive("grid-cal"));
  CrosstalkModel xtalk =
      plant_crosstalk(topo, 0.2, 2.0, 4.0, rng.derive("grid-xtalk"));
  return Device("grid" + std::to_string(rows) + "x" + std::to_string(cols),
                std::move(topo), std::move(cal), std::move(xtalk));
}

}  // namespace qucp
