#include "schedule/schedule.hpp"

#include <algorithm>
#include <stdexcept>

namespace qucp {

double op_duration_ns(const Gate& g, const Device& device) {
  const Calibration& cal = device.calibration();
  switch (g.kind) {
    case GateKind::Barrier:
      return 0.0;
    case GateKind::Measure:
      return cal.readout_duration_ns;
    case GateKind::CX:
    case GateKind::CZ:
      return device.cx_duration_ns(g.qubits[0], g.qubits[1]);
    case GateKind::SWAP:
      return 3.0 * device.cx_duration_ns(g.qubits[0], g.qubits[1]);
    default:
      return cal.q1_duration_ns;
  }
}

Schedule schedule_circuit(const Circuit& circuit, const Device& device,
                          SchedulePolicy policy) {
  if (circuit.num_qubits() > device.num_qubits()) {
    throw std::invalid_argument("schedule_circuit: circuit wider than device");
  }
  // ASAP walks the ops front to back, packing each as early as its wires
  // allow. ALAP is the ASAP schedule of the reversed op list (only
  // dependency order matters for timing), mirrored: walk back to front,
  // then map each reversed interval [s, e) to [makespan - e, makespan - s).
  const bool alap = policy == SchedulePolicy::ALAP;
  const std::size_t n = circuit.size();
  std::vector<double> ready(circuit.num_qubits(), 0.0);
  Schedule sched;
  sched.ops.resize(n);
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = alap ? n - 1 - step : step;
    const Gate& g = circuit.ops()[i];
    double start = 0.0;
    for (int q : g.qubits) start = std::max(start, ready[q]);
    const double dur = op_duration_ns(g, device);
    sched.ops[i] = {i, start, start + dur};
    for (int q : g.qubits) ready[q] = start + dur;
    sched.makespan_ns = std::max(sched.makespan_ns, start + dur);
  }
  if (alap) {
    for (ScheduledOp& op : sched.ops) {
      const double start = sched.makespan_ns - op.end_ns;
      op.end_ns = sched.makespan_ns - op.start_ns;
      op.start_ns = start;
    }
  }
  return sched;
}

bool intervals_overlap(double a_start, double a_end, double b_start,
                       double b_end) noexcept {
  return a_start < b_end && b_start < a_end;
}

}  // namespace qucp
