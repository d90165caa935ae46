#include "sim/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "circuit/decompose.hpp"
#include "circuit/gate_cache.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"
#include "sim/noise.hpp"

namespace qucp {

namespace {

struct CxEvent {
  std::size_t program = 0;
  std::size_t op = 0;       // op index in the lowered program circuit
  int edge = -1;            // device edge id
  double start_ns = 0.0;
  double end_ns = 0.0;
  double gamma = 1.0;       // accumulated crosstalk multiplier
};

}  // namespace

DerivedNoise DerivedNoise::from(const Calibration& cal) {
  DerivedNoise d;
  d.cx_depol.reserve(cal.cx_error.size());
  for (double err : cal.cx_error) d.cx_depol.push_back(depolarizing_param(err));
  d.q1_depol.reserve(cal.q1_error.size());
  for (double err : cal.q1_error) d.q1_depol.push_back(depolarizing_param(err));
  return d;
}

ParallelRunReport execute_parallel(const Device& device,
                                   std::vector<PhysicalProgram> programs,
                                   const ExecOptions& options,
                                   GateMatrixCache* gate_cache,
                                   const CompiledProgramCache* program_cache,
                                   const DerivedNoise* derived) {
  // Cap kernel-level threading for the whole run (scoped to this thread).
  const kern::ParallelThreadsGuard thread_cap(options.kernel_threads);
  // Callers without a long-lived cache still deduplicate within the run.
  GateMatrixCache local_cache;
  GateMatrixCache& matrices = gate_cache != nullptr ? *gate_cache : local_cache;
  if (programs.empty()) {
    throw std::invalid_argument("execute_parallel: no programs");
  }
  if (options.shots <= 0) {
    throw std::invalid_argument("execute_parallel: shots <= 0");
  }
  const Topology& topo = device.topology();
  const Calibration& cal = device.calibration();

  // Lower to CX basis and compile per-op kernels — through the Backend's
  // persistent cache when given, else per call — then validate qubit usage
  // and coupling against this device.
  std::vector<std::shared_ptr<const CompiledExecutable>> compiled;
  compiled.reserve(programs.size());
  std::set<int> all_used;
  for (const PhysicalProgram& prog : programs) {
    if (prog.circuit.num_qubits() > device.num_qubits()) {
      throw std::invalid_argument("execute_parallel: program wider than device");
    }
    std::shared_ptr<const CompiledExecutable> exe =
        program_cache != nullptr
            ? program_cache->executable(prog.circuit, &matrices)
            : std::make_shared<const CompiledExecutable>(
                  CompiledExecutable::compile(prog.circuit, &matrices));
    for (const Gate& g : exe->lowered().ops()) {
      if (is_two_qubit_gate(g.kind) &&
          !topo.adjacent(g.qubits[0], g.qubits[1])) {
        throw std::invalid_argument(
            "execute_parallel: two-qubit gate on uncoupled qubits in " +
            prog.name);
      }
    }
    for (int q : exe->lowered().active_qubits()) {
      if (!all_used.insert(q).second) {
        throw std::invalid_argument(
            "execute_parallel: programs overlap on qubit " +
            std::to_string(q));
      }
    }
    compiled.push_back(std::move(exe));
  }

  // Schedule each program; align ALAP schedules to the common end time.
  std::vector<Schedule> schedules;
  double global_makespan = 0.0;
  for (const auto& exe : compiled) {
    schedules.push_back(
        schedule_circuit(exe->lowered(), device, options.schedule));
    global_makespan = std::max(global_makespan, schedules.back().makespan_ns);
  }
  if (options.schedule == SchedulePolicy::ALAP) {
    for (Schedule& s : schedules) {
      const double shift = global_makespan - s.makespan_ns;
      for (ScheduledOp& op : s.ops) {
        op.start_ns += shift;
        op.end_ns += shift;
      }
      s.makespan_ns = global_makespan;
    }
  }

  // Collect CX events and amplify overlapping one-hop pairs.
  auto collect_events = [&] {
    std::vector<CxEvent> events;
    for (std::size_t p = 0; p < compiled.size(); ++p) {
      const Circuit& low = compiled[p]->lowered();
      for (std::size_t i = 0; i < low.size(); ++i) {
        const Gate& g = low.ops()[i];
        if (g.kind != GateKind::CX) continue;
        const auto edge = topo.edge_index(g.qubits[0], g.qubits[1]);
        events.push_back({p, i, *edge, schedules[p].ops[i].start_ns,
                          schedules[p].ops[i].end_ns, 1.0});
      }
    }
    return events;
  };
  std::vector<CxEvent> events = collect_events();

  if (options.serialize_crosstalk) {
    // Program-level serialization: shift the later program past the
    // earlier one whenever a (hinted) one-hop CX pair overlaps. Coarse but
    // sound — overlap strictly decreases each round.
    //
    // Everything about a pair except its time overlap (programs, edges,
    // one-hop distance, hints) is shift-invariant, so the O(E^2) pair scan
    // runs once; each round then only rechecks overlap on the precomputed
    // eligible pairs. A shift moves just the victim program's events, so
    // the next scan resumes from the victim's earlier pairs plus the tail
    // at/after the shift position instead of restarting at index 0 —
    // pairs before that point without a victim event were already clean
    // and cannot have changed.
    auto statically_eligible = [&](const CxEvent& a, const CxEvent& b) {
      if (a.program == b.program || a.edge == b.edge) return false;
      const Edge& ea = topo.edges()[a.edge];
      const Edge& eb = topo.edges()[b.edge];
      if (ea.shares_qubit(eb)) return false;
      const int dist = std::min(
          {topo.distance(ea.a, eb.a), topo.distance(ea.a, eb.b),
           topo.distance(ea.b, eb.a), topo.distance(ea.b, eb.b)});
      if (dist != 1) return false;
      return !options.serialize_hints.has_value() ||
             options.serialize_hints->gamma(a.edge, b.edge) > 1.0;
    };
    struct EligiblePair {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
    };
    std::vector<EligiblePair> eligible;
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (statically_eligible(events[i], events[j])) {
          eligible.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j)});
        }
      }
    }
    // Eligible-pair positions touching each program, ascending.
    std::vector<std::vector<std::uint32_t>> pairs_of(programs.size());
    for (std::size_t t = 0; t < eligible.size(); ++t) {
      pairs_of[events[eligible[t].a].program].push_back(
          static_cast<std::uint32_t>(t));
      pairs_of[events[eligible[t].b].program].push_back(
          static_cast<std::uint32_t>(t));
    }
    auto overlapping = [&](const EligiblePair& pr) {
      const CxEvent& a = events[pr.a];
      const CxEvent& b = events[pr.b];
      return intervals_overlap(a.start_ns, a.end_ns, b.start_ns, b.end_ns);
    };
    const std::size_t kNoVictim = programs.size();
    std::size_t resume = 0;
    std::size_t last_victim = kNoVictim;
    for (int round = 0; round < 100; ++round) {
      std::size_t found = eligible.size();
      if (last_victim != kNoVictim) {
        for (std::uint32_t t : pairs_of[last_victim]) {
          if (t >= resume) break;
          if (overlapping(eligible[t])) {
            found = t;
            break;
          }
        }
      }
      if (found == eligible.size()) {
        for (std::size_t t = resume; t < eligible.size(); ++t) {
          if (overlapping(eligible[t])) {
            found = t;
            break;
          }
        }
      }
      if (found == eligible.size()) break;
      const CxEvent& a = events[eligible[found].a];
      const CxEvent& b = events[eligible[found].b];
      // Delay the program whose conflicting gate starts later.
      const bool delay_b = b.start_ns >= a.start_ns;
      const std::size_t victim = delay_b ? b.program : a.program;
      const double delta = delay_b ? a.end_ns - b.start_ns
                                   : b.end_ns - a.start_ns;
      for (ScheduledOp& op : schedules[victim].ops) {
        op.start_ns += delta;
        op.end_ns += delta;
      }
      schedules[victim].makespan_ns += delta;
      for (CxEvent& ev : events) {
        if (ev.program == victim) {
          ev.start_ns += delta;
          ev.end_ns += delta;
        }
      }
      resume = found;
      last_victim = victim;
    }
    global_makespan = 0.0;
    for (const Schedule& s : schedules) {
      global_makespan = std::max(global_makespan, s.makespan_ns);
    }
  }
  int crosstalk_events = 0;
  double max_gamma = 1.0;
  const CrosstalkModel& xtalk = device.crosstalk_ground_truth();
  if (options.crosstalk_noise && !xtalk.empty()) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        CxEvent& a = events[i];
        CxEvent& b = events[j];
        if (a.edge == b.edge) continue;
        if (!intervals_overlap(a.start_ns, a.end_ns, b.start_ns, b.end_ns)) {
          continue;
        }
        const double g = xtalk.gamma(a.edge, b.edge);
        if (g > 1.0) {
          // Conditional-error semantics (Murali et al.): the CX error in
          // the presence of any conflicting neighbor is gamma * base, so
          // concurrent partners take the max rather than compounding.
          a.gamma = std::max(a.gamma, g);
          b.gamma = std::max(b.gamma, g);
          ++crosstalk_events;
          max_gamma = std::max(max_gamma, g);
        }
      }
    }
  }
  // Index the amplified gamma per (program, op): flat per-op vectors.
  std::vector<std::vector<double>> gamma_of(programs.size());
  for (std::size_t p = 0; p < compiled.size(); ++p) {
    gamma_of[p].assign(compiled[p]->lowered().size(), 1.0);
  }
  for (const CxEvent& ev : events) gamma_of[ev.program][ev.op] = ev.gamma;

  // Simulate each program's partition.
  Rng rng(options.seed);
  ParallelRunReport report;
  report.makespan_ns = global_makespan;
  report.crosstalk_events = crosstalk_events;
  report.max_gamma_applied = max_gamma;
  report.qubits_used = static_cast<int>(all_used.size());
  report.throughput =
      static_cast<double>(all_used.size()) / device.num_qubits();

  // Flat device-indexed bookkeeping, reused across programs.
  std::vector<int> local_of(device.num_qubits(), -1);
  std::vector<double> busy_until(device.num_qubits(), 0.0);

  // No gate channels and no idle channels means the evolution is purely
  // unitary (crosstalk only amplifies gate depolarizing, and readout error
  // applies to the measurement probabilities afterwards), so each program
  // can replay its *fused* kernel stream instead of stepping gate by gate
  // — ~2x on noiseless density runs. Readout error, sampling seeds and all
  // reporting are unaffected. Agreement with the per-op walk (the noisy
  // path, run against a zero-error calibration) is pinned at <= 1e-10 by
  // tests/test_fusion.cpp.
  const bool fused_noiseless = !options.gate_noise && !options.idle_noise;

  for (std::size_t p = 0; p < compiled.size(); ++p) {
    const Circuit& circ = compiled[p]->lowered();
    const std::vector<FusedOp>& channels = compiled[p]->channels();
    const std::vector<int> active = circ.active_qubits();
    for (std::size_t i = 0; i < active.size(); ++i) {
      local_of[active[i]] = static_cast<int>(i);
      busy_until[active[i]] = 0.0;
    }
    DensityMatrix dm(static_cast<int>(active.size()));

    std::vector<std::pair<int, int>> measurements;  // (device qubit, clbit)

    if (fused_noiseless) {
      // Fused compilation of the compacted lowered circuit (active qubit i
      // = local bit i — exactly the local_of mapping the measurement
      // packing below relies on), through the Backend's cache when given.
      const Circuit compact = circ.compacted();
      if (program_cache != nullptr) {
        dm.run(*program_cache->fused(compact));
      } else {
        dm.run(CompiledProgram::compile(compact));
      }
      for (const Gate& g : circ.ops()) {
        if (g.kind == GateKind::Measure) {
          measurements.emplace_back(g.qubits[0], g.clbit);
        }
      }
    } else {
      // Process ops in time order (stable on op index for ties).
      std::vector<std::size_t> order(circ.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t x, std::size_t y) {
                         return schedules[p].ops[x].start_ns <
                                schedules[p].ops[y].start_ns;
                       });

      // Idle window of device qubit q up to until_ns (thermal relaxation
      // in the schedule gap), then mark it busy through busy_ns.
      auto take_idle = [&](int q, double until_ns, double busy_ns) {
        Relaxation r;
        const double gap = until_ns - busy_until[q];
        if (options.idle_noise && gap > 1e-9) {
          r = {gap, cal.t1_us[q], cal.t2_us[q]};
        }
        busy_until[q] = busy_ns;
        return r;
      };

      int local[2];
      Relaxation idle[2];
      for (std::size_t idx : order) {
        const Gate& g = circ.ops()[idx];
        const ScheduledOp& so = schedules[p].ops[idx];
        if (g.kind == GateKind::Barrier) continue;
        if (g.kind == GateKind::Measure) {
          const int q = g.qubits[0];
          const Relaxation r = take_idle(q, so.start_ns, so.end_ns);
          if (r.duration_ns > 0.0) {
            dm.apply_relaxation(local_of[q], r.duration_ns, r.t1_us, r.t2_us);
          }
          measurements.emplace_back(q, g.clbit);
          continue;
        }
        // Lowered circuits hold only 1q gates and CX.
        const std::size_t width = g.qubits.size();
        for (std::size_t i = 0; i < width; ++i) {
          local[i] = local_of[g.qubits[i]];
          idle[i] = take_idle(g.qubits[i], so.start_ns, so.end_ns);
        }
        double param = 0.0;
        if (options.gate_noise && g.kind == GateKind::CX) {
          const double gamma = gamma_of[p][idx];
          const int edge = *topo.edge_index(g.qubits[0], g.qubits[1]);
          // x * 1.0 == x bitwise for every finite error rate, so the
          // epoch-precomputed parameter is exact for unamplified gates.
          param = (derived != nullptr && gamma == 1.0)
                      ? derived->cx_depol[static_cast<std::size_t>(edge)]
                      : depolarizing_param(cal.cx_error[edge] * gamma);
        } else if (options.gate_noise) {
          param = derived != nullptr
                      ? derived->q1_depol[static_cast<std::size_t>(g.qubits[0])]
                      : depolarizing_param(cal.q1_error[g.qubits[0]]);
        }
        // Idle relaxation, gate and depolarizing in one sweep over rho.
        dm.apply_noisy_gate(channels[idx],
                            std::span<const int>(local, width),
                            std::span<const Relaxation>(idle, width), param);
      }
    }

    if (measurements.empty()) {
      throw std::invalid_argument("execute_parallel: program '" +
                                  programs[p].name +
                                  "' has no measurements");
    }
    // Sort by clbit so bit j of the packed index is measurement j.
    std::sort(measurements.begin(), measurements.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    const std::size_t m = measurements.size();
    std::vector<double> meas_probs(std::size_t{1} << m, 0.0);
    const std::vector<double> local_probs = dm.probabilities();
    for (std::size_t basis = 0; basis < local_probs.size(); ++basis) {
      if (local_probs[basis] < 1e-15) continue;
      std::size_t packed = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const int lq = local_of.at(measurements[j].first);
        if ((basis >> lq) & 1U) packed |= std::size_t{1} << j;
      }
      meas_probs[packed] += local_probs[basis];
    }
    if (options.readout_noise) {
      std::vector<double> flips;
      flips.reserve(m);
      for (const auto& [q, c] : measurements) {
        flips.push_back(cal.readout_error[q]);
      }
      apply_readout_flips(meas_probs, flips);
    }
    int num_bits = 0;
    for (const auto& [q, c] : measurements) num_bits = std::max(num_bits, c + 1);
    std::vector<Distribution::Entry> dist_entries;
    for (std::size_t packed = 0; packed < meas_probs.size(); ++packed) {
      if (meas_probs[packed] < 1e-15) continue;
      std::uint64_t outcome = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if ((packed >> j) & 1U) {
          outcome |= std::uint64_t{1} << measurements[j].second;
        }
      }
      dist_entries.emplace_back(outcome, meas_probs[packed]);
    }
    ProgramOutcome outcome;
    outcome.name = programs[p].name;
    outcome.distribution = Distribution(num_bits, std::move(dist_entries));
    Rng prog_rng = rng.derive(programs[p].name + "#" + std::to_string(p));
    outcome.counts = sample_counts(outcome.distribution, options.shots,
                                   prog_rng);
    report.programs.push_back(std::move(outcome));
  }
  return report;
}

ProgramOutcome execute_single(const Device& device,
                              const Circuit& physical_circuit,
                              const ExecOptions& options) {
  std::vector<PhysicalProgram> programs;
  programs.push_back({physical_circuit, physical_circuit.name().empty()
                                            ? "program"
                                            : physical_circuit.name()});
  ParallelRunReport report =
      execute_parallel(device, std::move(programs), options);
  return std::move(report.programs.front());
}

}  // namespace qucp
