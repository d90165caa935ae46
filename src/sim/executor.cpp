#include "sim/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"
#include "sim/noise.hpp"

namespace qucp {

DerivedNoise DerivedNoise::from(const Device& device) {
  const Calibration& cal = device.calibration();
  DerivedNoise d;
  d.cx_depol.reserve(cal.cx_error.size());
  for (double err : cal.cx_error) d.cx_depol.push_back(depolarizing_param(err));
  d.q1_depol.reserve(cal.q1_error.size());
  for (double err : cal.q1_error) d.q1_depol.push_back(depolarizing_param(err));
  // Pairs naming an edge outside the topology can never see an event.
  const auto edges = static_cast<std::size_t>(device.topology().num_edges());
  const auto pairs = device.crosstalk_ground_truth().pairs();
  auto listed = [&](int e1, int e2, double g) {
    return g > 1.0 && e1 >= 0 && e2 >= 0 &&
           static_cast<std::size_t>(e1) < edges &&
           static_cast<std::size_t>(e2) < edges;
  };
  d.xtalk_begin.assign(edges + 1, 0);
  for (const auto& [e1, e2, g] : pairs) {
    if (!listed(e1, e2, g)) continue;
    ++d.xtalk_begin[static_cast<std::size_t>(e1) + 1];
    ++d.xtalk_begin[static_cast<std::size_t>(e2) + 1];
  }
  for (std::size_t e = 0; e < edges; ++e) {
    d.xtalk_begin[e + 1] += d.xtalk_begin[e];
  }
  d.xtalk_partner.resize(d.xtalk_begin.back());
  d.xtalk_gamma.resize(d.xtalk_begin.back());
  std::vector<std::uint32_t> fill(d.xtalk_begin.begin(),
                                  d.xtalk_begin.end() - 1);
  for (const auto& [e1, e2, g] : pairs) {
    if (!listed(e1, e2, g)) continue;
    for (const auto& [from, to] : {std::pair{e1, e2}, std::pair{e2, e1}}) {
      const std::uint32_t at = fill[static_cast<std::size_t>(from)]++;
      d.xtalk_partner[at] = to;
      d.xtalk_gamma[at] = g;
    }
  }
  return d;
}

namespace detail {

CrosstalkTally amplify_crosstalk(std::span<CxEvent> events,
                                 const DerivedNoise& derived) {
  CrosstalkTally tally;
  if (derived.xtalk_partner.empty()) return tally;
  // Bucket the events by edge (ascending event index within a bucket),
  // then visit, for each event, only the later events on its partner
  // edges: exactly the overlapping pairs with gamma > 1 an all-pairs scan
  // finds, same-program pairs included.
  const std::size_t num_edges = derived.xtalk_begin.size() - 1;
  std::vector<std::uint32_t> on_edge_begin(num_edges + 1, 0);
  for (const CxEvent& ev : events) {
    ++on_edge_begin[static_cast<std::size_t>(ev.edge) + 1];
  }
  for (std::size_t e = 0; e < num_edges; ++e) {
    on_edge_begin[e + 1] += on_edge_begin[e];
  }
  std::vector<std::uint32_t> on_edge(events.size());
  std::vector<std::uint32_t> fill(on_edge_begin.begin(),
                                  on_edge_begin.end() - 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    on_edge[fill[static_cast<std::size_t>(events[i].edge)]++] =
        static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    CxEvent& a = events[i];
    const auto e = static_cast<std::size_t>(a.edge);
    for (std::uint32_t t = derived.xtalk_begin[e];
         t < derived.xtalk_begin[e + 1]; ++t) {
      const auto partner = static_cast<std::size_t>(derived.xtalk_partner[t]);
      const double g = derived.xtalk_gamma[t];
      for (std::uint32_t k = on_edge_begin[partner];
           k < on_edge_begin[partner + 1]; ++k) {
        if (on_edge[k] <= i) continue;
        CxEvent& b = events[on_edge[k]];
        if (!intervals_overlap(a.start_ns, a.end_ns, b.start_ns, b.end_ns)) {
          continue;
        }
        // Conditional-error semantics (Murali et al.): the CX error in the
        // presence of any conflicting neighbor is gamma * base, so
        // concurrent partners take the max rather than compounding.
        a.gamma = std::max(a.gamma, g);
        b.gamma = std::max(b.gamma, g);
        ++tally.events;
        tally.max_gamma = std::max(tally.max_gamma, g);
      }
    }
  }
  return tally;
}

}  // namespace detail

ParallelRunReport execute_parallel(const Device& device,
                                   std::vector<PhysicalProgram> programs,
                                   const ExecOptions& options,
                                   const CompiledProgramCache* program_cache,
                                   const DerivedNoise* derived) {
  // Cap kernel-level threading for the whole run (scoped to this thread).
  const kern::ParallelThreadsGuard thread_cap(options.kernel_threads);
  if (programs.empty()) {
    throw std::invalid_argument("execute_parallel: no programs");
  }
  if (options.shots <= 0) {
    throw std::invalid_argument("execute_parallel: shots <= 0");
  }
  // Callers without an epoch compile through a zero-budget cache: the
  // same code, nothing kept past this call.
  std::optional<CompiledProgramCache> local_cache;
  if (program_cache == nullptr) {
    program_cache = &local_cache.emplace(device, 0);
  } else if (&program_cache->device() != &device) {
    throw std::invalid_argument(
        "execute_parallel: program cache built for another device");
  }
  // Callers without an epoch derive the constants per run.
  std::optional<DerivedNoise> local_derived;
  if (derived == nullptr) {
    derived = &local_derived.emplace(DerivedNoise::from(device));
  }
  const auto num_edges =
      static_cast<std::size_t>(device.topology().num_edges());
  if (derived->cx_depol.size() != num_edges ||
      derived->q1_depol.size() !=
          static_cast<std::size_t>(device.num_qubits()) ||
      derived->xtalk_begin.size() != num_edges + 1) {
    throw std::invalid_argument(
        "execute_parallel: derived noise built for another device");
  }
  const Calibration& cal = device.calibration();

  // Compile each program, then validate coupling and qubit usage against
  // this device. Each program's fingerprints are taken once and serve the
  // executable lookup and the outcome memo below.
  std::vector<std::shared_ptr<const CompiledExecutable>> compiled;
  compiled.reserve(programs.size());
  std::vector<CircuitFingerprints> fingerprints;
  fingerprints.reserve(programs.size());
  // Outcome-memo keys (sim/fusion.hpp): every input of a program's
  // simulation below beyond its binding, the device and `derived`. Only a
  // program whose executable entry is resident gets one; no cache would
  // store the others' outcomes.
  std::vector<std::optional<OutcomeKey>> keys;
  keys.reserve(programs.size());
  std::vector<char> used(static_cast<std::size_t>(device.num_qubits()), 0);
  int qubits_used = 0;
  for (const PhysicalProgram& prog : programs) {
    if (prog.circuit.num_qubits() > device.num_qubits()) {
      throw std::invalid_argument("execute_parallel: program wider than device");
    }
    fingerprints.push_back(circuit_fingerprints(prog.circuit));
    bool resident = false;
    std::shared_ptr<const CompiledExecutable> exe = program_cache->executable(
        prog.circuit, fingerprints.back(), options.schedule, &resident);
    keys.emplace_back();
    if (resident) keys.back().emplace().native = kern::native_kernels_active();
    if (!exe->structure().coupled()) {
      throw std::invalid_argument(
          "execute_parallel: two-qubit gate on uncoupled qubits in " +
          prog.name);
    }
    for (int q : exe->structure().active_qubits()) {
      if (used[static_cast<std::size_t>(q)] != 0) {
        throw std::invalid_argument(
            "execute_parallel: programs overlap on qubit " +
            std::to_string(q));
      }
      used[static_cast<std::size_t>(q)] = 1;
      ++qubits_used;
    }
    compiled.push_back(std::move(exe));
  }

  // Each program's cached schedule, aligned to the common end time under
  // ALAP (shifted in place, so the times match a fresh schedule's).
  std::vector<Schedule> schedules;
  schedules.reserve(compiled.size());
  double global_makespan = 0.0;
  for (const auto& exe : compiled) {
    schedules.push_back(exe->structure().schedule());
    global_makespan = std::max(global_makespan, schedules.back().makespan_ns);
  }
  if (options.schedule == SchedulePolicy::ALAP) {
    for (std::size_t p = 0; p < schedules.size(); ++p) {
      Schedule& s = schedules[p];
      const double shift = global_makespan - s.makespan_ns;
      for (ScheduledOp& op : s.ops) {
        op.start_ns += shift;
        op.end_ns += shift;
      }
      s.makespan_ns = global_makespan;
      if (keys[p]) keys[p]->shifts.push_back(shift);
    }
  }

  // Collect CX events and amplify overlapping one-hop pairs.
  using detail::CxEvent;
  std::vector<CxEvent> events;
  for (std::size_t p = 0; p < compiled.size(); ++p) {
    const std::vector<int>& edges = compiled[p]->structure().cx_edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i] < 0) continue;
      events.push_back({p, i, edges[i], schedules[p].ops[i].start_ns,
                        schedules[p].ops[i].end_ns, 1.0});
    }
  }
  if (options.serialize_crosstalk) {
    // Program-level serialization: programs are placed in input order and
    // a placed program never moves. While program p's CX overlaps a
    // one-hop CX of an earlier program, p shifts later until that gate
    // starts where the earlier one ends. p only moves later, so a cleared
    // pair stays cleared: the loop ends with no cross-program one-hop
    // pair overlapping, and needs no round cap.
    //
    // Everything about a pair except its time overlap (programs, edges,
    // Topology::one_hop) is shift-invariant, so the O(E^2) pair scan
    // runs once. Pairs are collected by their later event, and events by
    // program, so each program's pairs form one contiguous run.
    const Topology& topo = device.topology();
    auto statically_eligible = [&](const CxEvent& a, const CxEvent& b) {
      return a.program != b.program && topo.one_hop(a.edge, b.edge);
    };
    struct EligiblePair {
      std::uint32_t a = 0;  // event of the earlier program
      std::uint32_t b = 0;  // event of the program being placed
    };
    std::vector<EligiblePair> eligible;
    for (std::size_t j = 0; j < events.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (statically_eligible(events[i], events[j])) {
          eligible.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j)});
        }
      }
    }
    for (auto run = eligible.begin(); run != eligible.end();) {
      const std::size_t p = events[run->b].program;
      const auto run_end =
          std::find_if(run, eligible.end(), [&](const EligiblePair& pr) {
            return events[pr.b].program != p;
          });
      for (;;) {
        const auto found =
            std::find_if(run, run_end, [&](const EligiblePair& pr) {
              const CxEvent& a = events[pr.a];
              const CxEvent& b = events[pr.b];
              return intervals_overlap(a.start_ns, a.end_ns, b.start_ns,
                                       b.end_ns);
            });
        if (found == run_end) break;
        const double delta =
            events[found->a].end_ns - events[found->b].start_ns;
        for (ScheduledOp& op : schedules[p].ops) {
          op.start_ns += delta;
          op.end_ns += delta;
        }
        schedules[p].makespan_ns += delta;
        if (keys[p]) keys[p]->shifts.push_back(delta);
        for (CxEvent& ev : events) {
          if (ev.program == p) {
            ev.start_ns += delta;
            ev.end_ns += delta;
          }
        }
      }
      run = run_end;
    }
    global_makespan = 0.0;
    for (const Schedule& s : schedules) {
      global_makespan = std::max(global_makespan, s.makespan_ns);
    }
  }
  const detail::CrosstalkTally xtalk =
      detail::amplify_crosstalk(events, *derived);
  // Index the amplified gamma per (program, op): flat per-op vectors.
  std::vector<std::vector<double>> gamma_of(programs.size());
  for (std::size_t p = 0; p < compiled.size(); ++p) {
    gamma_of[p].assign(compiled[p]->structure().lowered().size(), 1.0);
  }
  for (const CxEvent& ev : events) {
    gamma_of[ev.program][ev.op] = ev.gamma;
    // Events are collected per program in op order, so each list ascends.
    if (ev.gamma != 1.0 && keys[ev.program]) {
      keys[ev.program]->gammas.emplace_back(static_cast<std::uint32_t>(ev.op),
                                            ev.gamma);
    }
  }

  // Simulate each program's partition.
  Rng rng(options.seed);
  ParallelRunReport report;
  report.makespan_ns = global_makespan;
  report.crosstalk_events = xtalk.events;
  report.max_gamma_applied = xtalk.max_gamma;
  report.qubits_used = qubits_used;
  report.throughput = hardware_throughput(qubits_used, device.num_qubits());

  // Flat device-indexed bookkeeping, reused across programs.
  std::vector<int> local_of(device.num_qubits(), -1);
  std::vector<double> busy_until(device.num_qubits(), 0.0);

  // The exact noisy outcome distribution of program p.
  std::vector<std::uint32_t> order;
  constexpr std::uint32_t kNoGate = ~std::uint32_t{0};
  std::vector<std::uint32_t> last_gate;  // per local qubit
  auto simulate = [&](std::size_t p) {
    const CompiledExecutable& exe = *compiled[p];
    const ExecutableStructure& st = exe.structure();
    const Circuit& circ = st.lowered();
    const std::vector<int>& active = st.active_qubits();
    for (std::size_t i = 0; i < active.size(); ++i) {
      local_of[active[i]] = static_cast<int>(i);
      busy_until[active[i]] = 0.0;
    }
    DensityMatrix dm(static_cast<int>(active.size()));

    std::vector<std::pair<int, int>> measurements;  // (device qubit, clbit)

    // Process ops in time order (stable on op index for ties). The
    // cached order sorts the unshifted schedule; a shift can only merge
    // start times into ties, so keep it when it is still sorted by
    // (start, index) and re-sort otherwise.
    const std::vector<ScheduledOp>& sched = schedules[p].ops;
    const std::vector<std::uint32_t>& cached = st.time_order();
    const bool still_sorted = std::is_sorted(
        cached.begin(), cached.end(), [&](std::uint32_t x, std::uint32_t y) {
          return sched[x].start_ns < sched[y].start_ns ||
                 (sched[x].start_ns == sched[y].start_ns && x < y);
        });
    const std::vector<std::uint32_t>* time_order = &cached;
    if (!still_sorted) {
      order = cached;
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t x, std::uint32_t y) {
                  return sched[x].start_ns < sched[y].start_ns ||
                         (sched[x].start_ns == sched[y].start_ns && x < y);
                });
      time_order = &order;
    }

    // Idle window of device qubit q up to until_ns (thermal relaxation
    // in the schedule gap), then mark it busy through busy_ns.
    auto take_idle = [&](int q, double until_ns, double busy_ns) {
      Relaxation r;
      const double gap = until_ns - busy_until[q];
      if (gap > 1e-9) {
        r = {gap, cal.t1_us[q], cal.t2_us[q]};
      }
      busy_until[q] = busy_ns;
      return r;
    };

    // Each local qubit's last gate in this order: after it the density
    // sweeps keep only the qubit's diagonal (DensityMatrix::settle).
    last_gate.assign(active.size(), kNoGate);
    for (std::uint32_t idx : *time_order) {
      const Gate& g = circ.ops()[idx];
      if (g.kind == GateKind::Barrier || g.kind == GateKind::Measure) continue;
      for (int q : g.qubits) {
        last_gate[static_cast<std::size_t>(local_of[q])] = idx;
      }
    }

    const std::vector<int>& cx_edges = st.cx_edges();
    int local[2];
    Relaxation idle[2];
    for (std::uint32_t idx : *time_order) {
      const Gate& g = circ.ops()[idx];
      const ScheduledOp& so = sched[idx];
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
      if (g.kind == GateKind::CX) {
        const double gamma = gamma_of[p][idx];
        const auto edge = static_cast<std::size_t>(cx_edges[idx]);
        // x * 1.0 == x bitwise for every finite error rate, so the
        // epoch-precomputed parameter is exact for unamplified gates.
        param = gamma == 1.0
                    ? derived->cx_depol[edge]
                    : depolarizing_param(cal.cx_error[edge] * gamma);
      } else {
        param = derived->q1_depol[static_cast<std::size_t>(g.qubits[0])];
      }
      // Idle relaxation, gate and depolarizing in one sweep over rho.
      dm.apply_noisy_gate(exe.channel(idx),
                          std::span<const int>(local, width),
                          std::span<const Relaxation>(idle, width), param);
      for (std::size_t i = 0; i < width; ++i) {
        if (last_gate[static_cast<std::size_t>(local[i])] == idx) {
          dm.settle(local[i]);
        }
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
    std::vector<int> local_bit;
    local_bit.reserve(m);
    for (const auto& [q, c] : measurements) local_bit.push_back(local_of.at(q));
    std::vector<double> meas_probs(std::size_t{1} << m, 0.0);
    const std::vector<double> local_probs = dm.probabilities();
    for (std::size_t basis = 0; basis < local_probs.size(); ++basis) {
      if (local_probs[basis] < 1e-15) continue;
      std::size_t packed = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if ((basis >> local_bit[j]) & 1U) packed |= std::size_t{1} << j;
      }
      meas_probs[packed] += local_probs[basis];
    }
    std::vector<double> flips;
    flips.reserve(m);
    for (const auto& [q, c] : measurements) {
      flips.push_back(cal.readout_error[q]);
    }
    apply_readout_flips(meas_probs, flips);
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
    return Distribution(num_bits, std::move(dist_entries));
  };

  // An exact repeat of a program's binding and key takes its memoized
  // outcome; either way only this run's sampling is left.
  for (std::size_t p = 0; p < compiled.size(); ++p) {
    ProgramOutcome outcome;
    outcome.name = programs[p].name;
    outcome.solo_makespan_ns = compiled[p]->structure().solo_makespan_ns();
    const std::shared_ptr<const Distribution> memo =
        keys[p] ? program_cache->outcome(fingerprints[p], options.schedule,
                                         *keys[p])
                : nullptr;
    if (memo != nullptr) {
      outcome.distribution = *memo;
    } else {
      outcome.distribution = simulate(p);
      if (keys[p]) {
        program_cache->store_outcome(fingerprints[p], options.schedule,
                                     *std::move(keys[p]), outcome.distribution);
      }
    }
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
