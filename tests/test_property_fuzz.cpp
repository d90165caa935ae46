// Randomized property tests: invariants that must hold for *any* circuit,
// checked over seeded random instances.
//  - transpilation preserves semantics (ideal output distribution)
//  - the peephole optimizer preserves the unitary
//  - statevector and density-matrix simulators agree on pure evolution
//  - QASM serialization round-trips
//  - folding preserves semantics at random scales
//  - executor distributions are valid probability distributions

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchmarks/suite.hpp"
#include "circuit/optimize.hpp"
#include "circuit/qasm.hpp"
#include "common/rng.hpp"
#include "fleetsim/simulator.hpp"
#include "mapping/transpiler.hpp"
#include "partition/candidates.hpp"
#include "reference_density.hpp"
#include "service/service.hpp"
#include "sim/density.hpp"
#include "sim/executor.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "zne/folding.hpp"

namespace qucp {
namespace {

/// Random circuit over n qubits with `gates` ops from a mixed gate set.
Circuit random_circuit(int n, int gates, Rng& rng, bool measured) {
  Circuit c(n, n, "fuzz");
  for (int i = 0; i < gates; ++i) {
    switch (rng.index(8)) {
      case 0: c.h(static_cast<int>(rng.index(n))); break;
      case 1: c.t(static_cast<int>(rng.index(n))); break;
      case 2: c.x(static_cast<int>(rng.index(n))); break;
      case 3: c.s(static_cast<int>(rng.index(n))); break;
      case 4: c.ry(rng.uniform(-3.1, 3.1), static_cast<int>(rng.index(n)));
        break;
      case 5: c.rz(rng.uniform(-3.1, 3.1), static_cast<int>(rng.index(n)));
        break;
      default: {
        if (n < 2) {
          c.h(0);
          break;
        }
        const int a = static_cast<int>(rng.index(n));
        int b = static_cast<int>(rng.index(n - 1));
        if (b >= a) ++b;
        if (rng.bernoulli(0.8)) {
          c.cx(a, b);
        } else {
          c.cz(a, b);
        }
        break;
      }
    }
  }
  if (measured) c.measure_all();
  return c;
}

void expect_same_distribution(const Distribution& a, const Distribution& b,
                              double tol = 1e-9) {
  for (const auto& [outcome, p] : a.probs()) {
    EXPECT_NEAR(b.prob(outcome), p, tol) << "outcome " << outcome;
  }
  for (const auto& [outcome, p] : b.probs()) {
    EXPECT_NEAR(a.prob(outcome), p, tol) << "outcome " << outcome;
  }
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, OptimizerPreservesUnitary) {
  Rng rng(1000 + GetParam());
  const Circuit c = random_circuit(3, 30, rng, false);
  const Circuit opt = optimize(c);
  EXPECT_TRUE(opt.to_unitary().approx_equal(c.to_unitary(), 1e-9));
}

TEST_P(FuzzSeeds, StatevectorAndDensityAgree) {
  Rng rng(2000 + GetParam());
  const Circuit c = random_circuit(4, 25, rng, false);
  Statevector sv(4);
  sv.apply_circuit(c);
  DensityMatrix dm(4);
  reference::apply_ops(dm, reference::compile_ops(c));
  const auto sp = sv.probabilities();
  const auto dp = dm.probabilities();
  for (std::size_t i = 0; i < sp.size(); ++i) {
    EXPECT_NEAR(sp[i], dp[i], 1e-10) << i;
  }
}

TEST_P(FuzzSeeds, QasmRoundTrip) {
  Rng rng(3000 + GetParam());
  const Circuit c = random_circuit(4, 20, rng, true);
  const Circuit back = parse_qasm(to_qasm(c), "fuzz");
  expect_same_distribution(ideal_distribution(c), ideal_distribution(back));
}

TEST_P(FuzzSeeds, TranspilationPreservesSemantics) {
  Rng rng(4000 + GetParam());
  const Circuit c = random_circuit(4, 18, rng, true);
  const Device d = make_toronto27(17 + GetParam());
  const auto cands = partition_candidates(d, 4, {});
  ASSERT_FALSE(cands.empty());
  const auto& partition = cands[rng.index(cands.size())];
  const TranspiledProgram tp = transpile_to_partition(c, d, partition);
  expect_same_distribution(ideal_distribution(c),
                           ideal_distribution(tp.physical.compacted()));
}

TEST_P(FuzzSeeds, FoldingPreservesSemantics) {
  Rng rng(5000 + GetParam());
  const Circuit c = random_circuit(3, 15, rng, true);
  const double scale = rng.uniform(1.0, 3.5);
  const Circuit folded = fold_gates_at_random(c, scale, rng.derive("fold"));
  expect_same_distribution(ideal_distribution(c),
                           ideal_distribution(folded), 1e-8);
}

TEST_P(FuzzSeeds, ExecutorDistributionIsNormalized) {
  Rng rng(6000 + GetParam());
  Circuit c = random_circuit(3, 20, rng, true);
  // Route onto the first three qubits of a line device.
  const Device d = make_line_device(6, 23 + GetParam());
  const TranspiledProgram tp =
      transpile_to_partition(c, d, std::vector<int>{0, 1, 2});
  ExecOptions opts;
  opts.shots = 64;
  const ProgramOutcome out = execute_single(d, tp.physical, opts);
  double total = 0.0;
  for (const auto& [outcome, p] : out.distribution.probs()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-12);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(out.counts.total(), 64);
}

TEST_P(FuzzSeeds, FleetSchedulerDeterministicUnderSubmissionInterleaving) {
  // Randomized fleet-scheduler property (the fleet extension of the
  // service determinism contract): a random job set submitted to a
  // heterogeneous 2-backend fleet in a random permutation must produce
  // identical per-job results and identical per-backend batch assignments
  // as the in-order submission — routing, packing and seeds all derive
  // from the canonical order, never from arrival order.
  Rng rng(9000 + GetParam());
  std::vector<Circuit> jobs;
  const int n = 4 + static_cast<int>(rng.index(5));  // 4..8 jobs
  for (int i = 0; i < n; ++i) {
    const int width = 2 + static_cast<int>(rng.index(3));  // 2..4 qubits
    jobs.push_back(random_circuit(width, 12, rng, true));
  }
  auto run = [&](const std::vector<std::size_t>& order) {
    ServiceOptions opts;
    opts.exec.shots = 64;
    opts.num_workers = 2;
    opts.max_batch_size = 3;
    opts.route_policy = RoutePolicy::LeastLoaded;
    BackendRegistry fleet(std::vector<Device>{
        make_line_device(8, 21), make_grid_device(3, 3, 22)});
    ExecutionService service(std::move(fleet), opts);
    std::vector<JobHandle> handles(jobs.size());
    for (std::size_t pos : order) {
      JobOptions jopts;
      jopts.name = "fuzz" + std::to_string(pos);
      handles[pos] = service.submit(jobs[pos], jopts);
    }
    service.flush();
    // (backend, batch, counts) digest per job, in job-id order.
    std::vector<std::tuple<int, std::uint64_t, std::vector<Counts::Entry>>>
        digest;
    for (const JobHandle& h : handles) {
      const JobResult& r = h.result();
      digest.emplace_back(r.batch.backend_id, r.batch.batch_index,
                          r.report.counts.data());
    }
    return digest;
  };

  std::vector<std::size_t> in_order(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) in_order[i] = i;
  std::vector<std::size_t> shuffled = in_order;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.index(i)]);
  }
  EXPECT_EQ(run(in_order), run(shuffled));
}

TEST_P(FuzzSeeds, FleetSimulatorInvariantsUnderRandomTraffic) {
  // Randomized interleaving fuzz over the discrete-event simulator: a
  // random fleet of real line devices (the narrow ones cannot host the
  // wider classes), random suite circuits with random makespans, a random
  // arrival process and a random policy must always yield a physical
  // trace — every arrival served on a device it fits, batches within the
  // cap, FIFO lanes across dispatch cycles, busy time bounded by the
  // horizon — and rerunning the simulation must be bit-identical.
  Rng rng(11000 + GetParam());
  const std::size_t num_devices = 2 + rng.index(3);  // 2..4
  std::vector<Device> devices;
  for (std::size_t d = 0; d < num_devices; ++d) {
    // The last device hosts every suite circuit (at most 5 qubits).
    const int width = d + 1 < num_devices ? 3 + static_cast<int>(rng.index(4))
                                          : 6;
    devices.push_back(make_line_device(width, 1 + d));
  }
  std::vector<std::string> names = {"bell", "4mod", "lin", "alu",
                                    "var",  "qec",  "adder", "fred"};
  rng.shuffle(names);
  const std::size_t num_classes = 1 + rng.index(4);  // 1..4
  const MethodPartitioner qucp(Method::QuCP, 4.0, std::nullopt);
  std::vector<fleetsim::SimJobClass> classes;
  for (std::size_t c = 0; c < num_classes; ++c) {
    const Circuit& circuit = get_benchmark(names[c]).circuit;
    fleetsim::SimJobClass cls{names[c], shape_of(circuit),
                              circuit_fingerprint(circuit), {}};
    for (const Device& device : devices) {
      const bool fits = solo_efs_score(device, qucp, cls.shape).has_value();
      cls.makespan_ns.push_back(fits ? rng.uniform(500.0, 8000.0) : -1.0);
    }
    classes.push_back(std::move(cls));
  }

  fleetsim::ArrivalConfig config;
  config.kind = static_cast<fleetsim::ArrivalKind>(rng.index(3));
  config.rate_per_s = rng.uniform(0.05, 2.0);
  config.diurnal_period_s = rng.uniform(60.0, 600.0);
  config.class_weights.assign(num_classes, 0.0);
  for (double& w : config.class_weights) w = rng.uniform(0.1, 3.0);

  fleetsim::SimOptions options;
  options.policy = static_cast<RoutePolicy>(rng.index(4));
  options.max_batch_size = static_cast<int>(rng.index(5));  // 0 = unbounded
  const int cap = options.max_batch_size <= 0
                      ? std::numeric_limits<int>::max()
                      : options.max_batch_size;

  const fleetsim::FleetSimulator sim(classes, BackendRegistry(devices),
                                     options);
  const auto arrivals =
      fleetsim::generate_arrivals(config, 400, 500 + GetParam());
  const fleetsim::SimTrace trace = sim.run(arrivals);

  ASSERT_EQ(trace.jobs.size(), arrivals.size());
  // Per device: the latest end of the cycles before the current one, and
  // of the current one. A cycle is identified by its dispatch time.
  std::vector<double> earlier_end(num_devices, 0.0);
  std::vector<double> current_end(num_devices, 0.0);
  std::vector<double> current_dispatch(num_devices, 0.0);
  double last_dispatch = 0.0;
  std::map<std::tuple<int, double, double>, int> batch_sizes;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const fleetsim::JobRecord& r = trace.jobs[i];
    EXPECT_EQ(r.job_class, arrivals[i].job_class);
    EXPECT_DOUBLE_EQ(r.arrival_s, arrivals[i].time_s);
    ASSERT_GE(r.device, 0);
    ASSERT_LT(static_cast<std::size_t>(r.device), num_devices);
    const auto d = static_cast<std::size_t>(r.device);
    // Routed somewhere the class actually fits.
    EXPECT_GE(classes[static_cast<std::size_t>(r.job_class)].makespan_ns[d],
              0.0);
    EXPECT_GT(r.efs, 0.0);
    EXPECT_GE(r.dispatch_s, r.arrival_s);
    EXPECT_GE(r.start_s, r.dispatch_s);
    EXPECT_GT(r.end_s, r.start_s);
    EXPECT_LE(r.end_s, trace.horizon_s);
    // Arrivals are planned in order. FIFO lanes: a job starts no earlier
    // than every job of an earlier cycle on its device ends, so start
    // times never regress in arrival order per device across cycles.
    // (Within a cycle the service's canonical order, fingerprint first,
    // and the packer decide the order, not arrival.)
    EXPECT_GE(r.dispatch_s, last_dispatch);
    last_dispatch = r.dispatch_s;
    if (r.dispatch_s != current_dispatch[d]) {
      earlier_end[d] = std::max(earlier_end[d], current_end[d]);
      current_dispatch[d] = r.dispatch_s;
    }
    EXPECT_GE(r.start_s, earlier_end[d]);
    current_end[d] = std::max(current_end[d], r.end_s);
    batch_sizes[{r.device, r.start_s, r.end_s}] += 1;
  }
  std::vector<std::uint64_t> batches_per_device(num_devices, 0);
  for (const auto& [key, size] : batch_sizes) {
    EXPECT_LE(size, cap);
    batches_per_device[static_cast<std::size_t>(std::get<0>(key))] += 1;
  }
  double busy_sum = 0.0;
  for (std::size_t d = 0; d < num_devices; ++d) {
    EXPECT_LE(trace.busy_s[d], trace.horizon_s + 1e-9);
    // Distinct (start, end) pairs undercount only if two batches on one
    // device share both endpoints, which disjoint busy intervals forbid.
    EXPECT_EQ(trace.batches[d], batches_per_device[d]);
    busy_sum += trace.busy_s[d];
  }
  EXPECT_GT(busy_sum, 0.0);

  // Bit-identical on rerun: the simulator holds no hidden state.
  EXPECT_EQ(trace.hash(), sim.run(arrivals).hash());
}

TEST_P(FuzzSeeds, InverseCircuitComposesToIdentity) {
  Rng rng(7000 + GetParam());
  const Circuit c = random_circuit(3, 20, rng, false);
  Circuit full = c;
  full.compose(c.inverse());
  Statevector sv(3);
  sv.apply_circuit(full);
  EXPECT_NEAR(sv.probabilities()[0], 1.0, 1e-9);
}

TEST_P(FuzzSeeds, NoiseOnlyReducesPeakProbability) {
  // Depolarizing + readout noise can never make the modal outcome more
  // likely than ideal for a deterministic-output circuit built from
  // classical gates.
  Rng rng(8000 + GetParam());
  Circuit c(3, 3);
  // Random classical reversible circuit: X and CX only.
  for (int i = 0; i < 15; ++i) {
    if (rng.bernoulli(0.4)) {
      c.x(static_cast<int>(rng.index(3)));
    } else {
      const int a = static_cast<int>(rng.index(3));
      int b = static_cast<int>(rng.index(2));
      if (b >= a) ++b;
      c.cx(a, b);
    }
  }
  c.measure_all();
  const Device d = make_line_device(5, 31 + GetParam());
  const TranspiledProgram tp =
      transpile_to_partition(c, d, std::vector<int>{0, 1, 2});
  const ProgramOutcome out = execute_single(d, tp.physical, {});
  const Distribution ideal = ideal_distribution(c);
  EXPECT_LT(out.distribution.prob(ideal.most_likely()), 1.0);
  EXPECT_GT(out.distribution.prob(ideal.most_likely()), 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 10));

}  // namespace
}  // namespace qucp
