// Golden suite for parametric compilation (mapping/parametric.hpp +
// the structural transpile / fusion-plan caches).
//
// The load-bearing contract is BIT-identity: a template bind must produce
// exactly the TranspiledProgram a from-scratch transpile_to_partition()
// would, gate for gate and bit for bit in every parameter — including
// bindings that flip one of the optimizer's recorded identity decisions,
// which must fall back to a rebuild rather than serve a wrong program.
// Likewise FusionPlan::materialize() replayed against a re-bound circuit
// must equal CompiledProgram::compile() of that circuit coefficient for
// coefficient. Service-level tests pin that the structural cache is a
// pure performance path: a cached service and an uncached one (capacity 0,
// every job transpiled from scratch) yield identical reports.

#include "mapping/parametric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate_cache.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "mapping/transpiler.hpp"
#include "service/backend.hpp"
#include "service/service.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "vqe/ansatz.hpp"

namespace qucp {
namespace {

constexpr double kTol = 1e-10;

std::vector<Device> bundled_devices() {
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  devices.push_back(make_line_device(9));
  devices.push_back(make_grid_device(4, 5));
  return devices;
}

/// Grow a random connected region of `want` qubits on the device topology.
std::vector<int> random_region(const Device& device, Rng& rng, int want) {
  const Topology& topo = device.topology();
  std::vector<int> region{static_cast<int>(
      rng.index(static_cast<std::size_t>(device.num_qubits())))};
  while (static_cast<int>(region.size()) < want) {
    std::vector<int> frontier;
    for (const Edge& e : topo.edges()) {
      const bool has_a = std::count(region.begin(), region.end(), e.a) > 0;
      const bool has_b = std::count(region.begin(), region.end(), e.b) > 0;
      if (has_a != has_b) frontier.push_back(has_a ? e.b : e.a);
    }
    if (frontier.empty()) break;
    region.push_back(frontier[rng.index(frontier.size())]);
  }
  return region;
}

/// A randomized parameterized logical circuit: rotation-heavy 1q layers
/// interleaved with CX entanglers over all-to-all logical pairs (routing
/// inserts the SWAPs), measurement-suffixed like real service jobs.
Circuit random_logical_circuit(int num_qubits, Rng& rng, int steps) {
  Circuit c(num_qubits);
  for (int q = 0; q < num_qubits; ++q) c.h(q);
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.uniform(0.0, 1.0);
    const int q = static_cast<int>(rng.index(static_cast<std::size_t>(num_qubits)));
    if (roll < 0.35 && num_qubits > 1) {
      int a = q;
      int b = static_cast<int>(rng.index(static_cast<std::size_t>(num_qubits)));
      if (a == b) b = (b + 1) % num_qubits;
      c.cx(a, b);
    } else if (roll < 0.55) {
      c.rz(rng.uniform(-3.0, 3.0), q);
    } else if (roll < 0.75) {
      c.ry(rng.uniform(-3.0, 3.0), q);
    } else if (roll < 0.85) {
      c.rx(rng.uniform(-3.0, 3.0), q);
    } else if (roll < 0.95) {
      c.u3(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
           rng.uniform(-3.0, 3.0), q);
    } else {
      c.t(q);
    }
  }
  c.measure_all();
  return c;
}

/// Copy `c` with every parameter slot redrawn from `rng` (same structure,
/// fresh binding).
Circuit rebound(const Circuit& c, Rng& rng, double lo = -3.0,
                double hi = 3.0) {
  Circuit out = c;
  for (std::size_t i = 0; i < c.ops().size(); ++i) {
    for (std::size_t j = 0; j < c.ops()[i].params.size(); ++j) {
      out.set_param(i, j, rng.uniform(lo, hi));
    }
  }
  return out;
}

void expect_programs_bit_identical(const TranspiledProgram& got,
                                   const TranspiledProgram& want,
                                   const std::string& label) {
  EXPECT_EQ(got.physical.ops(), want.physical.ops()) << label;
  EXPECT_EQ(got.physical.num_qubits(), want.physical.num_qubits()) << label;
  EXPECT_EQ(got.initial_layout, want.initial_layout) << label;
  EXPECT_EQ(got.final_layout, want.final_layout) << label;
  EXPECT_EQ(got.swaps_added, want.swaps_added) << label;
}

void expect_compiled_bit_identical(const CompiledProgram& got,
                                   const CompiledProgram& want,
                                   const std::string& label) {
  ASSERT_EQ(got.ops().size(), want.ops().size()) << label;
  for (std::size_t i = 0; i < got.ops().size(); ++i) {
    const FusedOp& g = got.ops()[i];
    const FusedOp& w = want.ops()[i];
    EXPECT_EQ(g.q[0], w.q[0]) << label << " op " << i;
    EXPECT_EQ(g.q[1], w.q[1]) << label << " op " << i;
    for (const auto& pr : {std::pair{&g.sv, &w.sv}, std::pair{&g.dm, &w.dm}}) {
      const kern::CompiledUnitary& a = *pr.first;
      const kern::CompiledUnitary& b = *pr.second;
      EXPECT_EQ(a.tag, b.tag) << label << " op " << i;
      EXPECT_EQ(a.k, b.k) << label << " op " << i;
      for (int r = 0; r < 4; ++r) EXPECT_EQ(a.src[r], b.src[r]) << label;
      for (int r = 0; r < 16; ++r) {
        // Exact comparison on purpose: materialize() performs the same
        // products in the same order as compile(), so every coefficient
        // must match bit for bit, not just to tolerance.
        EXPECT_EQ(a.re[r], b.re[r]) << label << " op " << i << " elem " << r;
        EXPECT_EQ(a.im[r], b.im[r]) << label << " op " << i << " elem " << r;
      }
    }
  }
  EXPECT_EQ(got.measurements(), want.measurements()) << label;
  EXPECT_EQ(got.num_qubits(), want.num_qubits()) << label;
}

// ---------------------------------------------------------------------------
// Transpile-template bit-identity
// ---------------------------------------------------------------------------

TEST(ParametricTranspile, BindsBitIdenticalOnAllTopologies) {
  // Randomized parameterized circuits on every bundled topology: the first
  // transpile through the epoch cache seeds a template, every re-bound
  // sweep iteration afterwards must reproduce transpile_to_partition()
  // exactly — same ops (bit-equal params), layouts, and swap count.
  std::uint64_t seed = 4400;
  const TranspileOptions topts = hardware_aware_options();
  for (const Device& device : bundled_devices()) {
    Backend backend(device);
    const auto epoch = backend.epoch();
    Rng rng(seed++);
    for (int trial = 0; trial < 3; ++trial) {
      const int k = 2 + static_cast<int>(rng.index(3));  // 2..4 qubits
      const std::vector<int> partition = random_region(device, rng, k);
      ASSERT_EQ(static_cast<int>(partition.size()), k);
      const Circuit base = random_logical_circuit(k, rng, 25 + 10 * trial);
      for (int iter = 0; iter < 8; ++iter) {
        const Circuit c = iter == 0 ? base : rebound(base, rng);
        const TranspiledProgram want =
            transpile_to_partition(c, device, partition, topts);
        const TranspiledProgram got =
            epoch->transpile(c, partition, topts, /*options_fp=*/17);
        expect_programs_bit_identical(
            got, want,
            device.name() + " trial " + std::to_string(trial) + " iter " +
                std::to_string(iter));
      }
    }
    const TranspileCacheStats stats = epoch->cache_stats();
    EXPECT_GT(stats.structural_hits, 0u) << device.name();
    EXPECT_GT(stats.bind_ns, 0u) << device.name();
  }
}

TEST(ParametricTranspile, IdentityFlippingBindingsFallBackBitIdentical) {
  // An angle of 0 makes a rotation an identity the peephole optimizer
  // deletes; a template built from a nonzero binding records the opposite
  // decision. Crossing the edge in either direction must detect the flip,
  // rebuild from scratch, and still return the exact from-scratch result.
  const Device device = make_line_device(5);
  const std::vector<int> partition{0, 1, 2};
  const TranspileOptions topts = hardware_aware_options();
  Backend backend(device);
  const auto epoch = backend.epoch();

  const auto make = [](double a, double b) {
    Circuit c(3);
    c.h(0);
    c.rz(a, 0);
    c.ry(b, 1);
    c.cx(0, 1);
    c.cx(1, 2);
    c.rx(a, 2);
    c.measure_all();
    return c;
  };

  // Template from a generic binding, then bindings straddling identity.
  const double cases[][2] = {{0.7, 1.1}, {0.0, 1.3}, {0.9, 0.0},
                             {0.0, 0.0}, {1.7, 2.9}};
  for (const auto& [a, b] : cases) {
    const Circuit c = make(a, b);
    const TranspiledProgram want =
        transpile_to_partition(c, device, partition, topts);
    const TranspiledProgram got = epoch->transpile(c, partition, topts, 3);
    expect_programs_bit_identical(got, want,
                                  "a=" + std::to_string(a) +
                                      " b=" + std::to_string(b));
  }
  const TranspileCacheStats stats = epoch->cache_stats();
  EXPECT_GT(stats.bind_fallbacks, 0u);

  // After the fallback rebuilds, a fresh generic binding binds again.
  const Circuit again = make(0.4, 2.2);
  expect_programs_bit_identical(
      epoch->transpile(again, partition, topts, 3),
      transpile_to_partition(again, device, partition, topts), "post-rebuild");
  EXPECT_GT(epoch->cache_stats().structural_hits, stats.structural_hits);
}

TEST(ParametricTranspile, MergedRotationChainsReplayExactSums) {
  // Adjacent same-axis rotations merge into one gate whose angle is a sum
  // of slots; the template's expression DAG must replay those additions in
  // the optimizer's order so the merged parameter is bit-equal.
  const Device device = make_line_device(4);
  const std::vector<int> partition{0, 1};
  const TranspileOptions topts = hardware_aware_options();
  Backend backend(device);
  const auto epoch = backend.epoch();

  Rng rng(77);
  const auto make = [](double a, double b, double c, double d) {
    Circuit circ(2);
    circ.h(0);
    circ.rz(a, 0);
    circ.rz(b, 0);
    circ.rz(c, 0);
    circ.cx(0, 1);
    circ.ry(d, 1);
    circ.ry(a, 1);
    circ.measure_all();
    return circ;
  };
  for (int iter = 0; iter < 10; ++iter) {
    const Circuit c = make(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                           rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0));
    expect_programs_bit_identical(
        epoch->transpile(c, partition, topts, 5),
        transpile_to_partition(c, device, partition, topts),
        "iter " + std::to_string(iter));
  }
  EXPECT_GT(epoch->cache_stats().structural_hits, 0u);
}

TEST(ParametricTranspile, ConcurrentBindsAreRaceFreeAndExact) {
  // Eight threads sweep the same ansatz structure with disjoint angle
  // streams through one epoch cache. Every thread checks its own results
  // against from-scratch transpiles; the stats must account for every
  // call. Run under TSan in CI to pin the locking discipline.
  const Device device = make_toronto27();
  const TranspileOptions topts = hardware_aware_options();
  Backend backend(device);
  const auto epoch = backend.epoch();
  Rng region_rng(41);
  const std::vector<int> partition = random_region(device, region_rng, 4);

  constexpr int kThreads = 8;
  constexpr int kIters = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9100u + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        std::vector<double> params(static_cast<std::size_t>(
            ansatz_parameter_count(4, 1)));
        for (double& p : params) p = rng.uniform(0.05, 3.0);
        Circuit c = make_ryrz_ansatz(4, 1, params);
        c.measure_all();
        const TranspiledProgram got = epoch->transpile(c, partition, topts, 9);
        const TranspiledProgram want =
            transpile_to_partition(c, device, partition, topts);
        if (got.physical.ops() != want.physical.ops() ||
            got.final_layout != want.final_layout) {
          mismatches.fetch_add(1);
        }
        (void)epoch->compiled_program(got.physical.compacted());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const TranspileCacheStats stats = epoch->cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.structural_hits +
                stats.bind_fallbacks,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_GT(stats.structural_hits, 0u);
}

TEST(ParametricTranspile, BindManyBitIdenticalToSequentialBinds) {
  // bind_many() is the sweep fast path's workhorse: N bindings evaluated
  // against one routed program with the evaluation arena and patch list
  // hoisted out of the loop. Every engaged entry must be bit-identical to
  // the corresponding bind() call, and a binding that flips a recorded
  // optimizer decision (an angle landing on an identity) must leave its
  // entry disengaged exactly where bind() returns nullopt — without
  // disturbing its neighbors.
  std::uint64_t seed = 5200;
  const TranspileOptions topts = hardware_aware_options();
  for (const Device& device : bundled_devices()) {
    Rng rng(seed++);
    const std::vector<int> partition = random_region(device, rng, 3);
    const Circuit base = random_logical_circuit(3, rng, 30);
    const std::optional<TranspileTemplate> tmpl =
        TranspileTemplate::build(base, device, partition, topts);
    ASSERT_TRUE(tmpl.has_value()) << device.name();

    std::vector<Circuit> sweep;
    std::vector<ParamBinding> bindings;
    for (int i = 0; i < 12; ++i) {
      Circuit c = rebound(base, rng, 0.1, 3.0);
      if (i % 4 == 3) {
        // Zero out the first parameterized rotation: lands on an identity
        // the representative binding did not have, flipping a recorded
        // decision for circuits where the optimizer logged one.
        for (std::size_t op = 0; op < c.ops().size(); ++op) {
          if (!c.ops()[op].params.empty()) {
            c.set_param(op, 0, 0.0);
            break;
          }
        }
      }
      bindings.emplace_back(c);
      sweep.push_back(std::move(c));
    }

    std::vector<std::optional<TranspiledProgram>> batch;
    tmpl->bind_many(bindings, batch);
    ASSERT_EQ(batch.size(), sweep.size()) << device.name();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const std::optional<TranspiledProgram> one =
          tmpl->bind(bindings[i].values);
      ASSERT_EQ(batch[i].has_value(), one.has_value())
          << device.name() << " binding " << i;
      if (one.has_value()) {
        expect_programs_bit_identical(
            *batch[i], *one, device.name() + " binding " + std::to_string(i));
      }
    }
    // Slot-count mismatch disengages rather than evaluating garbage.
    std::vector<ParamBinding> wrong(1);
    wrong[0].values.assign(bindings[0].values.size() + 1, 0.5);
    tmpl->bind_many(wrong, batch);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_FALSE(batch[0].has_value()) << device.name();
  }
}

// ---------------------------------------------------------------------------
// Fusion-plan materialization
// ---------------------------------------------------------------------------

TEST(ParametricFusion, MaterializedPlansBitIdenticalToCompile) {
  // A FusionPlan built from one binding and materialized against another
  // must equal compile() of that other circuit in every coefficient of
  // every fused kernel (same products, same order — bit-identical).
  std::uint64_t seed = 6100;
  for (const Device& device : bundled_devices()) {
    Rng rng(seed++);
    for (int trial = 0; trial < 3; ++trial) {
      const int k = 2 + static_cast<int>(rng.index(3));
      const Circuit base =
          random_logical_circuit(k, rng, 30 + 10 * trial).compacted();
      const FusionPlan plan = FusionPlan::build(base);
      EXPECT_EQ(plan.emitted(), CompiledProgram::compile(base).ops().size());
      for (int iter = 0; iter < 4; ++iter) {
        const Circuit c = rebound(base, rng);
        expect_compiled_bit_identical(
            CompiledProgram::materialize(plan, c), CompiledProgram::compile(c),
            device.name() + " trial " + std::to_string(trial));
      }
    }
  }
}

TEST(ParametricFusion, MaterializedReplayMatchesUnfusedWithinTolerance) {
  // End to end: a plan-materialized program replayed on the statevector
  // and density pipelines agrees with the gate-by-gate walk to <= 1e-10.
  Rng rng(7200);
  const Circuit base = random_logical_circuit(4, rng, 40).compacted();
  const FusionPlan plan = FusionPlan::build(base);
  for (int iter = 0; iter < 5; ++iter) {
    const Circuit c = rebound(base, rng);
    const CompiledProgram prog = CompiledProgram::materialize(plan, c);
    const Distribution fused = ideal_distribution(prog);
    const Distribution ref = ideal_distribution(c);
    for (const auto& [key, p] : ref.probs()) {
      EXPECT_NEAR(fused.prob(key), p, kTol) << "iter " << iter;
    }
    DensityMatrix dm(c.num_qubits());
    dm.run(prog);
    DensityMatrix dref(c.num_qubits());
    for (const Gate& g : c.ops()) {
      if (g.kind == GateKind::Barrier || g.kind == GateKind::Measure) continue;
      dref.apply_unitary(gate_matrix(g), g.qubits);
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < dm.data().size(); ++i) {
      worst = std::max(worst, std::abs(dm.data()[i] - dref.data()[i]));
    }
    EXPECT_LT(worst, kTol) << "iter " << iter;
  }
}

TEST(ParametricFusion, SweepRunsFusionWalkOnce) {
  // Regression for the recompile-per-angle-change inefficiency: a
  // 50-iteration angle sweep over one ansatz structure through the epoch's
  // program cache must run the fusion state machine exactly once and serve
  // every later iteration from the plan cache.
  const Device device = make_line_device(6);
  Backend backend(device);
  const auto epoch = backend.epoch();
  Rng rng(8300);
  const int params = ansatz_parameter_count(4, 2);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<double> angles(static_cast<std::size_t>(params));
    for (double& a : angles) a = rng.uniform(0.05, 3.1);
    Circuit c = make_ryrz_ansatz(4, 2, angles);
    c.measure_all();
    const auto prog = epoch->compiled_program(c);
    ASSERT_NE(prog, nullptr);
    EXPECT_EQ(prog->num_qubits(), 4);
  }
  EXPECT_EQ(epoch->program_cache().plan_builds(), 1u);
  EXPECT_EQ(epoch->program_cache().plan_hits(), 49u);
}

// ---------------------------------------------------------------------------
// Service-level behavior
// ---------------------------------------------------------------------------

/// Digest of one job result for cross-service comparison.
struct Digest {
  std::vector<int> partition;
  std::vector<Counts::Entry> counts;
  double pst = 0.0;
  double jsd = 0.0;

  [[nodiscard]] bool operator==(const Digest&) const = default;
};

std::map<std::string, Digest> sweep_through_service(bool cached) {
  ServiceOptions opts;
  opts.exec.shots = 128;
  opts.num_workers = 2;
  opts.max_batch_size = 4;
  // Capacity 0 is the reference arm: every job transpiles from scratch.
  opts.transpile_cache_capacity = cached ? 1024 : 0;
  ExecutionService service(make_toronto27(), opts);
  Rng rng(5150);
  std::vector<JobHandle> handles;
  const int params = ansatz_parameter_count(4, 1);
  for (int i = 0; i < 24; ++i) {
    std::vector<double> angles(static_cast<std::size_t>(params));
    for (double& a : angles) a = rng.uniform(0.05, 3.1);
    Circuit c = make_ryrz_ansatz(4, 1, angles);
    c.measure_all();
    JobOptions jopts;
    jopts.name = "sweep" + std::to_string(i);
    handles.push_back(service.submit(std::move(c), jopts));
  }
  service.flush();
  std::map<std::string, Digest> out;
  for (const JobHandle& h : handles) {
    const JobResult& r = h.result();
    out[h.name()] = {r.report.partition, r.report.counts.data(),
                     r.report.pst_value, r.report.jsd_value};
  }
  if (cached) {
    // The sweep shares one structure: beyond the first job per partition,
    // transpiles must be served by template binds.
    EXPECT_GT(service.stats().transpile_cache.structural_hits, 0u);
  }
  return out;
}

TEST(ParametricService, SweepResultsIdenticalWithCacheOnAndOff) {
  // Template binding is a pure performance path: the exact same jobs
  // through a structurally cached service and an uncached one (every job
  // transpiled from scratch) must produce bit-identical partitions,
  // counts, and metrics.
  const auto on = sweep_through_service(true);
  const auto off = sweep_through_service(false);
  ASSERT_EQ(on.size(), 24u);
  EXPECT_EQ(on, off);
}

// ---------------------------------------------------------------------------
// Sweep fast path: submit_all batched binding vs one-by-one submission
// ---------------------------------------------------------------------------

/// Build `count` jobs over `structures` distinct ansatz structures
/// (Hadamard-prefix variants, like the sweep benchmark), angles drawn from
/// `rng` away from rotation identities, names prefixed per producer.
std::vector<Circuit> sweep_jobs(Rng& rng, int structures, int count,
                                const std::string& prefix) {
  std::vector<Circuit> jobs;
  const int params = ansatz_parameter_count(4, 2);
  for (int i = 0; i < count; ++i) {
    std::vector<double> angles(static_cast<std::size_t>(params));
    for (double& a : angles) a = rng.uniform(0.1, 6.1);
    Circuit c = make_ryrz_ansatz(4, 2, angles);
    // Distinct Hadamard prefixes give distinct structural fingerprints.
    const int s = i % structures;
    for (int h = 0; h < s; ++h) c.h(h % 4);
    c.measure_all();
    c.set_name(prefix + std::to_string(i));
    jobs.push_back(std::move(c));
  }
  return jobs;
}

void expect_cache_stats_equal(const ServiceStats& sweep,
                              const ServiceStats& singles,
                              const std::string& label) {
  // Everything the epoch cache counts must be identical: the fast path
  // delegates misses/hits/fallbacks to the per-call transpile() and bulk-
  // commits structural hits, so the decision chain is exactly sequential.
  // bind_ns is wall-clock and sweep_groups/batched_binds are *supposed* to
  // differ — they are the fast path's own odometer.
  EXPECT_EQ(sweep.transpile_cache.hits, singles.transpile_cache.hits) << label;
  EXPECT_EQ(sweep.transpile_cache.misses, singles.transpile_cache.misses)
      << label;
  EXPECT_EQ(sweep.transpile_cache.structural_hits,
            singles.transpile_cache.structural_hits)
      << label;
  EXPECT_EQ(sweep.transpile_cache.bind_fallbacks,
            singles.transpile_cache.bind_fallbacks)
      << label;
  EXPECT_EQ(sweep.transpile_cache.evictions, singles.transpile_cache.evictions)
      << label;
  EXPECT_EQ(sweep.transpile_cache.entries, singles.transpile_cache.entries)
      << label;
}

TEST(ParametricService, SubmitAllSweepBitIdenticalToSingles) {
  // The tentpole contract: submit_all() sweep traffic through the batched
  // template-bind fast path must be bit-identical to submitting the same
  // circuits one at a time — same job ids, names, partitions, counts,
  // metrics, and the same epoch-cache counter totals. Run with the cache
  // on (fast path engaged) and off (fast path self-disables).
  for (const std::size_t capacity : {std::size_t{1024}, std::size_t{0}}) {
    const auto make_opts = [&] {
      ServiceOptions opts;
      opts.exec.shots = 96;
      opts.num_workers = 1;  // single worker: cache counter totals are
                             // deterministic (no racing first-sight misses)
      opts.max_batch_size = 4;
      opts.transpile_cache_capacity = capacity;
      return opts;
    };
    Rng rng_a(424242);
    Rng rng_b(424242);
    const std::string label = "capacity=" + std::to_string(capacity);

    ExecutionService sweep_svc(make_toronto27(), make_opts());
    std::vector<JobHandle> sweep_handles =
        sweep_svc.submit_all(sweep_jobs(rng_a, 3, 30, "job"));
    sweep_svc.flush();

    ExecutionService single_svc(make_toronto27(), make_opts());
    std::vector<JobHandle> single_handles;
    for (Circuit& c : sweep_jobs(rng_b, 3, 30, "job")) {
      single_handles.push_back(single_svc.submit(std::move(c)));
    }
    single_svc.flush();

    ASSERT_EQ(sweep_handles.size(), single_handles.size());
    for (std::size_t i = 0; i < sweep_handles.size(); ++i) {
      EXPECT_EQ(sweep_handles[i].id(), single_handles[i].id()) << label;
      EXPECT_EQ(sweep_handles[i].name(), single_handles[i].name()) << label;
      const JobResult& a = sweep_handles[i].result();
      const JobResult& b = single_handles[i].result();
      EXPECT_EQ(a.report.partition, b.report.partition) << label << " job " << i;
      EXPECT_EQ(a.report.counts.data(), b.report.counts.data())
          << label << " job " << i;
      EXPECT_EQ(a.report.pst_value, b.report.pst_value) << label;
      EXPECT_EQ(a.report.jsd_value, b.report.jsd_value) << label;
      EXPECT_EQ(a.batch.batch_index, b.batch.batch_index) << label;
      EXPECT_EQ(a.batch.batch_size, b.batch.batch_size) << label;
    }
    const ServiceStats sa = sweep_svc.stats();
    const ServiceStats sb = single_svc.stats();
    expect_cache_stats_equal(sa, sb, label);
    if (capacity > 0) {
      EXPECT_GT(sa.sweep_groups, 0u) << label;
      EXPECT_GE(sa.batched_binds, 2 * sa.sweep_groups) << label;
    } else {
      EXPECT_EQ(sa.sweep_groups, 0u) << label;
    }
    // One-by-one submission never engages the fast path.
    EXPECT_EQ(sb.sweep_groups, 0u) << label;
    EXPECT_EQ(sb.batched_binds, 0u) << label;
  }
}

TEST(ParametricService, SubmitAllSweepFuzzMultiProducer) {
  // Randomized cross-check under concurrent submission: four producers
  // each submit_all() their own sweep into one service while four
  // producers submit the same circuits one at a time into another. With
  // canonical ordering and distinct names, every job's result digest and
  // the RNG-stream-bearing counts must match exactly, and the cache
  // counter totals must agree. Run under TSan/ASan in CI.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 16;
  const auto run = [&](bool batched) {
    ServiceOptions opts;
    opts.exec.shots = 64;
    opts.num_workers = 1;
    opts.max_batch_size = 4;
    ExecutionService service(make_toronto27(), opts);
    std::vector<std::vector<JobHandle>> handles(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        Rng rng(7700u + static_cast<std::uint64_t>(p));
        std::vector<Circuit> jobs = sweep_jobs(
            rng, 2, kPerProducer, "p" + std::to_string(p) + "-");
        if (batched) {
          handles[p] = service.submit_all(std::move(jobs));
        } else {
          for (Circuit& c : jobs) {
            handles[p].push_back(service.submit(std::move(c)));
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
    service.flush();
    std::map<std::string, Digest> out;
    for (const auto& per_producer : handles) {
      for (const JobHandle& h : per_producer) {
        const JobResult& r = h.result();
        out[h.name()] = {r.report.partition, r.report.counts.data(),
                         r.report.pst_value, r.report.jsd_value};
      }
    }
    return std::pair{out, service.stats()};
  };
  const auto [sweep_digests, sweep_stats] = run(true);
  const auto [single_digests, single_stats] = run(false);
  ASSERT_EQ(sweep_digests.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(sweep_digests, single_digests);
  expect_cache_stats_equal(sweep_stats, single_stats, "multi-producer");
  EXPECT_GT(sweep_stats.sweep_groups, 0u);
  EXPECT_EQ(single_stats.sweep_groups, 0u);
}

}  // namespace
}  // namespace qucp
