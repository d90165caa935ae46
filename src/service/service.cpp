#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "core/runtime.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"

namespace qucp {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

constexpr auto mix = fnv1a_mix;

/// Transpile options for one program of a batch, plus the fingerprint of
/// everything besides (circuit, partition) that can change the result:
/// method presets, optimize flags, the CNA crosstalk context, and the SRB
/// estimates the CNA router reads. `context_edges` are CNA's co-runner
/// edges (empty for every other method). run_batch_pipeline and the sweep
/// prebind in dispatch_pending both derive their cache keys here, so the
/// two can never disagree on a key.
struct TranspileSetup {
  TranspileOptions options;
  std::uint64_t fp = 0;
};

TranspileSetup transpile_setup(const ParallelOptions& options,
                               std::vector<int> context_edges) {
  TranspileSetup setup;
  std::uint64_t h = kFnv1aBasis;
  h = mix(h, static_cast<std::uint64_t>(options.method));
  h = mix(h, std::bit_cast<std::uint64_t>(options.sigma));
  h = mix(h, options.optimize_circuits ? 1 : 0);
  h = mix(h, context_edges.size());
  for (int e : context_edges) h = mix(h, static_cast<std::uint64_t>(e));
  if (options.srb_estimates) {
    for (const auto& [e1, e2, gamma] : options.srb_estimates->pairs()) {
      h = mix(h, static_cast<std::uint64_t>(e1));
      h = mix(h, static_cast<std::uint64_t>(e2));
      h = mix(h, std::bit_cast<std::uint64_t>(gamma));
    }
  }
  setup.fp = h;
  setup.options =
      options.method == Method::CNA
          ? cna_options(std::move(context_edges),
                        options.srb_estimates ? &*options.srb_estimates
                                              : nullptr)
          : hardware_aware_options();
  setup.options.optimize_input = options.optimize_circuits;
  setup.options.optimize_output = options.optimize_circuits;
  return setup;
}

}  // namespace

BatchReport run_batch_pipeline(
    const CalibrationEpoch& epoch, const std::vector<Circuit>& programs,
    const std::vector<PartitionAssignment>& assignments,
    const std::vector<std::string>& names, const ParallelOptions& options,
    std::vector<std::optional<TranspiledProgram>>* prebound) {
  if (programs.empty()) {
    throw std::invalid_argument("run_batch_pipeline: no programs");
  }
  if (assignments.size() != programs.size()) {
    throw std::invalid_argument(
        "run_batch_pipeline: " + std::to_string(assignments.size()) +
        " assignments for " + std::to_string(programs.size()) + " programs");
  }
  // Cap kernel threading for the whole pipeline, not just the noisy
  // executor: the ideal_distribution() statevector passes below also
  // engage parallel_for on wide programs.
  const kern::ParallelThreadsGuard thread_cap(options.exec.kernel_threads);
  const Device& device = epoch.device();

  // Transpile each program onto its partition, through the backend's
  // cache. CNA builds its gate-level crosstalk context from all co-runner
  // partitions, which therefore participates in the cache key.
  std::vector<PhysicalProgram> physical(programs.size());
  std::vector<int> swaps(programs.size(), 0);
  std::vector<std::vector<int>> layouts(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    std::vector<int> context;
    if (options.method == Method::CNA) {
      for (std::size_t j = 0; j < programs.size(); ++j) {
        if (j == i) continue;
        const auto edges =
            device.topology().induced_edges(assignments[j].qubits);
        context.insert(context.end(), edges.begin(), edges.end());
      }
    }
    const TranspileSetup setup = transpile_setup(options, std::move(context));
    TranspiledProgram tp;
    if (prebound != nullptr && i < prebound->size() &&
        (*prebound)[i].has_value()) {
      // Sweep fast path: dispatch already probed the epoch cache for this
      // job's structure once per group and bound its template against
      // this job's planned partition, so the per-job cache round-trip is
      // skipped entirely.
      tp = *std::move((*prebound)[i]);
    } else {
      tp = epoch.transpile(programs[i], assignments[i].qubits,
                           setup.options, setup.fp);
    }
    swaps[i] = tp.swaps_added;
    layouts[i] = tp.final_layout;
    std::string name = (i < names.size() && !names[i].empty())
                           ? names[i]
                           : programs[i].name();
    if (name.empty()) name = "program" + std::to_string(i);
    physical[i] = {std::move(tp.physical), std::move(name)};
  }

  const ParallelRunReport run = epoch.execute(physical, options.exec);

  BatchReport report;
  report.throughput = run.throughput;
  report.makespan_ns = run.makespan_ns;
  report.crosstalk_events = run.crosstalk_events;
  report.programs.resize(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    ProgramReport& pr = report.programs[i];
    pr.name = run.programs[i].name;
    pr.partition = assignments[i].qubits;
    pr.final_layout = layouts[i];
    pr.efs = assignments[i].efs.score;
    pr.swaps_added = swaps[i];
    // Fused, backend-cached ideal pipeline: repeated submissions of the
    // same circuit replay a precompiled kernel stream, and a fresh binding
    // of a known structure replays its fusion plan (sim/fusion.hpp).
    pr.ideal = ideal_distribution(*epoch.compiled_program(programs[i]));
    pr.noisy = run.programs[i].distribution;
    pr.counts = run.programs[i].counts;
    pr.jsd_value = jsd(pr.noisy, pr.ideal);
    pr.pst_value = pst(pr.noisy, pr.ideal.most_likely());
  }

  // Modeled runtime reduction: N queued jobs vs one batch job.
  RuntimeModel model;
  model.shots = options.exec.shots;
  std::vector<double> solo_makespans;
  for (const PhysicalProgram& prog : physical) {
    solo_makespans.push_back(
        schedule_circuit(prog.circuit, device, options.exec.schedule)
            .makespan_ns);
  }
  report.runtime_reduction =
      serial_runtime_s(model, solo_makespans) /
      parallel_runtime_s(model, run.makespan_ns);
  return report;
}

ExecutionService::ExecutionService(Device device, ServiceOptions options)
    : ExecutionService(
          std::make_shared<Backend>(std::move(device),
                                    options.cache_budget_bytes),
          std::move(options)) {}

ExecutionService::ExecutionService(std::shared_ptr<Backend> backend,
                                   ServiceOptions options)
    : ExecutionService(
          BackendRegistry(std::vector<std::shared_ptr<Backend>>{
              std::move(backend)}),
          std::move(options)) {}

ExecutionService::ExecutionService(BackendRegistry fleet,
                                   ServiceOptions options)
    : fleet_(std::move(fleet)), options_(std::move(options)) {
  if (fleet_.empty()) {
    throw std::invalid_argument("ExecutionService: empty backend registry");
  }
  // Fail configuration errors at construction, not at execution: QuMC
  // without SRB estimates throws std::invalid_argument here. The
  // partitioner also drives the packer.
  partitioner_ = make_partitioner(options_.method, options_.sigma,
                                  options_.srb_estimates);
  scheduler_ =
      std::make_unique<FleetScheduler>(fleet_, options_.route_policy);
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const int qubits = fleet_.at(i).epoch()->device().num_qubits();
    if (qubits > widest_qubits_) {
      widest_backend_ = i;
      widest_qubits_ = qubits;
    }
  }
  options_.num_workers = std::max(1, options_.num_workers);
  options_.intake_capacity =
      std::max<std::size_t>(1, options_.intake_capacity);
  lanes_.reserve(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    lanes_.push_back(
        std::make_unique<Lane>(fleet_.share(i), static_cast<int>(i)));
  }
  start_workers();
}

ExecutionService::~ExecutionService() {
  try {
    shutdown();
  } catch (...) {
    // Destructors must not throw; pending jobs were already failed or the
    // process is tearing down anyway.
  }
}

void ExecutionService::start_workers() {
  for (auto& lane : lanes_) {
    lane->workers.reserve(static_cast<std::size_t>(options_.num_workers));
    for (int i = 0; i < options_.num_workers; ++i) {
      lane->workers.emplace_back([this, &lane = *lane] { worker_loop(lane); });
    }
  }
}

namespace {

/// RAII submit gate: counts the caller into active_submits before reading
/// the accepting flag (both seq_cst), so shutdown()'s store-then-wait
/// sequence either rejects this submit or waits for it to finish
/// publishing — a published job can never be stranded behind a shutdown.
class SubmitGate {
 public:
  SubmitGate(std::atomic<bool>& accepting, std::atomic<std::size_t>& active)
      : active_(active) {
    active_.fetch_add(1);
    if (!accepting.load()) {
      active_.fetch_sub(1);
      throw std::runtime_error(
          "ExecutionService::submit: service is shut down");
    }
  }
  ~SubmitGate() { active_.fetch_sub(1); }
  SubmitGate(const SubmitGate&) = delete;
  SubmitGate& operator=(const SubmitGate&) = delete;

 private:
  std::atomic<std::size_t>& active_;
};

/// Index of the first gate (not a barrier or measurement) that acts on an
/// already-measured qubit — a non-terminal measurement, which
/// route_on_partition cannot route — or circuit.size() when there is none.
std::size_t first_gate_on_measured_qubit(const Circuit& circuit) {
  const auto& ops = circuit.ops();
  const auto is_gate = [](const Gate& g) {
    return g.kind != GateKind::Measure && g.kind != GateKind::Barrier;
  };
  const auto first_measure =
      std::find_if(ops.begin(), ops.end(), [](const Gate& g) {
        return g.kind == GateKind::Measure;
      });
  // Measurements nearly always end the circuit; skip the per-qubit walk
  // then, since its allocation shows in the submit path's ns/job.
  if (std::none_of(first_measure, ops.end(), is_gate)) return ops.size();
  std::vector<char> measured(static_cast<std::size_t>(circuit.num_qubits()),
                             0);
  for (auto it = first_measure; it != ops.end(); ++it) {
    if (it->kind == GateKind::Measure) {
      measured[static_cast<std::size_t>(it->qubits[0])] = 1;
    } else if (is_gate(*it) &&
               std::any_of(it->qubits.begin(), it->qubits.end(), [&](int q) {
                 return measured[static_cast<std::size_t>(q)] != 0;
               })) {
      return static_cast<std::size_t>(it - ops.begin());
    }
  }
  return ops.size();
}

/// The lowest register qubit no op but a barrier acts on, or num_qubits()
/// when every one is active. The bitmask over the register stays inline up
/// to 128 qubits, so the check allocates nothing on the submit path.
int first_idle_qubit(const Circuit& circuit) {
  const auto n = static_cast<std::size_t>(circuit.num_qubits());
  SmallVector<std::uint64_t, 2> active;
  active.resize((n + 63) / 64);
  for (const Gate& g : circuit.ops()) {
    if (g.kind == GateKind::Barrier) continue;
    for (int q : g.qubits) {
      active[static_cast<std::size_t>(q) / 64] |= std::uint64_t{1} << (q % 64);
    }
  }
  for (std::size_t w = 0; w < active.size(); ++w) {
    if (active[w] == ~std::uint64_t{0}) continue;
    // The last word's bits past the register read idle; they are not qubits.
    const std::size_t q = w * 64 + static_cast<std::size_t>(
                                       std::countr_one(active[w]));
    return static_cast<int>(std::min(q, n));
  }
  return circuit.num_qubits();
}

/// Why the batch pipeline cannot run `circuit`, or an empty string when
/// it can. submit() and submit_all() reject such a circuit at the call
/// that brought it: a NaN or infinite angle has no gate matrix (it would
/// poison every kernel and distribution of its batch), a non-terminal
/// measurement cannot be routed (it would fail every job of its batch),
/// one with no active qubit has no partition to allocate (it would throw
/// out of the cycle's plan), one with no measurement has no output to
/// score (it would fail every job of its batch), and one with an idle
/// register qubit is planned a partition of its active width while
/// placement lays out the whole register (it would fail every job of its
/// batch with "partition too small").
std::string malformed_reason(const Circuit& circuit) {
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const auto& params = circuit.ops()[i].params;
    if (!std::all_of(params.begin(), params.end(),
                     [](double p) { return std::isfinite(p); })) {
      return "has a non-finite angle at op " + std::to_string(i);
    }
  }
  if (const std::size_t i = first_gate_on_measured_qubit(circuit);
      i < circuit.size()) {
    return "has a non-terminal measurement: op " + std::to_string(i) +
           " acts on a measured qubit";
  }
  // A measurement acts on a qubit, so a measured circuit is never empty.
  if (!circuit.has_measurements()) {
    return circuit.active_qubits().empty() ? "acts on no qubit"
                                           : "has no measurements";
  }
  if (const int q = first_idle_qubit(circuit); q < circuit.num_qubits()) {
    return "leaves qubit " + std::to_string(q) + " of its " +
           std::to_string(circuit.num_qubits()) +
           "-qubit register idle: the register must be as wide as the "
           "qubits it acts on";
  }
  return {};
}

/// The queued state of one job; publish() gives it its id.
std::shared_ptr<detail::JobState> make_state(Circuit circuit,
                                             JobOptions options) {
  auto state = std::make_shared<detail::JobState>();
  state->fingerprint = circuit_fingerprint(circuit);
  state->structural_fp = structural_fingerprint(circuit);
  state->name = options.name.empty() ? circuit.name() : options.name;
  state->exclusive = options.exclusive;
  state->circuit = std::move(circuit);
  return state;
}

}  // namespace

void ExecutionService::maybe_auto_flush(std::size_t pending_now) {
  if (options_.auto_flush_batch_size > 0 &&
      pending_now >= options_.auto_flush_batch_size) {
    dispatch_pending();
  }
}

void ExecutionService::publish(std::span<const JobPtr> states) {
  const SubmitGate gate(accepting_, active_submits_);
  // Ids are taken past the gate, so a rejected call counts nothing in
  // jobs_submitted, and by one fetch_add, so one call's ids are contiguous.
  const std::uint64_t first_id =
      next_job_id_.fetch_add(states.size(), std::memory_order_relaxed);
  std::size_t pending_now = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i]->id = first_id + i;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(intake_mutex_);
        if (intake_.size() < options_.intake_capacity) {
          intake_.push_back(states[i]);
          pending_now = intake_.size();
          break;
        }
      }
      // Queue full: backpressure. Drain it ourselves (one pack/dispatch
      // cycle, our published prefix included) and retry — jobs are never
      // dropped.
      dispatch_pending();
    }
  }
  maybe_auto_flush(pending_now);
}

void ExecutionService::validate(const Circuit& circuit,
                                std::optional<std::size_t> index) const {
  const auto label = [&] {
    return index ? "ExecutionService::submit_all: circuit " +
                       std::to_string(*index) + " ('" + circuit.name() + "')"
                 : "ExecutionService::submit: circuit '" + circuit.name() +
                       "'";
  };
  // The transpiler lays out every qubit of the register, idle ones too,
  // so the register's width is what a partition must hold. Checked first:
  // no plan places a register this wide, whatever else is wrong with it.
  if (const int width = circuit.num_qubits(); width > widest_qubits_) {
    const std::string device =
        fleet_.at(widest_backend_).epoch()->device().name();
    throw CircuitTooWide(label() + " is " + std::to_string(width) +
                             " qubits wide, wider than the largest fleet "
                             "device (" + device + ", " +
                             std::to_string(widest_qubits_) + " qubits)",
                         width, device, widest_qubits_, index);
  }
  if (const std::string why = malformed_reason(circuit); !why.empty()) {
    throw std::invalid_argument(label() + " " + why);
  }
}

JobHandle ExecutionService::submit(Circuit circuit, JobOptions options) {
  validate(circuit, std::nullopt);
  const JobPtr state = make_state(std::move(circuit), std::move(options));
  publish({&state, 1});
  return JobHandle(state);
}

std::vector<JobHandle> ExecutionService::submit_all(
    std::vector<Circuit> circuits) {
  // All or nothing: every circuit is validated before any job is enqueued.
  for (std::size_t i = 0; i < circuits.size(); ++i) validate(circuits[i], i);
  std::vector<JobPtr> states;
  states.reserve(circuits.size());
  for (Circuit& c : circuits) states.push_back(make_state(std::move(c), {}));

  // Sweep detection: >= 2 jobs of one structural fingerprint in a single
  // submitted vector, each with parameters to rebind, is parameter-sweep
  // traffic — mark it so dispatch can probe the transpile cache once per
  // (structure, partition) group and bind every job against that probe.
  // Only submit_all() marks (the caller declared these jobs related), and a
  // vector of one is never a sweep, so single-shot submit() traffic stays
  // byte-for-byte on the per-job path.
  {
    std::map<std::uint64_t, std::size_t> structure_counts;
    for (const JobPtr& state : states) ++structure_counts[state->structural_fp];
    for (const JobPtr& state : states) {
      if (structure_counts[state->structural_fp] < 2) continue;
      const auto& ops = state->circuit.ops();
      const bool has_params =
          std::any_of(ops.begin(), ops.end(),
                      [](const Gate& g) { return !g.params.empty(); });
      state->sweep = has_params;
    }
  }

  publish(states);
  std::vector<JobHandle> handles;
  handles.reserve(states.size());
  for (JobPtr& state : states) handles.push_back(JobHandle(std::move(state)));
  return handles;
}

std::vector<ExecutionService::JobPtr> ExecutionService::take_pending() {
  std::vector<JobPtr> jobs;
  const std::lock_guard<std::mutex> lock(intake_mutex_);
  jobs.swap(intake_);
  return jobs;
}

std::size_t ExecutionService::cancel_pending() {
  // Dispatch cycles take the queue the same way, so a job is either
  // cancelled here or packed there — never both.
  const std::vector<JobPtr> jobs = take_pending();
  if (jobs.empty()) return 0;
  for (const JobPtr& job : jobs) {
    job->fail("job '" + job->name + "' cancelled before dispatch");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_cancelled_ += jobs.size();
    jobs_failed_ += jobs.size();
  }
  return jobs.size();
}

void ExecutionService::dispatch_pending() {
  std::lock_guard<std::mutex> pack_lock(pack_mutex_);
  std::vector<JobPtr> jobs = take_pending();
  if (jobs.empty()) return;

  // Canonical order is total over the drained set, so the plan does not
  // depend on how concurrent submitters interleaved.
  std::sort(jobs.begin(), jobs.end(), [](const JobPtr& a, const JobPtr& b) {
    if (a->fingerprint != b->fingerprint) {
      return a->fingerprint < b->fingerprint;
    }
    if (a->name != b->name) return a->name < b->name;
    return a->id < b->id;
  });

  std::vector<PackJob> pack_jobs;
  pack_jobs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pack_jobs.push_back({i, shape_of(jobs[i]->circuit), jobs[i]->fingerprint,
                         jobs[i]->exclusive, jobs[i]->structural_fp});
  }
  PackOptions popts;
  popts.max_batch_size = options_.max_batch_size;
  popts.efs_threshold = options_.efs_threshold;
  popts.runtime.shots = options_.exec.shots;
  // Snapshot each lane's modeled backlog so queue-aware routing and the
  // wait accounting see work dispatched in earlier cycles. Read under the
  // lane mutexes but used under pack_mutex_, so concurrent completions can
  // only make the snapshot conservative (stale-high), never inconsistent
  // with the plan that consumes it.
  std::vector<double> backlogs(lanes_.size(), 0.0);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::lock_guard<std::mutex> lane_lock(lanes_[i]->mutex);
    backlogs[i] = lanes_[i]->backlog_s;
  }
  FleetPlan plan = scheduler_->plan(pack_jobs, *partitioner_, popts, backlogs);

  for (std::size_t idx : plan.unplaceable) {
    const std::string where =
        fleet_.size() == 1
            ? plan.epochs.front()->device().name()
            : "any of the " + std::to_string(fleet_.size()) + " fleet devices";
    jobs[idx]->fail("job '" + jobs[idx]->name + "' does not fit on " + where +
                    " even alone");
  }

  // Count every planned job into outstanding_jobs_ BEFORE any batch
  // becomes visible to a worker: a fast lane finishing its batch must not
  // be able to decrement past the increment and wake a concurrent flush()
  // while work from this dispatch is still running.
  std::size_t dispatched = 0;
  for (const auto& slot_batches : plan.batches) {
    for (const PackedBatch& pb : slot_batches) dispatched += pb.jobs.size();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_failed_ += plan.unplaceable.size();
    spill_events_ += plan.spill_events;
    cross_device_spills_ += plan.cross_device_spills;
    reservation_jobs_ += plan.reservation_jobs;
    reservation_wait_sum_s_ += plan.reservation_wait_sum_s;
    reservation_wait_max_s_ =
        std::max(reservation_wait_max_s_, plan.reservation_wait_max_s);
    outstanding_jobs_ += dispatched;
  }

  // Sweep fast path: group sweep-marked jobs in this plan by (slot,
  // structure, planned partition), probe each epoch's transpile cache
  // once per group and bind every job against the group's template
  // (CalibrationEpoch::transpile_sweep — one epoch pin, one cache probe,
  // N binds). The prebound programs ride on the batches, whose pipeline
  // executes on those same planned partitions, so results and cache
  // counters are exactly what the per-job path produces. CNA is excluded:
  // its options fingerprint folds in per-batch co-runner context, so
  // there is no batch-independent key to group under.
  std::vector<std::vector<decltype(Batch::prebound)>> prebound(
      plan.batches.size());
  std::vector<std::uint64_t> slot_sweep_groups(plan.batches.size(), 0);
  std::vector<std::uint64_t> slot_batched_binds(plan.batches.size(), 0);
  const bool sweep_eligible = options_.cache_budget_bytes > 0 &&
                              options_.method != Method::CNA;
  if (sweep_eligible) {
    const TranspileSetup setup = transpile_setup(options_, {});
    for (std::size_t s = 0; s < plan.batches.size(); ++s) {
      struct Target {
        std::size_t batch;
        std::size_t pos;
        std::size_t job;
      };
      std::map<std::pair<std::uint64_t, std::vector<int>>, std::vector<Target>>
          groups;
      for (std::size_t b = 0; b < plan.batches[s].size(); ++b) {
        const PackedBatch& pb = plan.batches[s][b];
        for (std::size_t pos = 0; pos < pb.jobs.size(); ++pos) {
          const JobPtr& job = jobs[pb.jobs[pos]];
          if (!job->sweep) continue;
          groups[{job->structural_fp, pb.assignments[pos].qubits}].push_back(
              Target{b, pos, pb.jobs[pos]});
        }
      }
      if (groups.empty()) continue;
      prebound[s].resize(plan.batches[s].size());
      std::vector<const Circuit*> circuits;
      std::vector<TranspiledProgram> bound;
      for (auto& [group_key, targets] : groups) {
        if (targets.size() < 2) continue;  // nothing to amortize
        circuits.clear();
        circuits.reserve(targets.size());
        for (const Target& t : targets) circuits.push_back(&jobs[t.job]->circuit);
        try {
          plan.epochs[s]->transpile_sweep(circuits, group_key.second,
                                          setup.options, setup.fp, bound);
        } catch (...) {
          // The group's jobs are already counted outstanding, so they must
          // still reach their batches: leave them without prebinds. The
          // pipeline then transpiles them one by one and fails the batch
          // with the cause through execute_batch's catch.
          continue;
        }
        ++slot_sweep_groups[s];
        slot_batched_binds[s] += targets.size();
        for (std::size_t t = 0; t < targets.size(); ++t) {
          auto& pre = prebound[s][targets[t].batch];
          if (pre.empty()) {
            pre.resize(plan.batches[s][targets[t].batch].jobs.size());
          }
          pre[targets[t].pos] = std::move(bound[t]);
        }
      }
    }
  }

  const std::uint64_t num_lanes = lanes_.size();
  for (std::size_t s = 0; s < plan.batches.size(); ++s) {
    Lane& lane = *lanes_[s];
    if (plan.batches[s].empty()) continue;
    {
      std::lock_guard<std::mutex> lane_lock(lane.mutex);
      for (std::size_t b = 0; b < plan.batches[s].size(); ++b) {
        PackedBatch& pb = plan.batches[s][b];
        Batch batch;
        batch.index = lane.next_ordinal++ * num_lanes +
                      static_cast<std::uint64_t>(lane.id);
        batch.modeled_exec_s = plan.batch_exec_s[s][b];
        // Pin the plan-time epoch: the batch executes against the exact
        // calibration its partitions and EFS admissions were computed
        // from, even if the backend recalibrates before a worker gets to
        // it.
        batch.epoch = plan.epochs[s];
        batch.jobs.reserve(pb.jobs.size());
        for (std::size_t idx : pb.jobs) batch.jobs.push_back(jobs[idx]);
        batch.assignments = std::move(pb.assignments);
        if (b < prebound[s].size()) {
          batch.prebound = std::move(prebound[s][b]);
        }
        lane.jobs_routed += batch.jobs.size();
        lane.backlog_s += batch.modeled_exec_s;
        inflight_batches_.fetch_add(1, std::memory_order_relaxed);
        lane.queue.push_back(std::move(batch));
      }
      lane.wait_sum_s += plan.wait_sum_s[s];
      lane.wait_max_s = std::max(lane.wait_max_s, plan.wait_max_s[s]);
      lane.sweep_groups += slot_sweep_groups[s];
      lane.batched_binds += slot_batched_binds[s];
    }
    lane.cv.notify_all();
  }
  if (dispatched == 0) drained_cv_.notify_all();
}

void ExecutionService::worker_loop(Lane& lane) {
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(lane.mutex);
      lane.cv.wait(lock, [&] { return lane.stop || !lane.queue.empty(); });
      if (lane.queue.empty()) {
        if (lane.stop) return;
        continue;
      }
      batch = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    // This batch is still counted in inflight_batches_ until it finishes,
    // so the load reads as "batches that want the machine right now",
    // fleet-wide across every lane.
    const std::size_t pool =
        static_cast<std::size_t>(options_.num_workers) * lanes_.size();
    const std::size_t inflight =
        std::max<std::size_t>(1, inflight_batches_.load(
                                     std::memory_order_relaxed));
    const int concurrency = static_cast<int>(std::min(pool, inflight));
    execute_batch(lane, std::move(batch), concurrency);
  }
}

void ExecutionService::execute_batch(Lane& lane, Batch batch,
                                     int concurrency) {
  for (const JobPtr& job : batch.jobs) job->set_running();

  std::vector<Circuit> circuits;
  std::vector<std::string> names;
  circuits.reserve(batch.jobs.size());
  names.reserve(batch.jobs.size());
  for (const JobPtr& job : batch.jobs) {
    circuits.push_back(job->circuit);
    names.push_back(job->name);
  }

  // The batch runs with the service's method configuration, before the
  // per-batch seed and kernel-thread budget below are applied.
  ParallelOptions popts = options_;
  // Decorrelate batches fleet-wide while keeping batch 0 of lane 0 on the
  // caller's exact seed (the run_parallel() shim runs as that batch and
  // must stay bit-identical to the historical single-shot behavior).
  popts.exec.seed = options_.exec.seed + kGolden * batch.index;
  // Unless the caller pinned a kernel-thread cap, share the machine across
  // the batches actually running: N concurrent batch simulations each with
  // a full-width parallel_for would oversubscribe the cores N-fold, while
  // a lone batch should keep the whole machine.
  if (popts.exec.kernel_threads == 0 && concurrency > 1) {
    popts.exec.kernel_threads =
        std::max(1, kern::parallel_threads() / concurrency);
  }

  std::size_t failed = 0;
  try {
    const BatchReport report = run_batch_pipeline(
        *batch.epoch, circuits, batch.assignments, names, popts,
        batch.prebound.empty() ? nullptr : &batch.prebound);
    BatchStats stats;
    stats.batch_index = batch.index;
    stats.backend_id = lane.id;
    stats.backend_device = batch.epoch->device().name();
    stats.batch_size = batch.jobs.size();
    stats.makespan_ns = report.makespan_ns;
    stats.throughput = report.throughput;
    stats.crosstalk_events = report.crosstalk_events;
    stats.runtime_reduction = report.runtime_reduction;
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      batch.jobs[i]->finish({report.programs[i], stats});
    }
  } catch (const std::exception& e) {
    for (const JobPtr& job : batch.jobs) job->fail(e.what());
    failed = batch.jobs.size();
  } catch (...) {
    // A non-std exception escaping the worker would std::terminate.
    for (const JobPtr& job : batch.jobs) {
      job->fail("batch execution failed with a non-standard exception");
    }
    failed = batch.jobs.size();
  }

  // A batch that outlived its epoch completed against its pack-time
  // calibration while the backend already serves a newer one — the
  // overlap live recalibration exists to permit. Counted under the lane
  // mutex below.
  const bool stale_epoch = batch.epoch->id() != lane.backend->epoch_id();

  {
    std::lock_guard<std::mutex> lane_lock(lane.mutex);
    ++lane.batches_executed;
    lane.jobs_failed += failed;
    lane.jobs_completed += batch.jobs.size() - failed;
    // Clamp: float summation drift must never leave a phantom backlog sign
    // flip behind for the next dispatch cycle's wait estimates.
    lane.backlog_s = std::max(0.0, lane.backlog_s - batch.modeled_exec_s);
    if (stale_epoch) ++lane.stale_epoch_batches;
  }
  inflight_batches_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++batches_executed_;
    jobs_failed_ += failed;
    jobs_completed_ += batch.jobs.size() - failed;
    outstanding_jobs_ -= batch.jobs.size();
  }
  drained_cv_.notify_all();
}

void ExecutionService::wait_for_drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] { return outstanding_jobs_ == 0; });
}

void ExecutionService::flush() {
  dispatch_pending();
  wait_for_drain();
}

void ExecutionService::shutdown() {
  // Close the gate, then wait for in-flight submits to finish publishing
  // (see SubmitGate): after the spin no new job can reach the queue, so
  // the flush below drains everything ever accepted.
  accepting_.store(false);
  while (active_submits_.load() != 0) std::this_thread::yield();
  flush();
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lane_lock(lane->mutex);
      lane->stop = true;
    }
    lane->cv.notify_all();
  }
  for (auto& lane : lanes_) {
    for (std::thread& worker : lane->workers) {
      if (worker.joinable()) worker.join();
    }
    lane->workers.clear();
  }
}

ServiceStats ExecutionService::stats() const {
  ServiceStats stats;
  stats.jobs_submitted = next_job_id_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.jobs_completed = jobs_completed_;
    stats.jobs_failed = jobs_failed_;
    stats.jobs_cancelled = jobs_cancelled_;
    stats.batches_executed = batches_executed_;
    stats.spill_events = spill_events_;
    stats.cross_device_spills = cross_device_spills_;
    stats.reservation_jobs = reservation_jobs_;
    stats.reservation_wait_sum_s = reservation_wait_sum_s_;
    stats.reservation_wait_max_s = reservation_wait_max_s_;
  }
  stats.backends.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    BackendStats bs;
    bs.backend_id = lane->id;
    // One epoch pin for the whole row, so device/epoch/cache fields are
    // mutually consistent even against a concurrent recalibrate().
    const auto epoch = lane->backend->epoch();
    bs.device = epoch->device().name();
    bs.transpile_cache = epoch->cache_stats();
    bs.caches = epoch->cache_memory();
    bs.calibration_epoch = epoch->id();
    bs.recalibrations = lane->backend->recalibrations();
    bs.recalibration_build_s = lane->backend->recalibration_build_s();
    {
      std::lock_guard<std::mutex> lane_lock(lane->mutex);
      bs.jobs_routed = lane->jobs_routed;
      bs.jobs_completed = lane->jobs_completed;
      bs.jobs_failed = lane->jobs_failed;
      bs.batches_executed = lane->batches_executed;
      bs.modeled_wait_sum_s = lane->wait_sum_s;
      bs.modeled_wait_max_s = lane->wait_max_s;
      bs.modeled_backlog_s = lane->backlog_s;
      bs.stale_epoch_batches = lane->stale_epoch_batches;
      bs.sweep_groups = lane->sweep_groups;
      bs.batched_binds = lane->batched_binds;
    }
    stats.sweep_groups += bs.sweep_groups;
    stats.batched_binds += bs.batched_binds;
    stats.recalibrations += bs.recalibrations;
    stats.recalibration_build_s += bs.recalibration_build_s;
    stats.stale_epoch_batches += bs.stale_epoch_batches;
    stats.transpile_cache.hits += bs.transpile_cache.hits;
    stats.transpile_cache.misses += bs.transpile_cache.misses;
    stats.transpile_cache.evictions += bs.transpile_cache.evictions;
    stats.transpile_cache.entries += bs.transpile_cache.entries;
    stats.transpile_cache.structural_hits += bs.transpile_cache.structural_hits;
    stats.transpile_cache.bind_fallbacks += bs.transpile_cache.bind_fallbacks;
    stats.backends.push_back(std::move(bs));
  }
  return stats;
}

std::size_t ExecutionService::pending_jobs() const {
  const std::lock_guard<std::mutex> lock(intake_mutex_);
  return intake_.size();
}

double modeled_fleet_drain_s(std::span<const JobHandle> handles,
                             std::size_t num_backends,
                             const RuntimeModel& model) {
  if (num_backends == 0) {
    throw std::invalid_argument("modeled_fleet_drain_s: no backends");
  }
  std::map<std::pair<int, std::uint64_t>, double> batch_makespans;
  for (const JobHandle& handle : handles) {
    if (!handle.valid() || handle.status() != JobStatus::Done) continue;
    const BatchStats& batch = handle.result().batch;
    batch_makespans[{batch.backend_id, batch.batch_index}] =
        batch.makespan_ns;
  }
  if (batch_makespans.empty()) {
    // Returning 0 here would turn a fully-failed job set into an infinite
    // "speedup" in every caller's ratio; fail loudly instead.
    throw std::invalid_argument(
        "modeled_fleet_drain_s: no completed jobs in the handle set");
  }
  std::vector<double> occupancy(num_backends, 0.0);
  for (const auto& [key, makespan_ns] : batch_makespans) {
    occupancy.at(static_cast<std::size_t>(key.first)) +=
        parallel_runtime_s(model, makespan_ns);
  }
  return *std::max_element(occupancy.begin(), occupancy.end());
}

}  // namespace qucp
