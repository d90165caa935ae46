#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
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

/// The pipeline configuration a service batch runs with, before the
/// per-batch seed and kernel-thread budget are applied. The sweep prebind
/// derives its transpile options from it too.
ParallelOptions pipeline_options(const ServiceOptions& options) {
  ParallelOptions popts;
  popts.method = options.method;
  popts.sigma = options.sigma;
  popts.exec = options.exec;
  popts.srb_estimates = options.srb_estimates;
  popts.optimize_circuits = options.optimize_circuits;
  return popts;
}

}  // namespace

BatchReport run_batch_pipeline(const CalibrationEpoch& epoch,
                               const std::vector<Circuit>& programs,
                               const std::vector<std::string>& names,
                               const ParallelOptions& options,
                               PreboundTranspiles* prebound) {
  if (programs.empty()) {
    throw std::invalid_argument("run_batch_pipeline: no programs");
  }
  // Cap kernel threading for the whole pipeline, not just the noisy
  // executor: the ideal_distribution() statevector passes below also
  // engage parallel_for on wide programs.
  const kern::ParallelThreadsGuard thread_cap(options.exec.kernel_threads);
  const Device& device = epoch.device();

  // Partition in QuMC's largest-first order.
  std::vector<ProgramShape> shapes;
  shapes.reserve(programs.size());
  for (const Circuit& c : programs) shapes.push_back(shape_of(c));
  const std::vector<std::size_t> order = allocation_order(shapes);
  std::vector<ProgramShape> ordered_shapes;
  ordered_shapes.reserve(shapes.size());
  for (std::size_t idx : order) ordered_shapes.push_back(shapes[idx]);

  const auto partitioner =
      make_partitioner(options.method, options.sigma, options.srb_estimates);
  const auto allocations = partitioner->allocate(
      device, ordered_shapes, &epoch.candidate_index());
  if (!allocations) {
    throw std::runtime_error("run_batch_pipeline: batch does not fit on " +
                             device.name());
  }
  // Assignment per original program index.
  std::vector<PartitionAssignment> assignment(programs.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    assignment[order[pos]] = (*allocations)[pos];
  }

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
            device.topology().induced_edges(assignment[j].qubits);
        context.insert(context.end(), edges.begin(), edges.end());
      }
    }
    const TranspileSetup setup = transpile_setup(options, std::move(context));
    TranspiledProgram tp;
    if (prebound != nullptr && i < prebound->programs.size() &&
        prebound->programs[i].has_value() &&
        prebound->partitions[i] == assignment[i].qubits) {
      // Sweep fast path: dispatch already probed the epoch cache for this
      // job's structure and bound its template batch-at-a-time against
      // this exact partition, so the per-job cache round-trip is skipped
      // entirely. The partition equality check above makes this
      // unconditional-safe: any divergence between the pack-time
      // allocation and this pipeline's falls through to the normal path.
      tp = *std::move(prebound->programs[i]);
    } else {
      tp = epoch.transpile(programs[i], assignment[i].qubits, setup.options,
                           setup.fp);
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
    pr.partition = assignment[i].qubits;
    pr.final_layout = layouts[i];
    pr.efs = assignment[i].efs.score;
    pr.swaps_added = swaps[i];
    // Fused, backend-cached ideal pipeline: repeated submissions of the
    // same circuit replay a precompiled kernel stream (sim/fusion.hpp).
    // Sweep jobs carry their group's fusion plan from dispatch, so the
    // reference program materializes directly — no per-job fingerprint
    // hashing or program-cache lock. Bit-identical to the cached path.
    if (prebound != nullptr && i < prebound->plans.size() &&
        prebound->plans[i] != nullptr) {
      pr.ideal = ideal_distribution(
          CompiledProgram::materialize(*prebound->plans[i], programs[i]));
    } else {
      pr.ideal = ideal_distribution(*epoch.compiled_program(programs[i]));
    }
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
                                    options.transpile_cache_capacity),
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
  options_.num_workers = std::max(1, options_.num_workers);
  if (options_.submit_shards == 0) {
    // Adaptive intake sharding: one shard per hardware thread, rounded up
    // to a power of two, clamped to [8, 64] (see ServiceOptions). Plans
    // are shard-layout independent, so this only moves contention.
    const auto hw =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    options_.submit_shards =
        std::clamp<std::size_t>(std::bit_ceil(hw), 8, 64);
  }
  options_.submit_shards = std::max<std::size_t>(1, options_.submit_shards);
  intake_ = std::make_unique<detail::ShardedIntake>(
      options_.submit_shards, options_.submit_shard_capacity);
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

}  // namespace

void ExecutionService::maybe_auto_flush(std::size_t pending_now) {
  if (options_.auto_flush_batch_size > 0 &&
      pending_now >= options_.auto_flush_batch_size) {
    dispatch_pending();
  }
}

void ExecutionService::enqueue_job(const JobPtr& state, std::size_t shard) {
  state->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  while (!intake_->try_push(state, shard)) {
    // Ring full: backpressure. Drain the rings ourselves (one pack/
    // dispatch cycle) and retry — producers never block on a lock and
    // jobs are never dropped.
    dispatch_pending();
  }
  maybe_auto_flush(pending_count_.fetch_add(1, std::memory_order_acq_rel) +
                   1);
}

JobHandle ExecutionService::submit(Circuit circuit, JobOptions options) {
  auto state = std::make_shared<detail::JobState>();
  state->fingerprint = circuit_fingerprint(circuit);
  state->structural_fp = structural_fingerprint(circuit);
  state->name = options.name.empty() ? circuit.name() : options.name;
  state->exclusive = options.exclusive;
  state->circuit = std::move(circuit);
  const SubmitGate gate(accepting_, active_submits_);
  enqueue_job(state, intake_->home_shard());
  return JobHandle(state);
}

std::vector<JobHandle> ExecutionService::submit_all(
    std::vector<Circuit> circuits) {
  std::vector<JobPtr> states;
  states.reserve(circuits.size());
  for (Circuit& c : circuits) {
    auto state = std::make_shared<detail::JobState>();
    state->fingerprint = circuit_fingerprint(c);
    state->structural_fp = structural_fingerprint(c);
    state->name = c.name();
    state->circuit = std::move(c);
    // Construction order = id order for this producer, so the contiguous
    // ticket blocks below publish in id order like a submit() loop would.
    state->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
    states.push_back(std::move(state));
  }

  // Sweep detection: >= 2 jobs of one structural fingerprint in a single
  // submitted vector, each with parameters to rebind, is parameter-sweep
  // traffic — mark it so dispatch can probe the transpile cache once per
  // (structure, partition) group and bind templates batch-at-a-time.
  // Only submit_all() marks (the caller declared these jobs related);
  // single-shot submit() traffic stays byte-for-byte on the per-job path.
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

  const SubmitGate gate(accepting_, active_submits_);
  const std::size_t shard = intake_->home_shard();
  if (states.size() <= intake_->shard_capacity()) {
    // Fits in one lap: the all-or-nothing block push either publishes the
    // whole vector or backpressures without touching the ring.
    const std::span<const JobPtr> block(states);
    while (!intake_->try_push_block(block, shard)) {
      dispatch_pending();  // backpressure, as in enqueue_job
    }
    maybe_auto_flush(pending_count_.fetch_add(states.size(),
                                              std::memory_order_acq_rel) +
                     states.size());
  } else {
    // Oversized batch: reserve the whole multi-lap ticket span up front —
    // ids stay contiguous with no chunk seam another same-shard producer
    // could land inside — then publish cell by cell. A cell whose earlier
    // lap has not been consumed yet backpressures us into draining the
    // rings ourselves (we publish in ascending ticket order, so our own
    // published prefix is always drainable and frees the cells we need).
    const std::uint64_t base =
        intake_->reserve_span(states.size(), shard);
    std::size_t published_unflushed = 0;
    for (std::size_t i = 0; i < states.size(); ++i) {
      while (!intake_->try_publish_at(base + i, states[i], shard)) {
        // Make our published prefix visible to pending_jobs()/auto-flush
        // accounting before draining it.
        pending_count_.fetch_add(published_unflushed,
                                 std::memory_order_acq_rel);
        published_unflushed = 0;
        dispatch_pending();
      }
      ++published_unflushed;
    }
    maybe_auto_flush(pending_count_.fetch_add(published_unflushed,
                                              std::memory_order_acq_rel) +
                     published_unflushed);
  }

  std::vector<JobHandle> handles;
  handles.reserve(states.size());
  for (JobPtr& state : states) handles.push_back(JobHandle(std::move(state)));
  return handles;
}

std::size_t ExecutionService::cancel_pending() {
  // pack_mutex_ makes us the single intake consumer and serializes against
  // dispatch cycles, so a job is either cancelled here or packed there —
  // never both.
  std::lock_guard<std::mutex> pack_lock(pack_mutex_);
  std::vector<JobPtr> jobs;
  intake_->drain(jobs);
  if (jobs.empty()) return 0;
  pending_count_.fetch_sub(jobs.size(), std::memory_order_acq_rel);
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
  std::vector<JobPtr> jobs;
  // Deterministic shard-then-ticket drain under pack_mutex_ (the single
  // consumer). The canonical/FIFO sort below is a total order over the
  // drained set, so the plan does not depend on the drain layout.
  const std::size_t drained = intake_->drain(jobs);
  if (drained != 0) {
    pending_count_.fetch_sub(drained, std::memory_order_acq_rel);
  }
  if (jobs.empty()) return;

  if (options_.order == JobOrder::Canonical) {
    std::sort(jobs.begin(), jobs.end(), [](const JobPtr& a, const JobPtr& b) {
      if (a->fingerprint != b->fingerprint) {
        return a->fingerprint < b->fingerprint;
      }
      if (a->name != b->name) return a->name < b->name;
      return a->id < b->id;
    });
  } else {
    // pending_ is appended under the same lock that assigns ids, so jobs
    // are already in submission order; keep it explicit regardless.
    std::sort(jobs.begin(), jobs.end(),
              [](const JobPtr& a, const JobPtr& b) { return a->id < b->id; });
  }

  std::vector<PackJob> pack_jobs;
  pack_jobs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pack_jobs.push_back({i, shape_of(jobs[i]->circuit), jobs[i]->fingerprint,
                         jobs[i]->exclusive, jobs[i]->structural_fp});
  }
  PackOptions popts;
  popts.max_batch_size = options_.max_batch_size;
  popts.efs_threshold = options_.efs_threshold;
  popts.single_batch = options_.single_batch;
  popts.runtime.shots = options_.exec.shots;
  // Snapshot each lane's modeled backlog so queue-aware routing and the
  // wait accounting see work dispatched in earlier cycles. Read under the
  // lane mutexes but used under pack_mutex_, so concurrent completions can
  // only make the snapshot conservative (stale-high), never inconsistent
  // with the plan that consumes it. With realized-duration feedback on,
  // the snapshot is scaled by the lane's observed realized/modeled ratio
  // so routing prices how the lane actually drains, not just the model.
  std::vector<double> backlogs(lanes_.size(), 0.0);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::lock_guard<std::mutex> lane_lock(lanes_[i]->mutex);
    backlogs[i] = lanes_[i]->backlog_s;
    if (options_.feed_realized_durations) {
      backlogs[i] *= lanes_[i]->realized_ratio;
    }
  }
  const FleetPlan plan =
      scheduler_->plan(pack_jobs, *partitioner_, popts, backlogs);

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
  // structure, admitted partition), probe each epoch's transpile cache
  // once per group and bind the group's templates batch-at-a-time
  // (CalibrationEpoch::transpile_sweep — one epoch pin, one cache/lock
  // acquisition, N binds). The prebound programs ride on the batches and
  // run_batch_pipeline re-verifies each recorded partition against its
  // own allocation before use, so results and cache counters are exactly
  // what the per-job path produces. CNA is excluded: its options
  // fingerprint folds in per-batch co-runner context, so there is no
  // batch-independent key to group under; single_batch plans carry no
  // partition provenance and skip naturally.
  std::vector<std::vector<PreboundTranspiles>> prebound(plan.batches.size());
  std::vector<std::uint64_t> slot_sweep_groups(plan.batches.size(), 0);
  std::vector<std::uint64_t> slot_batched_binds(plan.batches.size(), 0);
  const bool sweep_eligible = options_.transpile_cache_capacity > 0 &&
                              options_.method != Method::CNA &&
                              !options_.single_batch;
  if (sweep_eligible) {
    const TranspileSetup setup =
        transpile_setup(pipeline_options(options_), {});
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
        if (pb.partitions.size() != pb.jobs.size()) continue;
        for (std::size_t pos = 0; pos < pb.jobs.size(); ++pos) {
          const JobPtr& job = jobs[pb.jobs[pos]];
          if (!job->sweep) continue;
          groups[{job->structural_fp, pb.partitions[pos]}].push_back(
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
        std::shared_ptr<const FusionPlan> fusion_plan;
        try {
          plan.epochs[s]->transpile_sweep(circuits, group_key.second,
                                          setup.options, setup.fp, bound);
          // One fusion-plan fetch for the whole group (memoized per
          // structure): the pipeline's scoring pass materializes each
          // job's ideal-reference program from it directly.
          fusion_plan = plan.epochs[s]->program_cache().plan(*circuits.front());
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
          PreboundTranspiles& pre = prebound[s][targets[t].batch];
          if (pre.empty()) {
            pre.programs.resize(plan.batches[s][targets[t].batch].jobs.size());
            pre.partitions.resize(pre.programs.size());
            pre.plans.resize(pre.programs.size());
          }
          pre.programs[targets[t].pos] = std::move(bound[t]);
          pre.partitions[targets[t].pos] = group_key.second;
          pre.plans[targets[t].pos] = fusion_plan;
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
        const PackedBatch& pb = plan.batches[s][b];
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

  ParallelOptions popts = pipeline_options(options_);
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

  // Only read the clock when realized-duration feedback is on: the
  // modeled-only mode must not depend on timing in any way.
  const bool feed_realized = options_.feed_realized_durations;
  std::chrono::steady_clock::time_point wall_start;
  if (feed_realized) wall_start = std::chrono::steady_clock::now();

  std::size_t failed = 0;
  try {
    const BatchReport report = run_batch_pipeline(
        *batch.epoch, circuits, names, popts,
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

  double realized_s = 0.0;
  if (feed_realized) {
    realized_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
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
    if (feed_realized) {
      lane.realized_exec_sum_s += realized_s;
      ++lane.realized_batches;
      if (batch.modeled_exec_s > 0.0) {
        // EWMA with alpha = 0.2: smooths per-batch wall-clock jitter while
        // still tracking a lane whose real drain speed shifts.
        constexpr double kAlpha = 0.2;
        const double ratio = realized_s / batch.modeled_exec_s;
        lane.realized_ratio =
            (1.0 - kAlpha) * lane.realized_ratio + kAlpha * ratio;
      }
    }
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
  // (see SubmitGate): after the spin no new job can reach the rings, so
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
      bs.realized_exec_sum_s = lane->realized_exec_sum_s;
      bs.realized_batches = lane->realized_batches;
      bs.realized_ratio = lane->realized_ratio;
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
    stats.transpile_cache.bind_ns += bs.transpile_cache.bind_ns;
    stats.backends.push_back(std::move(bs));
  }
  return stats;
}

std::size_t ExecutionService::pending_jobs() const {
  return pending_count_.load(std::memory_order_acquire);
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
