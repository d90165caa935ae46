// Replays a service run through each layer's public entry points.
//
// Fresh backends are built from the same devices and take the same
// recalibration at the same dispatch cycle, so their caches start as cold
// as the service's did. Batches are rebuilt from the job results (backend
// id, batch index, members in the service's canonical order) and run the
// same steps as run_batch_pipeline — partition, transpile (or the
// dispatch-side sweep bind), execute with the service's per-batch seed
// rule (exec.seed + golden * batch_index), ideal reference, scoring and
// solo schedules — each call in its own span. Every job's replayed report
// must equal the service's bit for bit.

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/runtime.hpp"
#include "e2e.hpp"
#include "mapping/transpiler.hpp"
#include "metrics/metrics.hpp"
#include "schedule/schedule.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace e2e {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
/// The replay owns its caches and transpiles with one option set, so any
/// constant options fingerprint keys them consistently.
constexpr std::uint64_t kOptionsFp = 1;

enum Layer : int {
  kDispatch,   // dispatch-side glue: canonical sort, sweep grouping
  kPlan,       // FleetScheduler::plan
  kBatch,      // per-batch glue: circuit copies, report assembly
  kPartition,  // Partitioner::allocate
  kMapping,    // CalibrationEpoch::transpile / transpile_sweep
  kExecute,    // CalibrationEpoch::execute
  kIdeal,      // compiled_program or plan + materialize, ideal_distribution
  kScore,      // jsd, pst
  kSchedule,   // schedule_circuit (solo makespans)
  kRecalibrate,  // Backend::recalibrate
  kNumLayers,
};

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "dispatch", "fleet.plan", "batch",    "partition",
    "mapping",  "sim.execute", "sim.ideal", "metrics",
    "schedule", "backend.recalibrate"};

/// In-memory span log. Spans nest strictly (one thread), so a span's self
/// time is its duration minus its direct children's durations.
class Tracer {
 public:
  struct Span {
    Layer layer;
    int parent;
    std::size_t cycle;
    double start;
    double end;
  };

  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  int open(Layer layer, std::size_t cycle) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({layer, parent, cycle, now_s(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  double close(int id) {
    if (id < 0) return 0.0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    stack_.pop_back();
    return s.end - s.start;
  }

  /// Self seconds per layer over spans of measured (non-warm-up) cycles.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      const std::vector<CycleRecord>& cycles) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (const char* name : kLayerNames) out[name] = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (cycles[s.cycle].warmup) continue;
      out[kLayerNames[s.layer]] += (s.end - s.start) - child[i];
    }
    return out;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; end() closes early and returns the duration.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, Layer layer, std::size_t cycle)
      : tracer_(tracer), id_(tracer.open(layer, cycle)) {}
  ~SpanGuard() { (void)end(); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  double end() {
    const double d = tracer_.close(id_);
    id_ = -1;
    return d;
  }

 private:
  Tracer& tracer_;
  int id_;
};

using BatchKey = std::pair<int, std::uint64_t>;

struct CacheTotals {
  qucp::TranspileCacheStats cache;
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_hits = 0;
};

CacheTotals totals(
    const std::vector<std::shared_ptr<const qucp::CalibrationEpoch>>& epochs) {
  CacheTotals t;
  for (const auto& e : epochs) {
    const qucp::TranspileCacheStats s = e->cache_stats();
    t.cache.hits += s.hits;
    t.cache.misses += s.misses;
    t.cache.structural_hits += s.structural_hits;
    t.cache.bind_fallbacks += s.bind_fallbacks;
    t.plan_builds += e->program_cache().plan_builds();
    t.plan_hits += e->program_cache().plan_hits();
  }
  return t;
}

/// One regenerated job of the cycle being replayed.
struct CycleJob {
  const JobRecord* record = nullptr;
  qucp::Circuit circuit;
  std::string name;
  bool exclusive = false;
  std::uint64_t fp = 0;
  std::uint64_t structural_fp = 0;
  /// Dispatch-side sweep bind, when the job was in a sweep group.
  std::optional<qucp::TranspiledProgram> prebound;
  std::shared_ptr<const qucp::FusionPlan> plan;
};

/// What the pipeline produced for one batch, before it is checked.
struct BatchOutcome {
  std::vector<qucp::ProgramReport> reports;
  std::vector<qucp::PhysicalProgram> physical;
  qucp::ParallelRunReport run;
  double runtime_reduction = 0.0;
};

class Replayer {
 public:
  Replayer(const Traffic& traffic, const ServiceRun& run, bool traced)
      : traffic_(traffic),
        run_(run),
        tracer_(traced),
        options_(service_options(traffic.workload())),
        recal_(midstream_calibration()),
        fleet_(fleet_devices()),
        scheduler_(fleet_, options_.route_policy),
        pack_partitioner_(qucp::make_partitioner(
            options_.method, options_.sigma, options_.srb_estimates)),
        idle_backlog_(fleet_.size(), 0.0),
        topts_(qucp::hardware_aware_options()) {
    popts_.max_batch_size = options_.max_batch_size;
    popts_.efs_threshold = options_.efs_threshold;
    popts_.runtime.shots = options_.exec.shots;
    topts_.optimize_input = options_.optimize_circuits;
    topts_.optimize_output = options_.optimize_circuits;
    model_.shots = options_.exec.shots;
  }

  ReplayReport finish(std::size_t num_cycles) && {
    for (std::size_t b = 0; b < fleet_.size(); ++b) {
      const auto epoch = fleet_.at(b).epoch();
      qucp::TranspileCacheStats s = epoch->cache_stats();
      if (b < measured_epochs_.size() && epoch == measured_epochs_[b].first) {
        const qucp::TranspileCacheStats& start = measured_epochs_[b].second;
        s.hits -= start.hits;
        s.misses -= start.misses;
        s.structural_hits -= start.structural_hits;
        s.bind_fallbacks -= start.bind_fallbacks;
      }
      rep_.backend_cache.push_back(s);
    }
    if (!recalibrated_) {
      // No mid-stream recalibration in this workload: time one on the
      // replay fleet after the last batch, where it cannot affect results.
      recalibrate(num_cycles - 1);
    }
    const CacheTotals after = totals(epochs_);
    const CacheTotals before = before_measured_.value_or(CacheTotals{});
    rep_.cache.hits = after.cache.hits - before.cache.hits;
    rep_.cache.misses = after.cache.misses - before.cache.misses;
    rep_.cache.structural_hits =
        after.cache.structural_hits - before.cache.structural_hits;
    rep_.cache.bind_fallbacks =
        after.cache.bind_fallbacks - before.cache.bind_fallbacks;
    rep_.plan_builds = after.plan_builds - before.plan_builds;
    rep_.plan_hits = after.plan_hits - before.plan_hits;
    rep_.layer_s = tracer_.self_seconds(run_.cycles);
    return std::move(rep_);
  }

  void cycle(std::size_t c) {
    const CycleRecord& cycle = run_.cycles[c];
    regenerate(cycle);
    if (cycle.recalibrated_before) recalibrate(c);
    // Pin each backend's epoch for the cycle, as FleetScheduler::plan does.
    pinned_.clear();
    for (std::size_t b = 0; b < fleet_.size(); ++b) {
      pinned_.push_back(fleet_.at(b).epoch());
      if (known_epochs_.insert(pinned_.back().get()).second) {
        epochs_.push_back(pinned_.back());
      }
    }
    if (!cycle.warmup && !before_measured_) {
      before_measured_ = totals(epochs_);
      for (const auto& e : pinned_) {
        measured_epochs_.emplace_back(e, e->cache_stats());
      }
    }

    dispatch(c);
    for (const auto& [key, members] : batches_) {
      try {
        SpanGuard span(tracer_, kBatch, c);
        const BatchOutcome out = pipeline(c, key, members);
        const double seconds = span.end();
        if (tracer_.on()) rep_.batch_s[key] = seconds;
        check(key, members, out);
        if (!cycle.warmup) count(out);
      } catch (const std::exception& e) {
        mismatch("batch " + std::to_string(key.second) + " on backend " +
                 std::to_string(key.first) + ": replay failed: " + e.what());
      }
    }
    if (!cycle.warmup) ++rep_.measured_cycles;
  }

 private:
  /// ExecutionService's canonical order: (fingerprint, name, job id).
  [[nodiscard]] auto canonical_less() const {
    return [this](std::size_t a, std::size_t b) {
      const CycleJob& x = jobs_[a];
      const CycleJob& y = jobs_[b];
      if (x.fp != y.fp) return x.fp < y.fp;
      if (x.name != y.name) return x.name < y.name;
      return x.record->id < y.record->id;
    };
  }

  /// The cycle's circuits as the service received them, and its batches
  /// (from the job results) with members in canonical order.
  void regenerate(const CycleRecord& cycle) {
    jobs_.clear();
    batches_.clear();
    for (std::size_t k = 0; k < cycle.num_jobs; ++k) {
      const JobRecord& r = run_.jobs[cycle.first_job + k];
      JobSpec spec = r.warmup ? Traffic::warmup_job(r.index)
                              : traffic_.job(r.index);
      CycleJob j;
      j.record = &r;
      j.fp = qucp::circuit_fingerprint(spec.circuit);
      j.structural_fp = qucp::structural_fingerprint(spec.circuit);
      j.circuit = std::move(spec.circuit);
      j.name = std::move(spec.name);
      j.exclusive = spec.exclusive;
      jobs_.push_back(std::move(j));
      if (r.done) {
        batches_[{r.batch.backend_id, r.batch.batch_index}].push_back(k);
      }
    }
    for (auto& [key, members] : batches_) {
      std::sort(members.begin(), members.end(), canonical_less());
    }
  }

  void recalibrate(std::size_t c) {
    SpanGuard span(tracer_, kRecalibrate, c);
    const double t = now_s();
    (void)fleet_.at(0).recalibrate(recal_);
    rep_.recalibrate_ms = (now_s() - t) * 1e3;
    recalibrated_ = true;
  }

  /// The caller-thread side of a dispatch cycle: the fleet plan, then the
  /// sweep fast path — sweep jobs grouped per backend by (structure,
  /// partition) across the cycle's batches, each group bound
  /// batch-at-a-time with its fusion plan fetched once. The plan is timed
  /// against an idle backlog (the service's depends on completion timing)
  /// and only timed: batches come from the job results. Groups are keyed
  /// on the result partition, which the service's pack-time partition
  /// equals whenever the cache counters agree (check_counters).
  void dispatch(std::size_t c) {
    SpanGuard span(tracer_, kDispatch, c);
    const bool measured = !run_.cycles[c].warmup;
    {
      SpanGuard plan_span(tracer_, kPlan, c);
      std::vector<std::size_t> order(jobs_.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      std::sort(order.begin(), order.end(), canonical_less());
      std::vector<qucp::PackJob> pack;
      pack.reserve(order.size());
      for (std::size_t k : order) {
        pack.push_back({k, qucp::shape_of(jobs_[k].circuit), jobs_[k].fp,
                        jobs_[k].exclusive, jobs_[k].structural_fp});
      }
      (void)scheduler_.plan(pack, *pack_partitioner_, popts_, idle_backlog_);
    }
    for (std::size_t b = 0; b < fleet_.size(); ++b) {
      std::map<std::pair<std::uint64_t, std::vector<int>>,
               std::vector<std::size_t>>
          groups;
      for (const auto& [key, members] : batches_) {
        if (key.first != static_cast<int>(b)) continue;
        for (std::size_t k : members) {
          if (!jobs_[k].record->sweep) continue;
          groups[{jobs_[k].structural_fp, jobs_[k].record->result.partition}]
              .push_back(k);
        }
      }
      for (const auto& [group, members] : groups) {
        if (members.size() < 2) continue;
        if (measured) {
          ++rep_.sweep_groups;
          rep_.batched_binds += members.size();
        }
        std::vector<const qucp::Circuit*> circuits;
        for (std::size_t k : members) circuits.push_back(&jobs_[k].circuit);
        std::vector<qucp::TranspiledProgram> bound;
        {
          SpanGuard bind_span(tracer_, kMapping, c);
          pinned_[b]->transpile_sweep(circuits, group.second, topts_,
                                      kOptionsFp, bound);
        }
        std::shared_ptr<const qucp::FusionPlan> plan;
        {
          SpanGuard plan_span(tracer_, kIdeal, c);
          plan = pinned_[b]->program_cache().plan(*circuits.front());
        }
        for (std::size_t t = 0; t < members.size(); ++t) {
          jobs_[members[t]].prebound = std::move(bound[t]);
          jobs_[members[t]].plan = plan;
        }
      }
    }
  }

  /// run_batch_pipeline's steps, one span per layer call.
  BatchOutcome pipeline(std::size_t c, const BatchKey& key,
                        const std::vector<std::size_t>& members) {
    const qucp::CalibrationEpoch& epoch =
        *pinned_[static_cast<std::size_t>(key.first)];
    const qucp::Device& device = epoch.device();
    const std::size_t n = members.size();
    BatchOutcome out;
    out.reports.resize(n);
    out.physical.resize(n);
    std::vector<qucp::Circuit> programs;
    programs.reserve(n);
    for (std::size_t k : members) programs.push_back(jobs_[k].circuit);

    std::vector<qucp::PartitionAssignment> assignment(n);
    {
      SpanGuard span(tracer_, kPartition, c);
      std::vector<qucp::ProgramShape> shapes;
      for (const qucp::Circuit& p : programs) shapes.push_back(qucp::shape_of(p));
      const std::vector<std::size_t> order = qucp::allocation_order(shapes);
      std::vector<qucp::ProgramShape> ordered;
      for (std::size_t idx : order) ordered.push_back(shapes[idx]);
      const auto partitioner = qucp::make_partitioner(
          options_.method, options_.sigma, options_.srb_estimates);
      const auto allocations =
          partitioner->allocate(device, ordered, &epoch.candidate_index());
      if (!allocations) {
        throw std::runtime_error("the batch does not fit on " + device.name());
      }
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        assignment[order[pos]] = (*allocations)[pos];
      }
    }
    {
      SpanGuard span(tracer_, kMapping, c);
      for (std::size_t i = 0; i < n; ++i) {
        CycleJob& j = jobs_[members[i]];
        const bool use_prebound =
            j.prebound && j.record->result.partition == assignment[i].qubits;
        qucp::TranspiledProgram tp =
            use_prebound ? *std::move(j.prebound)
                         : epoch.transpile(programs[i], assignment[i].qubits,
                                           topts_, kOptionsFp);
        qucp::ProgramReport& pr = out.reports[i];
        pr.partition = assignment[i].qubits;
        pr.final_layout = tp.final_layout;
        pr.efs = assignment[i].efs.score;
        pr.swaps_added = tp.swaps_added;
        out.physical[i] = {std::move(tp.physical), j.name};
      }
    }
    {
      SpanGuard span(tracer_, kExecute, c);
      qucp::ExecOptions exec = options_.exec;
      exec.seed = options_.exec.seed + kGolden * key.second;
      exec.kernel_threads = 1;
      out.run = epoch.execute(out.physical, exec);
    }
    {
      SpanGuard span(tracer_, kIdeal, c);
      for (std::size_t i = 0; i < n; ++i) {
        const CycleJob& j = jobs_[members[i]];
        out.reports[i].ideal =
            j.plan != nullptr
                ? qucp::ideal_distribution(
                      qucp::CompiledProgram::materialize(*j.plan, programs[i]))
                : qucp::ideal_distribution(*epoch.compiled_program(programs[i]));
      }
    }
    {
      SpanGuard span(tracer_, kScore, c);
      for (std::size_t i = 0; i < n; ++i) {
        qucp::ProgramReport& pr = out.reports[i];
        pr.noisy = out.run.programs[i].distribution;
        pr.counts = out.run.programs[i].counts;
        pr.jsd_value = qucp::jsd(pr.noisy, pr.ideal);
        pr.pst_value = qucp::pst(pr.noisy, pr.ideal.most_likely());
      }
    }
    {
      SpanGuard span(tracer_, kSchedule, c);
      std::vector<double> solo;
      for (const qucp::PhysicalProgram& p : out.physical) {
        solo.push_back(
            qucp::schedule_circuit(p.circuit, device, options_.exec.schedule)
                .makespan_ns);
      }
      out.runtime_reduction =
          qucp::serial_runtime_s(model_, solo) /
          qucp::parallel_runtime_s(model_, out.run.makespan_ns);
    }
    return out;
  }

  /// Every replayed report must equal the service's bit for bit.
  void check(const BatchKey& key, const std::vector<std::size_t>& members,
             const BatchOutcome& out) {
    const BatchFacts facts{key.first,          key.second,
                           members.size(),     out.run.makespan_ns,
                           out.run.throughput, out.run.crosstalk_events,
                           out.runtime_reduction};
    for (std::size_t i = 0; i < members.size(); ++i) {
      const CycleJob& j = jobs_[members[i]];
      const JobRecord& r = *j.record;
      const ResultDigest d = digest(out.reports[i]);
      const char* what = nullptr;
      if (d.partition != r.result.partition) {
        what = "partition";
      } else if (d.noisy_fp != r.result.noisy_fp) {
        what = "noisy distribution";
      } else if (d.counts_fp != r.result.counts_fp) {
        what = "counts";
      } else if (!(d == r.result)) {
        what = "ideal distribution, layout or scores";
      } else if (!(facts == r.batch)) {
        what = "batch makespan, throughput or crosstalk";
      }
      if (what == nullptr) {
        ++rep_.matched_jobs;
      } else {
        mismatch("job '" + j.name + "' (id " + std::to_string(r.id) +
                 "): replayed " + what + " differs from the service's");
      }
    }
  }

  void count(const BatchOutcome& out) {
    rep_.measured_jobs += out.reports.size();
    ++rep_.measured_batches;
    for (const qucp::ProgramReport& pr : out.reports) {
      rep_.swaps += pr.swaps_added;
    }
    for (const qucp::PhysicalProgram& p : out.physical) {
      rep_.physical_ops += static_cast<double>(p.circuit.ops().size());
    }
    rep_.qubits_used += out.run.qubits_used;
    rep_.crosstalk_events += out.run.crosstalk_events;
  }

  void mismatch(std::string what) {
    if (rep_.first_mismatch.empty()) rep_.first_mismatch = std::move(what);
  }

  const Traffic& traffic_;
  const ServiceRun& run_;
  Tracer tracer_;
  ReplayReport rep_;
  const qucp::ServiceOptions options_;
  const qucp::Calibration recal_;
  qucp::BackendRegistry fleet_;  ///< fresh backends: caches start cold
  qucp::FleetScheduler scheduler_;
  const std::unique_ptr<qucp::Partitioner> pack_partitioner_;
  const std::vector<double> idle_backlog_;
  qucp::PackOptions popts_;
  qucp::TranspileOptions topts_;
  qucp::RuntimeModel model_;
  std::vector<std::shared_ptr<const qucp::CalibrationEpoch>> epochs_;
  std::set<const qucp::CalibrationEpoch*> known_epochs_;
  std::vector<std::shared_ptr<const qucp::CalibrationEpoch>> pinned_;
  std::optional<CacheTotals> before_measured_;
  /// Each backend's epoch and its cache counters when the measured cycles
  /// began, for BackendStats-style per-backend counts.
  std::vector<std::pair<std::shared_ptr<const qucp::CalibrationEpoch>,
                        qucp::TranspileCacheStats>>
      measured_epochs_;
  bool recalibrated_ = false;
  std::vector<CycleJob> jobs_;
  std::map<BatchKey, std::vector<std::size_t>> batches_;  ///< -> jobs_ index
};

}  // namespace

ReplayReport replay(const Traffic& traffic, const ServiceRun& run,
                    bool traced, std::size_t max_cycles) {
  // The replay is one thread; keep the kernels on it too.
  const qucp::kern::ParallelThreadsGuard one_thread(1);
  const double start = now_s();
  Replayer replayer(traffic, run, traced);
  const std::size_t cycles = std::min(max_cycles, run.cycles.size());
  for (std::size_t c = 0; c < cycles; ++c) replayer.cycle(c);
  ReplayReport rep = std::move(replayer).finish(cycles);
  rep.wall_s = now_s() - start;
  return rep;
}

}  // namespace e2e
