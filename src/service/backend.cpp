#include "service/backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace qucp {

CalibrationEpoch::CalibrationEpoch(std::uint64_t id, Device device,
                                   std::size_t transpile_cache_capacity)
    : id_(id),
      device_(std::move(device)),
      candidate_index_(device_),
      derived_noise_(DerivedNoise::from(device_.calibration())),
      capacity_(transpile_cache_capacity) {}

TranspiledProgram CalibrationEpoch::transpile(const Circuit& logical,
                                              std::span<const int> partition,
                                              const TranspileOptions& options,
                                              std::uint64_t options_fp) const {
  if (capacity_ == 0) {
    return transpile_to_partition(logical, device_, partition, options);
  }
  const ParamBinding binding(logical);
  // Parameterless circuits gain nothing from a template (there is nothing
  // to rebind), so they take the exact-binding path — the structural key
  // still folds, e.g., renamed copies together.
  const bool use_template = !binding.values.empty();
  CacheKey key{structural_fingerprint(logical), options_fp,
               std::vector<int>(partition.begin(), partition.end())};
  std::shared_ptr<const TranspileTemplate> tmpl;
  bool fallback = false;  // structure matched, but the entry can't serve it
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = cache_.find(key); it != cache_.end()) {
      if (it->second.binding0 == binding.values) {
        ++stats_.hits;
        return it->second.result;
      }
      // Same structure, different angles. Bind outside the lock; if the
      // entry has no template (an earlier build failed), rebuild below.
      tmpl = it->second.tmpl;
      fallback = tmpl == nullptr;
    } else {
      ++stats_.misses;
    }
  }

  if (tmpl != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    if (std::optional<TranspiledProgram> bound = tmpl->bind(binding.values)) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.structural_hits;
      stats_.bind_ns += static_cast<std::uint64_t>(ns);
      return *std::move(bound);
    }
    fallback = true;  // binding flipped a recorded optimizer decision
  }

  // From-scratch path (first sighting of this key, or a binding the
  // template rejected), outside the lock: routing is the expensive part
  // and two threads racing on the same key produce identical results.
  CacheEntry entry;
  if (use_template) {
    if (std::optional<TranspileTemplate> built =
            TranspileTemplate::build(logical, device_, partition, options)) {
      entry.result = built->result;
      entry.tmpl = std::make_shared<const TranspileTemplate>(std::move(*built));
    } else {
      entry.result = transpile_to_partition(logical, device_, partition,
                                            options);
    }
    entry.binding0 = binding.values;
  } else {
    entry.result = transpile_to_partition(logical, device_, partition, options);
  }
  TranspiledProgram result = entry.result;
  std::lock_guard<std::mutex> lock(mutex_);
  if (fallback) ++stats_.bind_fallbacks;
  // insert_or_assign so a fallback *replaces* the entry: the cache adapts
  // to the binding actually in flight instead of pinning a template whose
  // representative binding was degenerate.
  auto [it, inserted] = cache_.insert_or_assign(key, std::move(entry));
  if (inserted) {
    insertion_order_.push_back(std::move(key));
    if (cache_.size() > capacity_) {
      cache_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      ++stats_.evictions;
    }
  }
  stats_.entries = cache_.size();
  return result;
}

void CalibrationEpoch::transpile_sweep(std::span<const Circuit* const> circuits,
                                       std::span<const int> partition,
                                       const TranspileOptions& options,
                                       std::uint64_t options_fp,
                                       std::vector<TranspiledProgram>& out) const {
  out.clear();
  out.resize(circuits.size());
  if (circuits.empty()) return;
  if (capacity_ == 0) {
    // No cache to amortize; the per-call path is already the whole story.
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      out[i] = transpile(*circuits[i], partition, options, options_fp);
    }
    return;
  }
  const std::size_t n = circuits.size();
  // The binding every per-call transpile() would recompute, computed once
  // per circuit up front.
  std::vector<ParamBinding> bindings;
  bindings.reserve(n);
  for (const Circuit* c : circuits) bindings.emplace_back(*c);
  const CacheKey key{structural_fingerprint(*circuits[0]), options_fp,
                     std::vector<int>(partition.begin(), partition.end())};

  std::vector<const ParamBinding*> to_bind;
  std::vector<std::optional<TranspiledProgram>> bound;
  std::size_t i = 0;
  while (i < n) {
    // One lock acquisition probes the cache for the whole segment that
    // follows; the segment runs until a binding the snapshot cannot serve
    // replaces the entry (rare), at which point the loop re-probes.
    std::vector<double> binding0;
    std::shared_ptr<const TranspileTemplate> tmpl;
    bool have_entry = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (auto it = cache_.find(key); it != cache_.end()) {
        have_entry = true;
        binding0 = it->second.binding0;
        tmpl = it->second.tmpl;
      }
    }
    if (!have_entry) {
      // First sighting of the structure: transpile() counts the miss,
      // builds the template and inserts the entry the rest of the sweep
      // binds against.
      out[i] = transpile(*circuits[i], partition, options, options_fp);
      ++i;
      continue;
    }
    // Batch-bind every non-exact binding in [i, n) against the snapshot,
    // then commit the results in order. The first rejected binding falls
    // back through transpile() — which rebuilds and *replaces* the entry —
    // so everything after it must re-probe; later binds already computed
    // against the old template are discarded to keep the decision chain
    // (and every counter) exactly what sequential calls produce.
    to_bind.clear();
    if (tmpl != nullptr) {
      for (std::size_t k = i; k < n; ++k) {
        if (bindings[k].values != binding0) to_bind.push_back(&bindings[k]);
      }
    }
    std::uint64_t bind_ns = 0;
    bound.clear();
    if (!to_bind.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      tmpl->bind_many(to_bind, bound);
      bind_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    std::size_t bi = 0;
    std::uint64_t committed = 0;
    while (i < n) {
      if (bindings[i].values == binding0) {
        // Exact-binding repeat: the entry is unchanged (a rejection would
        // have ended the segment before this point), so transpile()
        // re-finds it and counts the hit exactly as a sequential call.
        out[i] = transpile(*circuits[i], partition, options, options_fp);
        ++i;
        continue;
      }
      if (tmpl == nullptr || !bound[bi].has_value()) {
        // Rejected binding (or a template-less entry): the one-at-a-time
        // fallback rebuilds from scratch, counts the bind_fallback and
        // replaces the entry; break to re-probe the replacement.
        out[i] = transpile(*circuits[i], partition, options, options_fp);
        ++i;
        break;
      }
      out[i] = *std::move(bound[bi]);
      ++bi;
      ++committed;
      ++i;
    }
    if (committed != 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.structural_hits += committed;
      stats_.bind_ns += bind_ns;
    }
  }
}

ParallelRunReport CalibrationEpoch::execute(
    std::vector<PhysicalProgram> programs, const ExecOptions& options) const {
  return execute_parallel(device_, std::move(programs), options, &gate_cache_,
                          &program_cache_, &derived_noise_);
}

TranspileCacheStats CalibrationEpoch::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TranspileCacheStats stats = stats_;
  stats.entries = cache_.size();
  return stats;
}

void CalibrationEpoch::warm(std::span<const int> partition_sizes) const {
  for (int k : partition_sizes) {
    if (k <= 0 || k > device_.num_qubits()) continue;
    (void)candidate_index_.per_k(k);
  }
}

Backend::Backend(Device device, std::size_t transpile_cache_capacity)
    : capacity_(transpile_cache_capacity),
      epoch_(std::make_shared<CalibrationEpoch>(0, std::move(device),
                                                transpile_cache_capacity)) {}

std::shared_ptr<const CalibrationEpoch> Backend::epoch() const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return epoch_;
}

std::uint64_t Backend::epoch_id() const { return epoch()->id(); }

double Backend::recalibrate(Calibration cal) {
  // One recalibration at a time: epoch ids stay monotonic and two
  // concurrent swaps cannot interleave their build/publish steps.
  std::lock_guard<std::mutex> recal_lock(recal_mutex_);
  const std::shared_ptr<const CalibrationEpoch> old = epoch();

  const auto t0 = std::chrono::steady_clock::now();
  // The Device constructor validates `cal` against the topology and
  // throws std::invalid_argument before any state changes.
  Device next(old->device().name(), old->device().topology(), std::move(cal),
              old->device().crosstalk_ground_truth());
  auto fresh = std::make_shared<const CalibrationEpoch>(
      old->id() + 1, std::move(next), capacity_);
  // Off-lane warm build: reproduce the candidate working set the retiring
  // epoch accumulated, so the first pack cycle on the new epoch routes at
  // full speed. Runs entirely on this thread — no lane or worker waits.
  fresh->warm(old->candidate_index().cached_sizes());
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    epoch_ = std::move(fresh);
  }
  recalibrations_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) needs C++20 library support that not every
  // toolchain ships; a CAS loop is equivalent and portable.
  double expected = recalibration_build_s_.load(std::memory_order_relaxed);
  while (!recalibration_build_s_.compare_exchange_weak(
      expected, expected + build_s, std::memory_order_relaxed)) {
  }
  return build_s;
}

}  // namespace qucp
