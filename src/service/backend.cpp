#include "service/backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/rng.hpp"

namespace qucp {

CalibrationEpoch::CalibrationEpoch(std::uint64_t id, Device device,
                                   std::size_t cache_budget_bytes)
    : id_(id),
      device_(std::move(device)),
      cache_budget_bytes_(cache_budget_bytes),
      candidate_index_(device_, cache_budget_bytes / kEpochCaches),
      derived_noise_(DerivedNoise::from(device_)),
      cache_(cache_budget_bytes / kEpochCaches),
      program_cache_(device_, cache_budget_bytes / kEpochCaches) {}

std::size_t CalibrationEpoch::CacheKeyHash::operator()(
    const CacheKey& key) const noexcept {
  std::uint64_t h = fnv1a_mix(kFnv1aBasis, key.circuit_fp);
  h = fnv1a_mix(h, key.options_fp);
  for (int q : key.partition) h = fnv1a_mix(h, static_cast<std::uint64_t>(q));
  return static_cast<std::size_t>(h);
}

TranspiledProgram CalibrationEpoch::transpile(const Circuit& logical,
                                              std::span<const int> partition,
                                              const TranspileOptions& options,
                                              std::uint64_t options_fp) const {
  const Circuit* const one = &logical;
  std::vector<TranspiledProgram> out;
  transpile_sweep({&one, 1}, partition, options, options_fp, out);
  return std::move(out.front());
}

void CalibrationEpoch::transpile_sweep(std::span<const Circuit* const> circuits,
                                       std::span<const int> partition,
                                       const TranspileOptions& options,
                                       std::uint64_t options_fp,
                                       std::vector<TranspiledProgram>& out) const {
  out.clear();
  out.reserve(circuits.size());
  if (circuits.empty()) return;
  CacheKey key{structural_fingerprint(*circuits[0]), options_fp,
               std::vector<int>(partition.begin(), partition.end())};
  // One probe serves the whole sweep: every circuit binds against the
  // probed template, or against the one this loop rebuilt in its place.
  // Hits and binds are tallied locally and committed under the next lock
  // this call takes.
  std::shared_ptr<const TranspileTemplate> tmpl = cache_.find(key);
  std::uint64_t hits = 0;
  std::uint64_t structural_hits = 0;
  const auto commit = [&] {  // caller holds mutex_
    stats_.hits += hits;
    stats_.structural_hits += structural_hits;
    hits = structural_hits = 0;
  };

  for (const Circuit* c : circuits) {
    const ParamBinding binding(*c);
    if (tmpl != nullptr) {
      // Exact-binding repeat (always, for a parameterless circuit: both
      // bindings are empty).
      if (binding.values == tmpl->binding0) {
        ++hits;
        out.push_back(tmpl->result);
        continue;
      }
      if (std::optional<TranspiledProgram> bound = tmpl->bind(binding.values)) {
        ++structural_hits;
        out.push_back(*std::move(bound));
        continue;
      }
    }

    // First sighting of the key (the cache counted the miss), or a
    // binding that flipped a recorded optimizer decision: count the
    // fallback, then build from scratch outside any lock (routing is the
    // expensive part, and two threads racing on one key build identical
    // templates).
    if (tmpl != nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      commit();
      ++stats_.bind_fallbacks;
    }
    tmpl = std::make_shared<const TranspileTemplate>(
        TranspileTemplate::build(*c, device_, partition, options));
    out.push_back(tmpl->result);
    // assign so a fallback *replaces* the entry: the cache adapts to the
    // binding actually in flight instead of pinning a template whose
    // representative binding was degenerate.
    cache_.assign(key, tmpl, tmpl->bytes());
  }
  if (hits != 0 || structural_hits != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    commit();
  }
}

ParallelRunReport CalibrationEpoch::execute(
    std::vector<PhysicalProgram> programs, const ExecOptions& options) const {
  return execute_parallel(device_, std::move(programs), options,
                          &program_cache_, &derived_noise_);
}

TranspileCacheStats CalibrationEpoch::cache_stats() const {
  const CacheStats cache = cache_.stats();
  std::lock_guard<std::mutex> lock(mutex_);
  TranspileCacheStats stats = stats_;
  stats.misses = cache.misses;
  stats.evictions = cache.evictions;
  stats.refused = cache.refused;
  stats.entries = cache.entries;
  return stats;
}

EpochCacheStats CalibrationEpoch::cache_memory() const {
  const CompiledProgramCache::Stats programs = program_cache_.stats();
  EpochCacheStats stats{cache_budget_bytes_,     0,
                        cache_.stats(),          candidate_index_.state_stats(),
                        programs.fused,          programs.executables};
  stats.used_bytes = stats.transpile.bytes + stats.allocation_states.bytes +
                     stats.fused.bytes + stats.executables.bytes;
  return stats;
}

void CalibrationEpoch::warm(std::span<const int> partition_sizes) const {
  for (int k : partition_sizes) {
    if (k <= 0 || k > device_.num_qubits()) continue;
    (void)candidate_index_.state(candidate_index_.empty_key(k));
  }
}

Backend::Backend(Device device, std::size_t cache_budget_bytes)
    : cache_budget_bytes_(cache_budget_bytes),
      epoch_(std::make_shared<CalibrationEpoch>(0, std::move(device),
                                                cache_budget_bytes)) {}

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
      old->id() + 1, std::move(next), cache_budget_bytes_);
  // Off-lane warm build: the empty allocation state of every width the
  // retiring epoch served, so the first pack cycle on the new epoch finds
  // its single-program probes memoized. Runs entirely on this thread — no
  // lane or worker waits.
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
