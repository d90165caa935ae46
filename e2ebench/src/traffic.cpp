// Seeded job streams for the three workloads, plus the fleet and service
// configuration they share.

#include <algorithm>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "benchmarks/suite.hpp"
#include "common/rng.hpp"
#include "e2e.hpp"
#include "vqe/ansatz.hpp"

namespace e2e {

namespace {

// cloud_poisson: offered load, about a fifth of the rate at which this
// fleet saturates on a 4-thread x86-64 host (~14k jobs/s), so latency
// stays off the queueing knee on a host whose speed varies. Being an open
// loop below saturation, its completed jobs per second is this rate.
constexpr double kCloudRatePerS = 3000.0;
constexpr std::size_t kCloudAutoFlush = 12;
constexpr double kCloudExclusiveShare = 0.05;

// unique_burst: bursts of all-distinct circuits, dispatched in cycles of
// kBurstAutoFlush jobs, each burst finishing before the next is sent; the
// finite EFS threshold makes admission probes reject and spill a real
// share of jobs. Widths stop at 6 because width-7
// circuits can make route_on_partition fail to converge, failing whole
// batches. The fixed job count per second of requested run time keeps the
// work (and results_hash) independent of host speed.
constexpr std::size_t kBurstJobs = 1024;
constexpr std::size_t kBurstAutoFlush = 256;
constexpr double kBurstJobsPerS = 3200.0;
constexpr double kBurstEfsThreshold = 0.1;

// vqe_sweep: 8 RyRz structures x 8 bindings per iteration.
constexpr int kVqeStructures = 8;
constexpr int kVqeBindings = 8;
constexpr double kVqeIterationsPerS = 80.0;

/// Independent generator for item `i` of stream `tag` under `seed`.
qucp::Rng item_rng(std::uint64_t seed, std::uint64_t tag, std::size_t i) {
  std::uint64_t h = qucp::fnv1a_mix(qucp::kFnv1aBasis, seed);
  h = qucp::fnv1a_mix(h, tag);
  return qucp::Rng(qucp::fnv1a_mix(h, i));
}

constexpr std::uint64_t kTagCloud = 1;
constexpr std::uint64_t kTagBurst = 2;
constexpr std::uint64_t kTagVqe = 3;
constexpr std::uint64_t kTagArrivals = 4;
constexpr std::uint64_t kTagWarmup = 5;

/// CX-dense random circuit: half the gates are CX.
qucp::Circuit random_circuit(int width, int gates, qucp::Rng& rng,
                             std::string name) {
  qucp::Circuit c(width, width, std::move(name));
  const auto qubit = [&] { return static_cast<int>(rng.index(width)); };
  for (int g = 0; g < gates; ++g) {
    switch (rng.index(12)) {
      case 0: c.h(qubit()); break;
      case 1: c.t(qubit()); break;
      case 2: c.s(qubit()); break;
      case 3: c.x(qubit()); break;
      case 4: c.ry(rng.uniform(-3.1, 3.1), qubit()); break;
      case 5: c.rz(rng.uniform(-3.1, 3.1), qubit()); break;
      default: {
        const int a = qubit();
        int b = static_cast<int>(rng.index(width - 1));
        if (b >= a) ++b;
        c.cx(a, b);
        break;
      }
    }
  }
  c.measure_all();
  return c;
}

std::size_t at_least_one(double x) {
  return static_cast<std::size_t>(std::max(1.0, std::round(x)));
}

}  // namespace

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::CloudPoisson, Workload::UniqueBurst,
                     Workload::VqeSweep}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::CloudPoisson: return "cloud_poisson";
    case Workload::UniqueBurst: return "unique_burst";
    case Workload::VqeSweep: return "vqe_sweep";
  }
  return "?";
}

std::vector<qucp::Device> fleet_devices() {
  std::vector<qucp::Device> devices;
  devices.push_back(qucp::make_toronto27(2022));
  devices.push_back(qucp::make_toronto27(2023));
  devices.push_back(qucp::make_manhattan65(2022));
  return devices;
}

qucp::ServiceOptions service_options(Workload w) {
  qucp::ServiceOptions o;
  o.exec.shots = kShots;
  o.num_workers = 1;
  o.max_batch_size = kMaxBatchSize;
  o.route_policy = qucp::RoutePolicy::LeastLoaded;
  switch (w) {
    case Workload::CloudPoisson:
      o.auto_flush_batch_size = kCloudAutoFlush;
      break;
    case Workload::UniqueBurst:
      o.auto_flush_batch_size = kBurstAutoFlush;
      o.efs_threshold = kBurstEfsThreshold;
      break;
    case Workload::VqeSweep:
      // The second submit_all() of every iteration dispatches all of it.
      o.auto_flush_batch_size = kVqeStructures * kVqeBindings;
      break;
  }
  return o;
}

qucp::Calibration midstream_calibration() {
  return qucp::make_toronto27(2024).calibration();
}

Traffic::Traffic(Workload w, std::uint64_t seed, double seconds)
    : workload_(w), seed_(seed) {
  switch (w) {
    case Workload::CloudPoisson: {
      size_ = at_least_one(kCloudRatePerS * seconds);
      arrivals_.resize(size_);
      qucp::Rng rng = item_rng(seed, kTagArrivals, 0);
      double t = 0.0;
      for (double& a : arrivals_) {
        t += -std::log1p(-rng.uniform()) / kCloudRatePerS;
        a = t;
      }
      break;
    }
    case Workload::UniqueBurst:
      group_ = kBurstJobs;
      size_ = at_least_one(seconds * kBurstJobsPerS / kBurstJobs) * group_;
      break;
    case Workload::VqeSweep:
      group_ = kVqeStructures * kVqeBindings;
      size_ = at_least_one(seconds * kVqeIterationsPerS) * group_;
      break;
  }
}

std::optional<std::size_t> Traffic::recalibration_job() const {
  if (workload_ != Workload::CloudPoisson) return std::nullopt;
  return size_ / 2 / kCloudAutoFlush * kCloudAutoFlush;
}

JobSpec Traffic::job(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Traffic::job: index");
  switch (workload_) {
    case Workload::CloudPoisson: {
      qucp::Rng rng = item_rng(seed_, kTagCloud, i);
      const auto& suite = qucp::benchmark_suite();
      const qucp::BenchmarkSpec& spec = suite[rng.index(suite.size())];
      return {spec.circuit, spec.short_name + "#" + std::to_string(i),
              rng.bernoulli(kCloudExclusiveShare)};
    }
    case Workload::UniqueBurst: {
      qucp::Rng rng = item_rng(seed_, kTagBurst, i);
      const int width = 2 + static_cast<int>(rng.index(5));
      const int gates = 10 + static_cast<int>(rng.index(41));
      std::string name = "u" + std::to_string(i);
      return {random_circuit(width, gates, rng, name), name, false};
    }
    case Workload::VqeSweep: {
      const std::size_t within = i % group_;
      const int s = static_cast<int>(within) / kVqeBindings;
      const int width = 4 + s % 3;
      const int reps = 1 + (s / 3) % 2;
      std::string name = "s" + std::to_string(s) + ".it" +
                         std::to_string(i / group_) + ".b" +
                         std::to_string(within % kVqeBindings);
      // A structure-specific Hadamard prefix keeps the 8 structures
      // distinct even where width and depth coincide.
      qucp::Circuit c(width, width, name);
      for (int q = 0; q < width; ++q) {
        if (((s >> (q % 3)) & 1) != 0) c.h(q);
      }
      qucp::Rng rng = item_rng(seed_, kTagVqe, i);
      std::vector<double> angles(
          static_cast<std::size_t>(qucp::ansatz_parameter_count(width, reps)));
      // Away from 0 and 2 pi, so bindings exercise template binds rather
      // than the identity-flip fallback.
      for (double& a : angles) a = rng.uniform(0.05, 6.2);
      c.compose(qucp::make_ryrz_ansatz(width, reps, angles));
      c.measure_all();
      return {std::move(c), std::move(name), false};
    }
  }
  throw std::logic_error("Traffic::job: unknown workload");
}

JobSpec Traffic::warmup_job(std::size_t i) {
  // CZ-entangled circuits: no workload emits CZ, so warm-up entries never
  // serve a measured job from the transpile or fusion caches.
  qucp::Rng rng = item_rng(0, kTagWarmup, i);
  const int width = 2 + static_cast<int>(i % 3);
  qucp::Circuit c(width, width, "warmup#" + std::to_string(i));
  for (int g = 0; g < 12; ++g) {
    const int a = static_cast<int>(rng.index(width));
    if (g % 3 == 2) {
      c.cz(a, (a + 1) % width);
    } else {
      c.ry(rng.uniform(0.1, 3.0), a);
    }
  }
  c.measure_all();
  std::string name = c.name();
  return {std::move(c), std::move(name), false};
}

}  // namespace e2e
