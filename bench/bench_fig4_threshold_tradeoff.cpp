// Fig. 4: average PST and hardware throughput vs fidelity threshold on
// IBM Q 65 Manhattan. The threshold on the EFS gap between independent
// and parallel allocation decides how many copies of the same circuit run
// simultaneously (1..6); larger thresholds buy throughput at the cost of
// fidelity, with a visible cliff at high utilization.

#include "bench_util.hpp"
#include "benchmarks/suite.hpp"
#include "common/strings.hpp"
#include "core/parallel.hpp"
#include "partition/threshold.hpp"

namespace {

using namespace qucp;

void sweep_circuit(const Device& d, const char* name) {
  const Circuit& circuit = get_benchmark(name).circuit;
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  bench::heading(std::string("Fig. 4: ") + name +
                 " on IBM Q 65 Manhattan (max 6 copies)");
  bench::row({"threshold", "n_circ", "throughput", "avg PST", "runtime x"},
             13);
  bench::rule(5, 13);
  for (double tau : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.5, 3.0}) {
    const ThresholdSelection sel =
        select_parallel_count(d, shape_of(circuit), 6, tau, *qucp);
    ParallelOptions opts;
    opts.exec.shots = 1024;
    const std::vector<Circuit> batch(
        static_cast<std::size_t>(sel.num_circuits), circuit);
    const BatchReport report = run_parallel(d, batch, opts);
    double avg_pst = 0.0;
    for (const ProgramReport& pr : report.programs) avg_pst += pr.pst_value;
    avg_pst /= static_cast<double>(report.programs.size());
    bench::row({fmt_double(tau, 2), std::to_string(sel.num_circuits),
                fmt_percent(report.throughput, 1), fmt_double(avg_pst, 4),
                fmt_double(report.runtime_reduction, 2)},
               13);
  }
}

void print_fig4() {
  const Device d = make_manhattan65();
  sweep_circuit(d, "4mod5-v1_22");
  sweep_circuit(d, "alu-v0_27");
  std::printf("(paper: throughput 7.7%%..46.2%%, runtime reduction up to 6x,"
              " fidelity cliff past ~38%% throughput)\n");
}

void BM_ThresholdSelection(benchmark::State& state) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ProgramShape shape = shape_of(get_benchmark("4mod").circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        select_parallel_count(d, shape, 6, 0.2, *qucp));
  }
}
BENCHMARK(BM_ThresholdSelection)->Unit(benchmark::kMillisecond);

void BM_SixCopyBatchExecution(benchmark::State& state) {
  const Device d = make_manhattan65();
  const std::vector<Circuit> batch(6, get_benchmark("4mod").circuit);
  ParallelOptions opts;
  opts.exec.shots = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_parallel(d, batch, opts));
  }
}
BENCHMARK(BM_SixCopyBatchExecution)->Unit(benchmark::kMillisecond);

}  // namespace

QUCP_BENCH_MAIN(print_fig4)
