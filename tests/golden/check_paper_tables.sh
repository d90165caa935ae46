#!/bin/sh
# Diff the byte-stable outputs of the benches and examples against the
# committed goldens:
#   - the table text of the paper and ablation benches, each run with
#     --benchmark_filter=NONE so it prints its table and no timers, against
#     tests/golden/paper_tables/;
#   - the stdout of the example programs against tests/golden/examples/.
# Only stdout is compared.
#
#   sh tests/golden/check_paper_tables.sh <build-dir>            # check
#   sh tests/golden/check_paper_tables.sh <build-dir> --update   # refresh
#
# A change that moves an output on purpose refreshes its golden with
# --update and says why in CHANGES.md.
set -u
build=$1
update=${2:-}
root=$(dirname "$0")
status=0

# check <name> <golden> <command...>
check() {
  name=$1
  golden=$2
  shift 2
  if ! out=$("$@" 2>/dev/null); then
    echo "$name: run failed"
    status=1
    return
  fi
  if [ "$update" = --update ]; then
    printf '%s\n' "$out" > "$golden"
  elif printf '%s\n' "$out" | diff -u "$golden" -; then
    echo "$name: output matches"
  else
    echo "$name: output differs from $golden"
    status=1
  fi
}

for bench in bench_fig2_crosstalk_map bench_fig3_qucp_vs_cna \
             bench_fig4_threshold_tradeoff bench_fig6_zne \
             bench_table1_srb_overhead bench_table2_benchmarks \
             bench_table3_fig5_vqe bench_ablation_extensions \
             bench_ablation_mapping bench_ablation_partitioners \
             bench_ablation_sigma; do
  check "$bench" "$root/paper_tables/$bench.txt" \
        "$build/bench/$bench" --benchmark_filter=NONE
done
for example in cloud_queue device_explorer quickstart vqe_h2 \
               zne_mitigation; do
  check "$example" "$root/examples/$example.txt" "$build/examples/$example"
done
exit $status
