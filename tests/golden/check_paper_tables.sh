#!/bin/sh
# Diff the table text of the paper benches against the committed goldens in
# tests/golden/paper_tables/. Each bench runs with --benchmark_filter=NONE,
# so it prints its table and no timers; only stdout is compared.
#
#   sh tests/golden/check_paper_tables.sh <build-dir>            # check
#   sh tests/golden/check_paper_tables.sh <build-dir> --update   # refresh
#
# A change that moves a table on purpose refreshes its golden with --update
# and says why in CHANGES.md.
set -u
build=$1
update=${2:-}
dir=$(dirname "$0")/paper_tables
status=0
for bench in bench_fig3_qucp_vs_cna bench_fig4_threshold_tradeoff \
             bench_fig6_zne bench_table1_srb_overhead bench_table3_fig5_vqe; do
  golden="$dir/$bench.txt"
  if ! out=$("$build/bench/$bench" --benchmark_filter=NONE 2>/dev/null); then
    echo "$bench: run failed"
    status=1
    continue
  fi
  if [ "$update" = --update ]; then
    printf '%s\n' "$out" > "$golden"
  elif printf '%s\n' "$out" | diff -u "$golden" -; then
    echo "$bench: table matches"
  else
    echo "$bench: table differs from $golden"
    status=1
  fi
done
exit $status
