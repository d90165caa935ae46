#!/bin/sh
# Fail on library code that no shipped binary links.
#
# Builds e2ebench/CMakeLists.txt (which pulls in the whole repository) at
# -O0 with one section per function and links with --gc-sections, so a
# function survives in a binary exactly when something the binary runs
# can reach it (at -O0 nothing disappears by being inlined). The shipped
# binaries are e2e_bench, every bench_* target and every example. Each
# strong function symbol of libqucp.a (nm type T) must be linked into at
# least one of them, or be listed in tests/golden/test_support_symbols.txt
# as a fixture or oracle that a named test uses.
#
#   sh tests/golden/check_linked_symbols.sh [build-dir]
#
# The build directory defaults to .probe_build/ at the repository root.
set -u
root=$(cd "$(dirname "$0")/../.." && pwd)
build=${1:-$root/.probe_build}
allow=$root/tests/golden/test_support_symbols.txt
mkdir -p "$build"

cmake -S "$root/e2ebench" -B "$build" -G Ninja \
  -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="-O0 -g0 -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$build/probe-configure.log" 2>&1 ||
  { cat "$build/probe-configure.log"; exit 2; }

benches=$(cd "$root/bench" && ls bench_*.cpp | sed 's/\.cpp$//')
examples=$(cd "$root/examples" && ls *.cpp | sed 's/\.cpp$//')
# shellcheck disable=SC2086
cmake --build "$build" --target e2e_bench $benches $examples > "$build/probe-build.log" 2>&1 ||
  { tail -n 50 "$build/probe-build.log"; exit 2; }

lib=$build/qucp/libqucp.a
binaries="$build/e2e_bench"
for b in $benches; do binaries="$binaries $build/bench/$b"; done
for e in $examples; do binaries="$binaries $build/examples/$e"; done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" { print $3 }' | sort -u > "$tmp/lib"
# shellcheck disable=SC2086
for b in $binaries; do nm --defined-only "$b"; done | awk '{ print $NF }' | sort -u > "$tmp/linked"
comm -23 "$tmp/lib" "$tmp/linked" | c++filt | sort > "$tmp/unlinked"
# The allow-list holds "<demangled symbol>  # <test that uses it>" lines.
grep -v '^#' "$allow" | sed 's/  # .*$//' | grep -v '^$' | sort > "$tmp/allowed"

unlinked=$(wc -l < "$tmp/unlinked")
echo "$(wc -l < "$tmp/lib") strong library functions; $unlinked linked into no shipped binary"
comm -23 "$tmp/unlinked" "$tmp/allowed" > "$tmp/bad"
comm -13 "$tmp/unlinked" "$tmp/allowed" > "$tmp/stale"
status=0
if [ -s "$tmp/bad" ]; then
  echo "linked into no shipped binary and not in $allow:"
  sed 's/^/  /' "$tmp/bad"
  status=1
fi
if [ -s "$tmp/stale" ]; then
  echo "listed in $allow but linked into a shipped binary or gone:"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
[ $status -eq 0 ] && echo "every unlinked function is a listed test-support symbol"
exit $status
