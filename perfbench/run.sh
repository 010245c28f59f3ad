#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through
# (see perfbench/rtbench.ml). `bash perfbench/run.sh --all --seed 1
# --seconds 20` runs every workload untraced then traced.
set -u
cd "$(dirname "$0")/.." || exit 2
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/rtbench.exe 1>&2 || exit 1
exe=./_build/default/perfbench/rtbench.exe
if [ "${1:-}" = "--all" ]; then
  shift
  status=0
  for w in serve-open serve-faults frame-plan optimum; do
    for t in 0 1; do
      "$exe" --workload "$w" --trace "$t" "$@" || status=1
    done
  done
  exit "$status"
fi
exec "$exe" "$@"
