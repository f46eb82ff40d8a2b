#!/usr/bin/env bash
# CI bench smoke: run named bench experiments at CI scale and gate their
# BENCH_<name>.json artifacts with ci/check_bench.py.
#
# Usage: ci/bench_smoke.sh NAME [NAME...]
#
# One place owns the per-bench CI-scale environment, so adding a bench
# to the gate is one case line here plus its name in the workflow loop.
set -euo pipefail

if command -v opam >/dev/null 2>&1; then
  DUNE=(opam exec -- dune)
else
  DUNE=(dune)
fi

run_one() {
  local name="$1"
  local envs=()
  case "$name" in
    parallel) envs=(DOLX_BENCH_PARALLEL_JOBS=1,2) ;;
    runs)     envs=(DOLX_BENCH_RUNS_NODES=6000 DOLX_BENCH_RUNS_REPS=5) ;;
    succinct) envs=(DOLX_BENCH_SUCCINCT_NODES=6000 DOLX_BENCH_SUCCINCT_REPS=5) ;;
    fuzz)     envs=(DOLX_BENCH_FUZZ_CASES=300) ;;
    mvcc)     envs=() ;;
    serve)    envs=(DOLX_BENCH_SERVE_NODES=9000 DOLX_BENCH_SERVE_SUBJECTS=400
                    DOLX_BENCH_SERVE_SECS=4) ;;
    wire)     envs=(DOLX_BENCH_WIRE_NODES=6000 DOLX_BENCH_WIRE_SUBJECTS=200
                    DOLX_BENCH_WIRE_SECS=4) ;;
    obs)      envs=() ;;
    *)
      echo "bench_smoke: unknown bench '$name'" >&2
      exit 2
      ;;
  esac
  echo "::group::bench $name ${envs[*]:-}"
  env "${envs[@]}" "${DUNE[@]}" exec bench/main.exe -- "$name"
  python3 ci/check_bench.py "BENCH_${name}.json"
  echo "::endgroup::"
}

if [ "$#" -eq 0 ]; then
  echo "usage: ci/bench_smoke.sh NAME [NAME...]" >&2
  exit 2
fi

for name in "$@"; do
  run_one "$name"
done
