#!/usr/bin/env bash
# Build socbench offline, run its unit tests, smoke every workload against
# the contract in /BENCHMARK.json, and check that the benchmark refuses to
# run where the repository is missing. Run from anywhere.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Every workload for ~2 s with all checks on; every declared metric must be
# printed with its declared unit, and nothing undeclared.
python3 benchmark/tool.py smoke

# In a directory holding only BENCHMARK.json and benchmark/ the command must
# fail without printing a result (the path dependencies are not there).
bare="$here/out/bare"
rm -rf "$bare"
mkdir -p "$bare/benchmark"
cp BENCHMARK.json "$bare/"
(cd "$here" && tar cf - --exclude=./target --exclude=./out .) | tar xf - -C "$bare/benchmark"
read -r -a cmd < <(python3 -c 'import json,sys; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
if (cd "$bare" && CARGO_TARGET_DIR=.bench_build "${cmd[@]}" --workload commit_xio --seed 1 --seconds 1 --trace 0 >"$bare/stdout" 2>"$bare/stderr"); then
    echo "FAIL: the benchmark ran in a directory without the repository" >&2
    exit 1
fi
if grep -q '"metrics"' "$bare/stdout"; then
    echo "FAIL: a result was printed in a directory without the repository" >&2
    exit 1
fi
rm -rf "$bare"
echo "check.sh: ok"
