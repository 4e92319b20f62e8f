#!/bin/sh
# Capture the behaviour contract: every deterministic artifact the
# simulator prints or writes, one file per artifact, into DIR.
#
#   tools/contract.sh DIR     (make contract writes results/contract)
#
# A refactor that claims to keep behaviour runs this on the parent commit
# and on the change and diffs the two directories; `diff -r` must print
# nothing. The artifacts are the nine deterministic bench sections with
# the CSVs they write, bench migrate's CSV, the seed-2026 fault matrix,
# the eight examples, and the CLI's demo, inspect, quote, migrate,
# bench spec --breakdown, bench serve and both trace demo exports.
# Wall-clock output is not part of the contract: the CLI's bench serve
# prints only simulated-time rows, and bench migrate's rates are dropped.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

cd "$root"
dune build bench/main.exe bin/fidelius_sim.exe @examples/all
bin="$root/_build/default"

# Sections write results/*.csv relative to the working directory: run them
# in a throwaway one so the checkout's results/ stays as it was.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

for s in fig5 fig6 tab3 micro xsa attacks tab1 tab2 ablate; do
  "$bin/bench/main.exe" "$s" >"$out/bench-$s.txt" 2>&1
done
# bench migrate prints wall-clock rates; only its per-VM CSV is deterministic.
"$bin/bench/main.exe" migrate >/dev/null 2>&1
for f in results/*.csv; do
  cp "$f" "$out/csv-$(basename "$f")"
done

"$bin/bin/fidelius_sim.exe" inject matrix --seed 2026 >"$out/inject-matrix.txt" 2>&1

for e in quickstart secure_boot io_protection memory_sharing migration attack_gallery \
  hardware_extensions multi_tenant; do
  "$bin/examples/$e.exe" >"$out/example-$e.txt" 2>&1
done

sim="$bin/bin/fidelius_sim.exe"
for c in demo inspect quote migrate; do
  "$sim" "$c" >"$out/cli-$c.txt" 2>&1
done
"$sim" bench spec --breakdown >"$out/cli-bench-spec-breakdown.txt" 2>&1
"$sim" bench serve >"$out/cli-bench-serve.txt" 2>&1
"$sim" trace demo --format chrome --out trace.json >/dev/null
cp trace.json "$out/trace-demo.json"
"$sim" trace demo --format jsonl --out trace.jsonl >/dev/null
cp trace.jsonl "$out/trace-demo.jsonl"

echo "contract: $(ls "$out" | wc -l | tr -d ' ') files in $out"
