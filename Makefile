# Convenience entry points; everything is plain dune underneath.
#
#   make build       compile everything
#   make test        full test suite (includes the behaviour contract, the
#                    trace-export check and the fleet determinism smoke checks)
#   make doc         API docs via odoc, warnings-as-errors (skips if odoc absent)
#   make doc-strict  same, but odoc missing is an error (ODOC_REQUIRED=1)
#   make matrix      print the differential fault-injection matrix (nonzero
#                    exit on any silent corruption or harness error in the
#                    Fidelius column; `make test` diffs its seed-2026 table)
#   make fleet       fleet scaling benchmark: VMs/sec vs domain count
#                    (results/fleet.csv, results/fleet_trace.json, bench.json)
#   make fleet-scale scaling gate: d4 must beat d1 by >= 2.0x (nonzero exit
#                    otherwise; skips with a message on hosts under 4 cores)
#   make serve       traffic-serving benchmark over the batched PV datapath
#                    (ring throughput sync vs batched, serve sweep -> bench.json)
#   make serve-smoke fast doorbell-amortization and determinism check
#   make migrate     fleet live-migration benchmark: pages sent vs downtime
#                    budget across fleet sizes (results/migrate.csv, bench.json)
#   make migrate-smoke  fast pre-copy/monotonicity/determinism/rollback check
#   make perf        re-measure the bechamel primitives and print the
#                    speedup against the recorded results/bench.json baseline
#   make perf-gate   regression gate over the pinned fast-path keys: any key
#                    slower than 2x its recorded bench.json baseline fails
#                    (best of two runs; PERF_GATE_SKIP=1 to skip)
#   make perfbench   the repository benchmark (BENCHMARK.json): serve,
#                    guest-mem, migrate and fleet, 20 s each, seed 1, one
#                    JSON result line per workload
#   make contract    diff the behaviour contract (deterministic bench
#                    sections, fault matrix, examples, CLI outputs, trace
#                    export digests) against test/contract; part of
#                    `make test`. Re-pin a moved artifact with `dune promote`
#   make crypto-selftest  report the CPUID-selected AES/SHA backends and
#                    cross-check every tier against the executable
#                    specification (nonzero exit on any mismatch)
#   make check       what CI runs: build + tests (contract and fault matrix
#                    included) + crypto self-test + fleet smoke + serve smoke
#                    + migrate smoke + perf gate + docs

.PHONY: build test doc doc-strict contract matrix fleet fleet-smoke fleet-scale serve serve-smoke migrate migrate-smoke perf perf-gate perfbench crypto-selftest check clean

build:
	dune build @all

test:
	dune runtest

doc:
	sh tools/doc.sh

doc-strict:
	ODOC_REQUIRED=1 sh tools/doc.sh

contract:
	dune build @contract

matrix:
	dune exec bin/fidelius_sim.exe -- inject matrix

fleet:
	dune exec bench/main.exe -- fleet

fleet-smoke:
	dune build @fleet-smoke

fleet-scale:
	dune exec bench/main.exe -- fleet-scale

serve-smoke:
	dune build @serve-smoke

serve:
	dune exec bench/main.exe -- serve

migrate:
	dune exec bench/main.exe -- migrate

migrate-smoke:
	dune build @migrate-smoke

perf:
	dune exec bench/main.exe -- perf

perf-gate:
	dune exec bench/main.exe -- perf-gate

perfbench:
	for w in serve guest-mem migrate fleet; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

crypto-selftest:
	dune exec bin/fidelius_sim.exe -- cpu-features

check: build test crypto-selftest fleet-smoke serve-smoke migrate-smoke perf-gate doc

clean:
	dune clean
