# Convenience entry points; everything is plain dune underneath. Every
# paper section, benchmark and gate below is a subcommand of the one front
# end, bin/fidelius_sim.exe (`dune exec bin/fidelius_sim.exe -- --help`).
#
#   make build       compile everything
#   make test        full test suite (includes the behaviour contract, the
#                    trace-export check and the exact fleet, serve and
#                    migrate checks; no wall-clock floor)
#   make doc         API docs via odoc, warnings-as-errors (skips if odoc absent)
#   make doc-strict  same, but odoc missing is an error (ODOC_REQUIRED=1)
#   make matrix      print the differential fault-injection matrix (nonzero
#                    exit on any silent corruption or harness error in the
#                    Fidelius column; `make test` diffs its seed-2026 table)
#   make fleet       fleet scaling benchmark: VMs/sec vs domain count
#                    (results/fleet.csv, results/fleet_trace.json, bench.json)
#   make fleet-smoke wall-clock check, run alone: domains=2 must reach 0.7x
#                    the VMs/sec of domains=1 (no scaling inversion)
#   make fleet-scale scaling gate: d4 must beat d1 by >= 2.0x (nonzero exit
#                    otherwise; skips with a message on hosts under 4 cores)
#   make serve       traffic-serving benchmark over the batched PV datapath
#                    (ring throughput sync vs batched, serve sweep -> bench.json)
#   make serve-smoke wall-clock check, run alone: batch-8 ring throughput
#                    must stay >= 1.8x the synchronous path
#   make migrate     fleet live-migration benchmark (`migrate-fleet`): pages
#                    sent vs downtime budget across fleet sizes
#                    (results/migrate.csv, bench.json)
#   make perf        re-measure the bechamel primitives and print the
#                    speedup against the recorded results/bench.json baseline
#   make perf-gate   regression gate over the pinned fast-path keys: any key
#                    slower than 2x its recorded bench.json baseline fails
#                    (best of two runs; PERF_GATE_SKIP=1 to skip)
#   make perfbench   the repository benchmark (BENCHMARK.json): serve,
#                    guest-mem, migrate and fleet, 20 s each, seed 1, one
#                    JSON result line per workload
#   make contract    diff the behaviour contract (deterministic paper
#                    sections, fault matrix, examples, CLI outputs, trace
#                    export digests, usage errors) against test/contract;
#                    part of `make test`. Re-pin a moved artifact with
#                    `dune promote`
#   make crypto-selftest  report the CPUID-selected AES/SHA backends and
#                    cross-check every tier against the executable
#                    specification (nonzero exit on any mismatch)
#   make check       what CI runs: build + tests (contract and fault matrix
#                    included) + crypto self-test + fleet smoke + serve smoke
#                    + perf gate + docs

SIM = dune exec bin/fidelius_sim.exe --

.PHONY: build test doc doc-strict contract matrix fleet fleet-smoke fleet-scale serve serve-smoke migrate perf perf-gate perfbench crypto-selftest check clean

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
	$(SIM) inject matrix

fleet:
	$(SIM) fleet

fleet-smoke:
	dune build @fleet-smoke

fleet-scale:
	$(SIM) fleet-scale

serve-smoke:
	dune build @serve-smoke

serve:
	$(SIM) serve

migrate:
	$(SIM) migrate-fleet

perf:
	$(SIM) perf

perf-gate:
	$(SIM) perf-gate

perfbench:
	for w in serve guest-mem migrate fleet; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

crypto-selftest:
	$(SIM) cpu-features

check: build test crypto-selftest fleet-smoke serve-smoke perf-gate doc

clean:
	dune clean
