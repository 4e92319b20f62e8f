(** The fleet scaling benchmark: N independent guest-VM simulations
    sharded across a domain pool.

    This is the shared core behind [bench fleet] and the fleet
    determinism tests: both call {!run} (or its bounded-memory sibling
    {!run_stream}) so the benchmark and the test exercise exactly the
    same code path. Each VM job boots a fresh protected stack
    ([Engine.run] under [Fidelius_enc]) inside its own trace recording,
    so every VM produces a result row plus its own trace shard; {!csv}
    and {!chrome} merge them in canonical VM order.

    {2 Determinism contract}

    Everything here except wall-clock timing is a pure function of
    [(vms)]: VM [k] always runs profile [profiles.(k mod |profiles|)]
    with {!Engine.seed_of}-derived seeds, on a fresh (or freshly reset —
    see below) machine, in a fresh (or freshly reset) recording. {!csv}
    and {!chrome} bytes are therefore identical for any [domains] value —
    the property the fleet tests pin. Wall-clock throughput (VMs/sec) is
    measured by the {e caller} around {!run}/{!run_stream}; it is the
    only nondeterministic quantity and never appears in the merged
    artifacts.

    {2 Arenas and streaming}

    {!run} is the in-memory path: every VM allocates its own machine and
    capture, and every VM's trace entries stay live until the caller
    drops [t] — fine for tests and small fleets, quadratic pain at 1,000
    VMs. {!run_stream} is the fleet-scale path: worker domains own
    reusable {!arena}s (DRAM backing, trace ring, serialization buffer)
    and each VM's rows/trace bytes are spilled to per-chunk files as the
    job completes, then concatenated in canonical order — the artifacts
    are byte-identical to {!run}'s at every domain count (pinned in
    [test/test_fleet.ml]) while peak memory stays bounded by
    [workers × arena], not [vms × trace]. *)

type vm_row = {
  vm : int;                        (** canonical job index, [0 .. vms-1] *)
  profile : string;                (** workload profile name *)
  cycles : int;                    (** extrapolated total simulated cycles *)
  per_access : float;              (** sampled cycles per 64-byte access *)
  per_exit : float;                (** sampled cycles per hypervisor round trip *)
  events : int;                    (** trace entries the VM's recording recorded *)
}

type t = {
  rows : vm_row list;              (** one per VM, canonical order *)
  shards : (string * Fidelius_obs.Trace.entry list) list;
      (** per-VM trace shards, canonical order — feed to {!chrome} *)
}

type arena = {
  mem : Fidelius_hw.Physmem.t;
      (** reusable DRAM backing ([Machine.default_nr_frames] pages),
          zeroed per job by [Machine.create ?mem] *)
  ring : Fidelius_obs.Trace.ring;
      (** reusable trace ring, reset per job by [Trace.record_into] *)
  jbuf : Buffer.t;  (** serialization scratch, cleared per fragment *)
}
(** Everything a VM job reuses across jobs on one worker. Ownership rule
    (SCALING.md): an arena belongs to exactly one worker domain; jobs on
    that worker run sequentially, so no lock is needed — sharing an
    arena across workers is a data race. Reuse is invisible in results:
    each reused piece is reset to its fresh state before the next job
    reads it. *)

val arena : unit -> arena
(** A fresh arena (~32 MiB of page backing + a 64k-slot ring). Allocate
    once per worker — per job would reintroduce exactly the churn the
    arena exists to kill. *)

type gc_stats = {
  worker : int;           (** worker-domain index, [0 .. Pool.workers - 1] *)
  jobs : int;             (** VM jobs this worker completed *)
  minor_words : float;    (** words allocated on this worker's minor heap *)
  promoted_words : float; (** of those, words that survived into the major heap *)
  major_words : float;    (** words allocated directly on the major heap *)
  minor_collections : int;  (** minor GCs (each a stop-the-world rendezvous
                                across {e all} running domains on OCaml 5) *)
  major_collections : int;  (** major cycles completed *)
}
(** One worker domain's GC/allocation delta across its whole job run,
    measured with [Gc.quick_stat] from [Pool.map_with]'s [init] to its
    [finish], both on the worker domain. On OCaml 5.1 [Gc.quick_stat]
    sums the minor counters over all domains, and [major_words] and
    [major_collections] read the shared major heap, so when several
    workers run each delta includes the neighbours' contributions.
    Per-VM division is meaningful on the one-worker diagnosis run
    ([bench fleet --domains 1 --gc-stats]). *)

type summary = {
  vm_rows : vm_row list;  (** one per VM, canonical order — same rows {!run} returns *)
  gc : gc_stats list;     (** one per worker domain, worker order *)
}

val run : ?domains:int -> ?vms:int -> unit -> t
(** Boots and measures [vms] (default 16) protected VMs across
    [domains] (default [Fidelius_fleet.Pool.recommended_domains ()])
    worker domains, retaining every VM's rows and trace entries in
    memory. Raises [Invalid_argument] if [vms < 0]. *)

val run_stream :
  ?domains:int -> ?vms:int -> csv:string -> trace:string -> unit -> summary
(** [run_stream ~csv ~trace ()] is {!run} with per-domain arenas and
    streaming shard output: worker [w] reuses one {!arena} for all its
    jobs, writes each finished VM's CSV row and serialized Chrome events
    to per-chunk spill files (in a [<trace>.spill] directory, removed on
    success), and the final merge concatenates the spills in canonical
    chunk order into [csv] and [trace] — byte-identical to what
    [Merge.csv]/[Merge.chrome_of_shards] over {!run}'s results would
    produce (including the trailing newline on [trace]), at every domain
    count. Peak live heap is [workers × arena] plus the (tiny) row list;
    no VM's trace entries survive its own job.

    The returned {!summary} carries the canonical rows plus one
    {!gc_stats} per worker — the [--gc-stats] diagnosis data.

    Raises [Invalid_argument] if [vms < 0] or [domains < 1], and
    [Pool.Job_failed] like {!run}; on failure the spill directory may be
    left behind (it is truncated and reused by the next call). Not
    re-entrant on the same output paths: two concurrent streams would
    race on the spill directory. *)

val chrome_fragment : Buffer.t -> vm:int -> Fidelius_obs.Trace.ring -> unit
(** [chrome_fragment buf ~vm ring] replaces [buf]'s contents with VM
    [vm]'s slice of the merged Chrome trace: a leading comma unless [vm]
    is 0, the [process_name] metadata event, then every entry of [ring]
    as an instant event with [pid = vm + 1], each written by
    [Trace.chrome_event_into]. These are the bytes {!run_stream} spills
    per VM. Past a fixed per-fragment cost (the label and the metadata
    event) it allocates nothing per event once [buf] has grown to the
    fragment's size; a [Gc.minor_words] pin in [test/test_xen.ml] holds
    that. *)

val csv_header : string
(** First line of {!csv} / the [csv] file {!run_stream} writes. *)

val csv : t -> string
(** The per-VM result table:
    [vm,profile,cycles,per_access_cycles,per_exit_cycles,trace_events].
    Cycle columns are simulated cycles ([per_*] to 2 decimal places) —
    no wall time, so bytes are domain-count-independent. *)

val chrome : t -> Fidelius_obs.Json.t
(** The merged multi-process Chrome trace
    ({!Fidelius_fleet.Merge.chrome_of_shards}): VM [k] is [pid = k + 1],
    labelled ["vm<k>:<profile>"]. Timestamps are simulated cycles. *)
