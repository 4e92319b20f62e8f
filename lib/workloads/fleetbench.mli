(** The fleet scaling benchmark: N independent guest-VM simulations
    sharded across a domain pool.

    This is the shared core behind [fidelius_sim fleet], perfbench's fleet
    workload and the fleet determinism tests: all of them call
    {!run_stream}, so the benchmark and the tests exercise exactly the
    same code path. Each VM job boots a protected stack ([Engine.run]
    under [Fidelius_enc]) on its worker's {!arena}, recording into the
    arena's trace ring, so every VM produces a result row plus its own
    trace fragment; the run writes both to disk in canonical VM order.

    {2 Determinism contract}

    Everything here except wall-clock timing is a pure function of
    [(vms)]: VM [k] always runs profile [profiles.(k mod |profiles|)]
    with {!Engine.seed_of}-derived seeds, on a freshly reset machine
    backing, in a freshly reset recording. The bytes {!run_stream}
    writes, and the rows it returns, are therefore identical for any
    [domains] value — the property the fleet tests pin, together with
    the MD5s of a 24-VM run. Wall-clock throughput (VMs/sec) is measured
    by the {e caller} around {!run_stream}; it is the only
    nondeterministic quantity and never appears in the artifacts.

    {2 Arenas and ordered output}

    Worker domains own reusable {!arena}s (DRAM backing, trace ring,
    row and fragment buffers). A worker renders a finished VM's row and
    trace fragment into its arena, waits for that VM's turn, appends both
    straight to the output files and passes the turn on
    ([Fidelius_fleet.Pool.map_with]'s [commit]), so every byte is written
    once, in canonical VM order. Peak memory stays bounded by
    [workers × arena], not [vms × trace], which is what lets a 1,000-VM
    fleet finish. *)

type vm_row = {
  vm : int;                        (** canonical job index, [0 .. vms-1] *)
  profile : string;                (** workload profile name *)
  cycles : int;                    (** extrapolated total simulated cycles *)
  per_access : float;              (** sampled cycles per 64-byte access *)
  per_exit : float;                (** sampled cycles per hypervisor round trip *)
  events : int;                    (** trace entries the VM's recording recorded *)
}

type arena = {
  mem : Fidelius_hw.Physmem.t;
      (** reusable DRAM backing ([Machine.default_nr_frames] pages),
          zeroed per job by [Machine.create ?mem] *)
  ring : Fidelius_obs.Trace.ring;
      (** reusable trace ring, reset per job by [Trace.record_into] *)
  jbuf : Buffer.t;  (** text scratch: {!run_stream} renders the VM's CSV row here *)
  chrome : Fidelius_obs.Chrome.t;  (** the VM's Chrome fragment, see {!chrome_fragment} *)
}
(** Everything a VM job reuses across jobs on one worker. Ownership rule
    (SCALING.md): an arena belongs to exactly one worker domain; jobs on
    that worker run sequentially, so no lock is needed — sharing an
    arena across workers is a data race. Reuse is invisible in results:
    each reused piece is reset to its fresh state before the next job
    reads it. *)

val arena : unit -> arena
(** A fresh arena (~32 MiB of page backing, a 64k-slot ring, two 64 KiB
    buffers that grow to the largest row and fragment). Allocate once per
    worker — per job would reintroduce exactly the churn the arena exists
    to kill. *)

type gc_stats = {
  worker : int;           (** worker-domain index, [0 .. Pool.workers - 1] *)
  jobs : int;             (** VM jobs this worker completed *)
  turn_waits : int;       (** of those, jobs that finished before their turn to
                              be written and blocked for it *)
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
    ([fidelius_sim fleet --domains 1 --gc-stats]). *)

type summary = {
  vm_rows : vm_row list;  (** one per VM, canonical order *)
  gc : gc_stats list;     (** one per worker domain, worker order *)
}

val run_stream :
  ?domains:int -> ?vms:int -> csv:string -> trace:string -> unit -> summary
(** [run_stream ~csv ~trace ()] boots and measures [vms] (default 16)
    protected VMs across [domains] (default
    [Fidelius_fleet.Pool.recommended_domains ()]) worker domains. It
    opens [csv] and [trace] once and writes their headers; worker [w] of
    [n] runs VMs [w], [w + n], ... ({!Fidelius_fleet.Pool}), reusing one
    {!arena} for all of them. Each finished VM's CSV row and Chrome
    fragment are rendered into the arena, then appended to the two files
    in VM order, one VM at a time; after the last VM the trace footer
    (and a final newline) is written. Nothing else touches the disk: no
    temporary or spill file is made. Both files are byte-identical at
    every domain count. Peak live heap is [workers × arena] plus the
    (tiny) row list; no VM's trace entries survive its own job.

    [csv] holds {!csv_header}, then one row per VM:
    [vm,profile,cycles,per_access_cycles,per_exit_cycles,trace_events].
    Cycle columns are simulated cycles ([per_*] to 2 decimal places) —
    no wall time. [trace] is one Chrome [trace_event] document in which
    VM [k] is [pid = k + 1], labelled ["vm<k>:<profile>"] by a
    [process_name] metadata event, and its [otherData] carries the VM
    count and each VM's event count. Timestamps are simulated cycles.

    The returned {!summary} carries the canonical rows plus one
    {!gc_stats} per worker — the [--gc-stats] diagnosis data.

    Raises [Invalid_argument] if [vms < 0] or [domains < 1], [Sys_error]
    if an output cannot be opened, and [Pool.Job_failed] for the lowest
    VM whose job or write raised; every other VM is still written in
    order, and both files are closed, holding the output up to the
    failure with no footer. Not re-entrant on the same output paths. *)

val chrome_fragment : Fidelius_obs.Chrome.t -> vm:int -> Fidelius_obs.Trace.ring -> unit
(** [chrome_fragment w ~vm ring] replaces [w]'s contents with VM [vm]'s
    slice of the merged Chrome trace: a leading comma unless [vm] is 0,
    the [process_name] metadata event, then every entry of [ring] as an
    instant event with [pid = vm + 1] ({!Fidelius_obs.Chrome.add_ring}).
    These are the bytes {!run_stream} writes per VM. Past a fixed
    per-fragment cost (the label, the metadata event and the pid
    literal) it allocates nothing per event once [w] has grown to the
    fragment's size; a [Gc.minor_words] pin in [test/test_xen.ml] holds
    that. *)

val csv_header : string
(** First line of the [csv] file {!run_stream} writes. *)
