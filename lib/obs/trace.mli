(** Bounded, deterministic event trace of the simulated platform.

    Every layer of the stack — memory controller, TLB, hypervisor,
    Fidelius gates, SEV firmware — emits structured events here while a
    recording is installed. Timestamps are read from the cost ledger (via
    the recording's clock, {!set_clock}), never from wall time, so two
    runs with the same seed produce byte-identical traces: the
    determinism contract the golden-trace tests pin.

    There is one way to record: into a {!ring}, a bounded buffer that
    {!record_into} installs for the duration of one run. Once its
    capacity is reached the oldest entries are overwritten and counted in
    {!ring_dropped}. Outside a recording nothing is kept: emit sites guard
    with [if Trace.enabled () then Trace.emit ...], one domain-local load,
    so no event is allocated when tracing is off.

    {2 Thread-safety: one recording per domain}

    The installed recording (ring, clock, scope stack, on/off flag) lives
    in [Domain.DLS]: every function in this interface reads or writes
    only the calling domain's recording. Fleet shards
    ([Fidelius_fleet.Pool]) therefore trace concurrently without locks
    and without perturbing one another — each fleet worker records its
    VMs into its own reusable {!ring} with {!record_into} and serializes
    them before the next job. Entries themselves are immutable and may be
    handed freely across domains; what must not be shared is a live
    recording. A freshly spawned domain starts with tracing disabled
    regardless of the spawning domain's state. *)

type event =
  | Vmrun of { domid : int }
  | Vmexit of { domid : int; reason : string }
  | Npf of { domid : int; gfn : int }
  | Hypercall of string
  | Gate of int  (** gate type: 1, 2 or 3 *)
  | Shadow_capture of string  (** exit reason being shadowed *)
  | Shadow_verify of { ok : bool }
  | Fw_cmd of string  (** SEV firmware API command mnemonic *)
  | Dram of { blocks : int; encrypted : bool }
  | Walk of { space : int; vfn : int }  (** page-table walk on TLB miss *)
  | Tlb_flush of { full : bool }
  | Pte_write of { vfn : int }
  | Fault of { site : string; hit : int }
      (** an armed injection site fired; [hit] is the per-site firing
          ordinal (1-based), so traces show exactly which fault landed when *)
  | Mark of string  (** free-form scenario milestone *)

type entry = {
  seq : int;  (** monotonic emission index, 0-based, survives ring wrap *)
  ts : int;  (** ledger cycles at emission time *)
  scope : string;  (** innermost cost scope, "" outside any scope *)
  event : event;
}

val enabled : unit -> bool
(** Whether the calling domain is recording. The cheap guard for emit
    sites: one domain-local load, no allocation. *)

val set_clock : (unit -> int) -> unit
(** Install the timestamp source of the calling domain's recording,
    typically [fun () -> Cost.total machine.ledger] from code that boots
    its machine inside {!record_into}. Timestamps are simulated cycles,
    never wall time — the determinism contract depends on it. *)

val push_scope : string -> unit
(** Scope tagging for emitted events; driven by [Cost.with_scope]. *)

val pop_scope : unit -> unit
(** Inverse of {!push_scope}; a no-op on an empty scope stack. *)

val emit : event -> unit
(** Record one event in the calling domain's installed ring (a no-op
    outside a recording). Timestamped with the recording's clock, tagged
    with the innermost scope. *)

(** {2 Rings}

    A fleet worker that runs hundreds of VM jobs back-to-back allocates
    one ring and {!record_into} it for each job: the slot array survives
    across jobs, and only counters, scope stack and clock are reset. A
    fresh ring per job would churn one [capacity]-slot array per job
    through the major heap — exactly the allocation pattern that forces
    OCaml 5's stop-the-world GC rendezvous across domains and flattens the
    fleet curve. *)

type ring
(** A recording, not yet installed on any domain. Owned by exactly one
    worker at a time — installing one ring on two domains concurrently is
    a data race, same rule as any live recording. *)

val ring : ?capacity:int -> unit -> ring
(** A fresh, empty, disabled ring. [capacity] defaults to 65536 entries
    and is fixed for the ring's lifetime. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val record_into : ring -> ?clock:(unit -> int) -> (unit -> 'a) -> 'a
(** [record_into r f] resets [r] (counters, scope stack, clock — {e not}
    the slot array), enables it, installs it as the calling domain's
    recording, runs [f], and restores the previous recording afterwards —
    even on exceptions, which propagate unchanged — so recordings nest
    and never leak state. [clock] defaults to constant 0 until [f]
    installs one with {!set_clock}. Entries stay in [r] for the caller to
    read ({!ring_entries}/{!ring_iter}) until the next [record_into] on
    it.

    Determinism: because the reset clears everything a previous job could
    have left behind (clock included — a stale neighbour clock never
    stamps the next job's events), the entries recorded for [f] are
    byte-identical to what [capture f] would have returned; the qcheck
    arena-reuse property in [test/test_fleet.ml] pins this. Stale
    entries from earlier runs beyond the new run's count are never
    observable: both readers bound themselves by the current counters. *)

val capture : ?capacity:int -> ?clock:(unit -> int) -> (unit -> 'a) -> 'a * entry list
(** [capture f] is {!record_into} a fresh ring of [capacity] entries
    (default 65536), returning [f]'s result and everything it emitted,
    oldest first. The fleet tests use it as the fresh-state oracle that
    reused rings must match. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val ring_entries : ring -> entry list
(** The ring's recorded entries, oldest first (allocates the list; for
    the zero-copy path use {!ring_iter}). *)

val ring_iter : ring -> (entry -> unit) -> unit
(** [ring_iter r g] applies [g] to each recorded entry, oldest first,
    without allocating a list — the streaming-serialization path: fleet
    workers fold entries straight into their [Chrome] writer. [g] must not
    re-enter the ring (emit into or reset [r]). *)

val ring_length : ring -> int
(** How many entries the ring currently holds: {!ring_emitted}, capped
    at the ring's capacity. *)

val ring_emitted : ring -> int
(** Total events emitted into the ring during its last [record_into]
    (including any the ring overwrote after wrapping). *)

val ring_dropped : ring -> int
(** How many of those the ring overwrote: how far {!ring_emitted}
    exceeds the ring's capacity, or 0. *)

val ring_reset : ring -> unit
(** Disable the ring and drop its recorded entries (counters, scope
    stack and clock revert to the fresh state; the slot array is kept for
    reuse). {!record_into} does this implicitly; explicit reset is for
    releasing entry references early without dropping the arena. *)

val event_name : event -> string
(** Stable wire name of the event constructor (e.g. ["tlb-flush"]). *)

val to_jsonl : ring -> string
(** The ring's entries as JSONL, oldest first, one
    [{"seq":N,"ts":N,"scope":S,"name":S,"args":{...}}] object per line.
    The payload fields follow the event's declaration order, so exports
    are byte-stable. *)

val chrome_event : ?pid:int -> entry -> Json.t
(** One Chrome [trace_event] instant-event object on thread row 1. [pid]
    defaults to 1; the fleet's merged export gives each shard its own
    [pid] row. The executable specification of [Chrome.add_event], which
    prints the same bytes without building the tree. *)

val to_chrome : ?attribution:(string * int) list -> ?total_cycles:int -> ring -> Json.t
(** Chrome [trace_event] format: an object with a [traceEvents] array of
    the ring's entries as instant events (timestamps in ledger cycles)
    and an [otherData] section carrying {!ring_emitted}, {!ring_dropped},
    the per-scope cycle attribution and the ledger total, so viewers and
    tests can check that attribution sums to the total. Single-recording
    export ([pid] 1 throughout); the fleet's multi-VM trace is streamed
    instead, one fragment per VM written by [Chrome] and appended to the
    output in VM order ([Fidelius_workloads.Fleetbench.chrome_fragment]
    between [Fidelius_fleet.Merge.chrome_header] and [chrome_footer]). *)
