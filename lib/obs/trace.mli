(** Bounded, deterministic event trace of the simulated platform.

    Every layer of the stack — memory controller, TLB, hypervisor,
    Fidelius gates, SEV firmware — emits structured events here when
    tracing is enabled. Timestamps are read from the cost ledger (via the
    installed {!set_clock} hook), never from wall time, so two runs with
    the same seed produce byte-identical traces: the determinism contract
    the golden-trace tests pin.

    The store is a ring buffer: once [capacity] events have been recorded
    the oldest are overwritten and counted in {!dropped}. The disabled
    path is one domain-local load — emit sites guard with
    [if Trace.enabled () then Trace.emit ...] so no event is allocated
    when tracing is off.

    {2 Thread-safety: one recording per domain}

    All recording state (ring, clock, scope stack, on/off flag) lives in
    [Domain.DLS]: each domain owns an independent recording, and every
    function in this interface reads or writes only the calling domain's
    state. Fleet shards ([Fidelius_fleet.Pool]) therefore trace
    concurrently without locks and without perturbing one another — each
    fleet worker records its VMs into its own reusable {!ring} with
    {!record_into} and serializes them before the next job. Entries
    themselves are immutable and may be handed freely across domains;
    what must not be shared is a live recording. A freshly spawned domain
    starts with tracing disabled regardless of the spawning domain's
    state. *)

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

val enable : ?capacity:int -> ?clock:(unit -> int) -> unit -> unit
(** Clears the calling domain's buffer and starts recording. [capacity]
    defaults to 65536 entries; [clock] defaults to the previously
    installed clock (a constant 0 if none was ever installed). Raises
    [Invalid_argument] if [capacity <= 0]. *)

val disable : unit -> unit
(** Stops recording on the calling domain; the buffer is retained for
    export. *)

val clear : unit -> unit
(** Drops every recorded entry (and the emitted/dropped counters) of the
    calling domain's recording; on/off state and clock are untouched. *)

val set_clock : (unit -> int) -> unit
(** Install the timestamp source for the calling domain, typically
    [fun () -> Cost.total machine.ledger]. Timestamps are simulated
    cycles, never wall time — the determinism contract depends on it. *)

val push_scope : string -> unit
(** Scope tagging for emitted events; driven by [Cost.with_scope]. *)

val pop_scope : unit -> unit
(** Inverse of {!push_scope}; a no-op on an empty scope stack. *)

val emit : event -> unit
(** Record one event in the calling domain's ring (a no-op when
    disabled). Timestamped with the installed clock, tagged with the
    innermost scope. *)

val capture : ?capacity:int -> ?clock:(unit -> int) -> (unit -> 'a) -> 'a * entry list
(** [capture f] runs [f] under a fresh, enabled, domain-local recording
    and returns [f]'s result together with everything it emitted (oldest
    first). The previous recording — whatever the domain had active,
    enabled or not — is saved and restored afterwards, even on
    exceptions, so captures nest and never leak state. [capacity]
    defaults to 65536; [clock] defaults to constant 0 until [f] installs
    one with {!set_clock}. Raises [Invalid_argument] if [capacity <= 0].
    The fleet records with {!record_into} instead; the fleet tests use
    [capture] as the fresh-state oracle that reused rings must match. *)

(** {2 Reusable rings (per-worker arenas)}

    {!capture} allocates a fresh ring per call; a fleet worker that runs
    hundreds of VM jobs back-to-back would churn one [capacity]-slot
    array (plus one entry list) per job through the major heap — exactly
    the allocation pattern that forces OCaml 5's stop-the-world GC
    rendezvous across domains and flattens the fleet curve. A {!ring} is
    the reusable alternative: allocate it once per worker, then
    {!record_into} it for each job. The slot array survives across jobs;
    only counters, scope stack and clock are reset. *)

type ring
(** A reusable recording: the same state {!capture} builds internally,
    not yet installed on any domain. Owned by exactly one worker at a
    time — installing one ring on two domains concurrently is a data
    race, same rule as any live recording. *)

val ring : ?capacity:int -> unit -> ring
(** A fresh, empty, disabled ring. [capacity] defaults to 65536 entries
    and is fixed for the ring's lifetime. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val record_into : ring -> ?clock:(unit -> int) -> (unit -> 'a) -> 'a
(** [record_into r f] is {!capture} into a caller-owned ring: resets [r]
    (counters, scope stack, clock — {e not} the slot array), enables it,
    installs it as the calling domain's recording, runs [f], and restores
    the previous recording afterwards — even on exceptions, which
    propagate unchanged. Entries stay in [r] for the caller to read
    ({!ring_entries}/{!ring_iter}) until the next [record_into] on it.

    Determinism: because the reset clears everything a previous job could
    have left behind (clock included — a stale neighbour clock never
    stamps the next job's events), the entries recorded for [f] are
    byte-identical to what [capture f] would have returned; the qcheck
    arena-reuse property in [test/test_fleet.ml] pins this. Stale
    entries from earlier runs beyond the new run's count are never
    observable: both readers bound themselves by the current counters. *)

val ring_entries : ring -> entry list
(** The ring's recorded entries, oldest first (allocates the list; for
    the zero-copy path use {!ring_iter}). *)

val ring_iter : ring -> (entry -> unit) -> unit
(** [ring_iter r g] applies [g] to each recorded entry, oldest first,
    without allocating a list — the streaming-serialization path: fleet
    workers fold entries straight into a spill buffer. [g] must not
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

val entries : unit -> entry list
(** The calling domain's recorded entries, oldest first. *)

val emitted : unit -> int
(** Total events emitted since the last {!clear}, including dropped. *)

val dropped : unit -> int
(** How many of the emitted events the ring has overwritten. *)

val event_name : event -> string
(** Stable wire name of the event constructor (e.g. ["tlb-flush"]). *)

val to_jsonl : unit -> string
(** The calling domain's {!entries} as JSONL, one
    [{"seq":N,"ts":N,"scope":S,"name":S,"args":{...}}] object per line.
    The payload fields follow the event's declaration order, so exports
    are byte-stable. *)

val chrome_event : ?pid:int -> entry -> Json.t
(** One Chrome [trace_event] instant-event object on thread row 1. [pid]
    defaults to 1; the fleet's merged export gives each shard its own
    [pid] row. *)

val chrome_event_into : Buffer.t -> pid:int -> entry -> unit
(** [chrome_event_into buf ~pid e] appends exactly the bytes
    [Json.to_buffer buf (chrome_event ~pid e)] appends, without
    building the [Json.t]: the fleet's per-event serialiser. Allocates
    nothing once [buf] has room, and keeps no state outside its arguments,
    so workers on different domains may each write their own buffer at
    once. {!chrome_event} stays the executable specification; a qcheck
    property over all fourteen constructors holds the two byte-equal. *)

val to_chrome : ?attribution:(string * int) list -> ?total_cycles:int -> unit -> Json.t
(** Chrome [trace_event] format: an object with a [traceEvents] array of
    instant events (timestamps in ledger cycles) and an [otherData]
    section carrying the per-scope cycle attribution and the ledger
    total, so viewers and tests can check that attribution sums to the
    total. Single-recording export ([pid] 1 throughout); the fleet's
    multi-VM trace is streamed instead, one fragment per VM
    ([Fidelius_workloads.Fleetbench.chrome_fragment] between
    [Fidelius_fleet.Merge.chrome_header] and [chrome_footer]). *)
