(** Cycle cost model and ledger.

    Every component of the simulated machine charges cycles here, labelled by
    category, so the benchmark harness can reproduce the paper's overhead
    figures from the same mechanism as real hardware would: extra DRAM
    latency on encrypted lines, TLB flushes on mapping changes, world-switch
    costs on vmexit, and per-block costs for the three I/O encoders.

    The constants are calibrated against the paper's own micro-benchmarks
    (§7.2): a type-1 gate is 306 cycles, type-2 is 16, type-3 is 339 of which
    the TLB entry flush is 128 and the cacheline write under 2; shadow+check
    round trip is 661; AES-NI memory-copy slowdown 11.49%, SME engine 8.69%,
    software AES >20x. *)

type table = {
  dram_access : int;          (** plain DRAM access, per cache line *)
  enc_extra : int;            (** added latency when the line is encrypted *)
  cache_hit : int;            (** L1/L2 averaged hit *)
  cacheline_write : int;      (** store into cache, paper: <2 cycles *)
  tlb_flush_full : int;       (** full TLB flush (CR3 switch on AMD) *)
  tlb_flush_entry : int;      (** INVLPG, paper: 128 cycles *)
  tlb_miss_walk : int;        (** page-table walk on TLB miss *)
  vmexit : int;               (** hardware world switch, guest->host *)
  vmrun : int;                (** host->guest *)
  hypercall_base : int;
  pit_lookup : int;           (** one PIT radix walk *)
  git_lookup : int;
  aesni_block : int;          (** copy+encode via AES-NI, total per block *)
  sev_engine_block : int;     (** copy+encode via the SEV/SME engine, total per block *)
  sw_aes_block : int;         (** copy+encode via software AES, total per block *)
  memcpy_block : int;         (** plain copy, per block (the baseline) *)
  io_sector : int;            (** backend device access per 512-byte sector *)
  event_channel : int;        (** event-channel notification *)
  firmware_cmd : int;         (** fixed SEV firmware command overhead *)
  firmware_page : int;        (** per-page firmware processing (LAUNCH/SEND/RECEIVE _UPDATE) *)
  gate1 : int;                (** type-1 gate (clear WP): paper 306 cycles *)
  gate2 : int;                (** type-2 gate (checking loop): paper 16 cycles *)
  gate3 : int;                (** type-3 gate (add mapping): paper 339 cycles, of
                                  which the TLB entry flush is 128 and the PTE
                                  cacheline write under 2 *)
  shadow_roundtrip : int;     (** shadow+verify across one vmexit: paper 661 cycles *)
}

val default : table

type ledger
(** Mutable accumulator of cycles, broken down by category label. *)

val ledger : unit -> ledger

type id
(** Dense interned handle for a category label. Charge sites resolve their
    label once ([let c_tlb_hit = Cost.intern "tlb-hit"] at module init) so
    the per-access {!charge_id} is an array add plus one cached scope-slot
    add — no string hashing on the hot path. *)

val intern : string -> id
(** Resolve a label to its id, registering it on first use. Idempotent;
    safe from any domain (the registry is mutex-guarded). *)

val id_label : id -> string
(** The label a given id was registered under. *)

val charge_id : ledger -> id -> int -> unit
(** Interned fast path of {!charge}: identical booking semantics (total,
    category row — visible even for a 0-cycle charge — and the innermost
    active scope), without string hashing or allocation. *)

val charge : ledger -> string -> int -> unit
(** [charge l category cycles] adds to the total, the category, and (when a
    scope is active) the innermost scope. Negative amounts would corrupt
    the attribution invariants and raise [Invalid_argument]. Thin wrapper
    over {!intern} + {!charge_id}; hot sites should pre-intern. *)

val root_scope : string
(** ["(root)"] — the implicit scope owning every cycle charged outside any
    [with_scope]. Reserved: passing it to {!with_scope} raises. *)

val with_scope : ledger -> string -> (unit -> 'a) -> 'a
(** [with_scope l "dom3" f] runs [f] with ["dom3"] as the innermost
    attribution scope: every charge inside is booked both globally and to
    that scope (and mirrored to the event trace's scope tag). Scopes nest;
    a charge is attributed to the innermost only, so
    [sum (scopes l) = total l] holds at all times. The scope is popped on
    exceptions too. *)

val scope_enter : ledger -> string -> unit
(** Push a scope without the closure {!with_scope} costs per call. The
    caller must guarantee a matching {!scope_exit} on every path out,
    including exceptions — use {!with_scope} unless the call site is on an
    allocation-free fast path. *)

val scope_exit : ledger -> unit
(** Pop the innermost scope pushed by {!scope_enter} (no-op at depth 0,
    matching [with_scope]'s pop). *)

val total : ledger -> int

val category : ledger -> string -> int
(** 0 when the category was never charged. *)

val categories : ledger -> (string * int) list
(** Sorted by descending cycles; ties broken on the category name so the
    listing is deterministic. *)

val scopes : ledger -> (string * int) list
(** Per-scope cycle attribution, including the {!root_scope} remainder;
    entries sum exactly to {!total}. Sorted like {!categories}. *)

val scope_total : ledger -> string -> int
(** 0 for scopes never charged; for {!root_scope}, the unattributed
    remainder. *)

val scope_categories : ledger -> string -> (string * int) list
(** Category breakdown within one scope (for {!root_scope}: the residue of
    each category not booked to any named scope). *)

val reset : ledger -> unit

val pp : Format.formatter -> ledger -> unit
