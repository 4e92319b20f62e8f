(** Translation lookaside buffer model.

    The simulator does not need a TLB for correctness — translations are
    re-walked on demand — but the *cost* of TLB maintenance is central to the
    paper's gate design: a full flush is what makes the CR3-switch isolation
    approach expensive, and the single-entry flush (128 cycles) dominates the
    type-3 gate (339 cycles total). The TLB therefore tracks cached
    translations and charges the ledger for misses and flushes. *)

type t

val create : Cost.ledger -> t

val lookup : t -> space_id:int -> Addr.vfn -> bool
(** [lookup t ~space_id vfn] returns whether the translation was cached, and
    caches it if not. Charges a walk on miss, a hit cost otherwise. *)

val flush_entry : t -> space_id:int -> record:bool -> Addr.vfn -> unit
(** INVLPG-equivalent; charges {!Cost.table.tlb_flush_entry}. [record]
    says whether the flush emits a [Tlb_flush] trace event while a
    recording is on: [Mmu.set_pte_packed] passes
    [Machine.enforce_paging], so the stores of boot's direct map are
    charged one by one but traced as one phase by their caller. An
    armed [Tlb_omit_flush] plan fires either way. *)

val flush_run : t -> space_id:int -> Addr.vfn -> int -> unit
(** [flush_run t ~space_id first count] is [count] untraced
    {!flush_entry}s of [first], [first + 1], ..., with their charges
    booked as one. Only for use while no inject plan is armed (the
    omit-flush site fires per flush): raises [Invalid_argument] if one
    is. *)

val flush_all : t -> unit
(** Full flush (what a CR3 write costs on the paper's AMD parts); charges
    {!Cost.table.tlb_flush_full}. *)

val entries : t -> int
val flushes : t -> int
(** Count of full flushes, for the gate-design ablation. *)
