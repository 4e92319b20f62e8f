(** The grant table: Xen's inter-domain memory-sharing ledger.

    Entries are serialized into backing frames in simulated physical memory
    (16 bytes each), so "map the grant table read-only in the hypervisor"
    (paper Table 1) is enforceable with the same store-permission rule as
    page-table-pages: {!set} applies {!Fidelius_hw.Mmu.check_frame_writable}
    against the acting address space before touching the bytes.

    Deliberately faithful weakness: nothing *here* validates that an update
    matches what the granting guest intended — that is exactly the GIT
    policy Fidelius adds on top. *)

module Hw = Fidelius_hw

type entry = {
  owner : int;      (** granting domain *)
  target : int;     (** domain allowed to map *)
  gfn : Hw.Addr.gfn;(** owner's guest-physical frame being shared *)
  writable : bool;
  in_use : bool;
}

type t

val create : Hw.Machine.t -> nr_frames:int -> t
(** Allocate the table's backing frames. *)

val backing_frames : t -> Hw.Addr.pfn list

val get : t -> int -> entry option
(** Decode one entry; [None] for free slots or out-of-range refs. *)

val set :
  Hw.Machine.t -> space:Hw.Pagetable.t -> t -> int -> entry option -> unit
(** Store an entry (or free the slot), permission-checked as a memory write
    into the backing frame. Raises {!Hw.Mmu.Fault} when the acting space
    lacks write access. *)

val find_free : t -> int option
val entries : t -> (int * entry) list
