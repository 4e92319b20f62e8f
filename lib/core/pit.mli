(** Page Information Table (paper Section 5.2).

    A three-level radix tree, walked by physical frame number, whose leaf
    pages hold 1024 32-bit entries recording each frame's owner, usage, ASID
    and validity. The tree's own pages are Fidelius data: allocated from the
    Fidelius region and unmapped from the hypervisor.

    The PIT is the ground truth every mapping policy consults: "is this
    frame a page-table-page?", "which domain owns it?", "is it already
    mapped somewhere?". Entries are stored in simulated physical frames
    (like real PIT pages), and each query charges the radix-walk cost. *)

module Hw = Fidelius_hw

type owner =
  | Nobody
  | Xen
  | Fidelius
  | Dom of int

type usage =
  | Free
  | Xen_text        (** hypervisor code (write-forbidden) *)
  | Xen_data
  | Xen_pt          (** hypervisor page-table-page *)
  | Guest_page      (** protected-guest private memory *)
  | Guest_npt       (** nested-page-table page of a protected guest *)
  | Grant_table
  | Fidelius_text
  | Fidelius_data   (** PIT/GIT/shadow/SEV-metadata pages *)
  | Shared_io       (** unencrypted guest page granted for I/O *)

type info = {
  owner : owner;
  usage : usage;
  asid : int;
  valid : bool;  (** for guest pages: currently mapped in an NPT *)
}

val free_info : info

val owner_to_string : owner -> string
val usage_to_string : usage -> string

type t

val create : Hw.Machine.t -> t
(** Allocates the root page; level-2/3 pages are allocated on demand. All
    tree pages are recorded so they can be registered as Fidelius data. *)

val set : t -> Hw.Addr.pfn -> info -> unit

val retype : t -> Hw.Addr.pfn -> allow:(info -> bool) -> info -> (unit, info) result
(** [set] for a frame the caller did not choose: writes [info] only if
    [allow] admits the entry it would replace, and otherwise returns that
    entry and changes nothing. One walk, charged as [set]'s. *)

val get : t -> Hw.Addr.pfn -> info
(** Never-recorded frames read back as {!free_info}. Charges the walk. *)

val usage_of : t -> Hw.Addr.pfn -> usage
(** [(get t pfn).usage] without building the record: same walk, same
    charge. *)

val id : t -> int
(** Tells this PIT from every other PIT on its machine (it is the root
    frame, so never 0). *)

val tree_frames : t -> Hw.Addr.pfn list
(** Every frame the radix tree itself occupies. *)

val nr_tree_frames : t -> int
(** [List.length (tree_frames t)], in O(1). It only grows. *)

val vetted : t -> int
val set_vetted : t -> int -> unit
(** How many tree frames the tree had when Fidelius last recorded every
    one of them as its own data ({!Fidelius_hw.Pagetable.vetted} keeps
    the same count for a page table). Starts at 0; the PIT never moves
    it. *)

val walks : t -> int
(** Radix walks the host really performed, each charged [pit_lookup].
    A walk the model charges but the host skips ({!charge_walks}) is not
    counted, as {!Fidelius_hw.Bmt.page_hashes_computed} counts only the
    hashes the host computes. *)

val charge_walks : t -> int -> unit
(** [charge_walks t n] books [n] walks' [pit_lookup] cycles in one charge,
    without walking: for checks whose every answer is already known. *)

val count_usage : t -> usage -> int
