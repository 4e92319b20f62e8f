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
val get : t -> Hw.Addr.pfn -> info
(** Never-recorded frames read back as {!free_info}. Charges the walk. *)

val usage_of : t -> Hw.Addr.pfn -> usage
(** [(get t pfn).usage] without building the record: same walk, same
    charge. *)

val tree_frames : t -> Hw.Addr.pfn list
(** Every frame the radix tree itself occupies. *)

val count_usage : t -> usage -> int
