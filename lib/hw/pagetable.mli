(** Page tables (host page tables, guest page tables, and NPTs).

    A table maps virtual (or guest-physical) frame numbers to {!proto}
    entries. Entries are not OCaml-side shadow state: they are serialized
    into *backing frames inside simulated physical memory* (8 bytes per
    entry, 512 entries per page-table-page, allocated lazily). This is what
    makes the paper's central mechanism meaningful in the simulator:

    - "write-protect the page-table-pages" is a statement about the backing
      frames' own mappings, checked by {!Mmu.set_pte} before any store;
    - physical channels (DMA, Rowhammer) really can corrupt translation
      state, because the translation state really lives in physical frames.

    The raw [hw_set] mutator models the memory store a PTE update ultimately
    is; it is reachable only through {!Mmu} (permission-checked) and the
    machine's DMA path (IOMMU-checked). *)

type proto = {
  frame : Addr.pfn;   (** target frame (host-physical, or guest-physical for guest tables) *)
  writable : bool;
  executable : bool;
  c_bit : bool;       (** request encryption for this mapping *)
}

type t

val create : id:int -> mem:Physmem.t -> alloc:(unit -> Addr.pfn) -> t
(** [create ~id ~mem ~alloc] makes an empty table whose entries are stored in
    [mem]; [alloc] provides backing frames for page-table-pages on demand.
    [id] keys the TLB. *)

val id : t -> int

val lookup : t -> Addr.vfn -> proto option
(** Walk one entry, reading the authoritative bytes in physical memory (so
    physical-channel corruption of a PTE is observed, as on hardware). *)

(** {2 Packed entries}

    Allocation-free view of the same authoritative bytes: an entry is one
    tagged [int] — {!packed_absent} when not present, otherwise
    [frame lsl 3 | writable lsl 2 | executable lsl 1 | c_bit] — read and
    written byte-by-byte so no [int64] or [proto] record is ever boxed.
    The hot paths (MMU translate, instruction-fetch checks, the type-3
    gate's PTE toggles) use these; {!lookup}/{!hw_set} are wrappers. *)

val packed_absent : int

val packed_make :
  frame:Addr.pfn -> writable:bool -> executable:bool -> c_bit:bool -> int

val packed_frame : int -> Addr.pfn
val packed_writable : int -> bool
val packed_executable : int -> bool
val packed_c_bit : int -> bool

val lookup_packed : t -> Addr.vfn -> int
(** {!lookup} without the option/record allocation. *)

val hw_set_packed : t -> Addr.vfn -> int -> unit
(** {!hw_set} taking a packed entry ({!packed_absent} clears). *)

val hw_set_run : t -> Addr.vfn -> int -> (Addr.vfn -> int) -> unit
(** [hw_set_run t vfn count entry] stores the packed [entry v] for each
    [v] from [vfn] to [vfn + count - 1]: the same bytes, backing frames
    (allocated in the same order), reverse index and {!frame_mapped}
    answers as [count] {!hw_set_packed}s in ascending order. Each
    page-table page is resolved once and its {!Physmem.stamp} moves once
    for its part of the run, not once per entry. [entry] is called once
    per [v], in ascending order. *)

val frame_is_mapped : t -> Addr.pfn -> bool
(** [frame_mapped t pfn <> []], in O(1) and without building the list. *)

val frame_mapped_writable : t -> Addr.pfn -> bool
(** Whether any live mapping of [pfn] is writable — the write-protection
    check of {!Mmu.set_pte}, without allocating the {!frame_mapped} list. *)

val backing_frame_of : t -> Addr.vfn -> Addr.pfn
(** The page-table-page that holds (or would hold) the entry for [vfn];
    allocates it if absent. *)

val backing_frames : t -> Addr.pfn list
(** Every allocated page-table-page, for Fidelius to write-protect and to
    record in the PIT. *)

val nr_backing_frames : t -> int
(** [List.length (backing_frames t)], in O(1). It only grows: a
    page-table-page backs its table for the table's whole life. *)

val vetted : t -> by:int -> int
val set_vetted : t -> by:int -> int -> unit
(** A count the table's owner keeps with the table: Fidelius stores here
    how many backing frames the table had when the PIT named [by] (a
    non-zero [Fidelius_core.Pit.id]) last recorded every one of them, so
    an update that adds none can skip the re-check. [vetted] reads 0
    until then and for any other [by], so a second PIT never takes the
    first one's word. The table never moves the count; keeping it in the
    table means it dies with the table. *)

val hw_set : t -> Addr.vfn -> proto option -> unit
(** Raw store of an entry ([None] clears it). No permission check — callers
    are {!Mmu} and boot-time setup only. *)

val mapped_frames : t -> (Addr.vfn * proto) list

val frame_mapped : t -> Addr.pfn -> (Addr.vfn * proto) list
(** Reverse lookup: every mapping whose target is the given frame, in
    ascending vfn order. Used for permission checks ("does the acting
    context hold any writable mapping of this frame?") and by remap-attack
    detection. *)

val entry_count : t -> int
