(** The simulated platform: DRAM, memory controller, TLB, cache, CPU,
    privileged-instruction registry, frame allocator and IOMMU hook.

    One [Machine.t] is one physical host. Everything above (SEV firmware,
    Xen, Fidelius, guests) shares it and charges cycles to its ledger. *)

type t = {
  mem : Physmem.t;
  ctrl : Memctrl.t;
  tlb : Tlb.t;
  cache : Cache.t;
  ledger : Cost.ledger;
  costs : Cost.table;
  rng : Fidelius_crypto.Rng.t;
  cpu : Cpu.t;
  insns : Insn.registry;
  mutable fresh_frames : int;
      (** Frames [1 .. fresh_frames] have never been handed out. *)
  mutable freed : Addr.pfn list;
      (** Frames freed and not yet handed out again, the last freed
          first. *)
  mutable nr_freed : int;
      (** [List.length freed]. *)
  mutable next_table_id : int;
  mutable enforce_paging : bool;
      (** Once true (paging enabled by the booted hypervisor), every PTE
          update is permission-checked against the acting address space. *)
  mutable iommu : (Addr.pfn -> bool) option;
      (** DMA filter; [None] models a platform without IOMMU protection. *)
  mmu_span : bytes;
      (** Page-sized scratch owned by the MMU's cached-access span
          assembly. Machine-local, hence job-local under the fleet
          ownership rules; contents never outlive one access. *)
  mmu_line : bytes;
      (** Block-sized scratch for the MMU's write-through line refresh. *)
}

val default_nr_frames : int
(** Frame count [create] defaults to (8192 = 32 MiB). Arena owners size
    their reusable {!Physmem.t} backing with this so it matches what
    [create] expects. *)

val create : ?nr_frames:int -> ?mem:Physmem.t -> seed:int64 -> unit -> t
(** Fresh platform. Default {!default_nr_frames} frames (32 MiB). Frame 0
    is reserved.

    [mem] recycles an existing DRAM backing instead of allocating one —
    the per-worker-arena fast path of the fleet runner: the backing is
    {!Physmem.reset} (zeroed in place), so the resulting machine is
    byte-for-byte indistinguishable from one built on a fresh backing;
    every other component (ledger, RNG, caches, TLB, allocator) is
    always freshly built from [seed]. The caller hands over exclusive
    ownership for the machine's lifetime — reusing a backing while a
    previous machine built on it is still live, or sharing it across
    worker domains, is a data race. Raises [Invalid_argument] if the
    backing's frame count differs from [nr_frames]. *)

val alloc_frame : t -> Addr.pfn
(** A free frame (zeroed): the one freed last if any is waiting, else the
    highest frame never handed out, so a fresh machine hands out its
    frames in descending order. Raises [Failure] when exhausted. The
    allocator is a counter and a stack: [create] builds nothing per
    frame. *)

val alloc_frames : t -> int -> Addr.pfn list

val free_frame : t -> Addr.pfn -> unit
(** Scrub and return a frame to the allocator. *)

val frames_free : t -> int
(** Frames [alloc_frame] can still hand out, in O(1). *)

val new_table : t -> Pagetable.t
(** Fresh page table backed by this machine's memory and allocator. *)

val dma_write : t -> Addr.pfn -> off:int -> bytes -> (unit, string) result
(** Device-originated write: bypasses the CPU's encryption engine and
    permission checks but is subject to the IOMMU filter. *)

val dma_read : t -> Addr.pfn -> off:int -> len:int -> (bytes, string) result

val set_iommu : t -> (Addr.pfn -> bool) option -> unit
