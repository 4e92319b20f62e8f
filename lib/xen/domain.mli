(** A Xen domain: guest page table, nested page table, VMCB, SEV binding.

    The guest page table is guest-owned state — the guest updates it with
    its own stores to its own memory, so those updates are not mediated by
    anything (and need not be: the threat model trusts the guest). The NPT
    is hypervisor-owned and is exactly what Fidelius write-protects. *)

module Hw = Fidelius_hw

type lifecycle =
  | Created
  | Runnable
  | Paused
  | Dying

type t = {
  domid : int;
  domid64 : int64;
      (** [Int64.of_int domid], boxed once — the VMRUN operand every
          world switch loads, without re-boxing per crossing *)
  scope : string;
      (** ["dom<id>"], the per-domain cost-attribution label, built once
          so scope entry on the hypercall path does not concatenate *)
  guest_mode : Hw.Cpu.mode;
      (** [Guest domid], allocated once — VMRUN stores this exact value *)
  name : string;
  is_dom0 : bool;
  gpt : Hw.Pagetable.t;   (** guest-virtual to guest-physical, guest-owned *)
  npt : Hw.Pagetable.t;   (** guest-physical to host-physical, hypervisor-owned *)
  vmcb : Hw.Vmcb.t;
  mutable asid : int;
  mutable asid_sel : Hw.Memctrl.selector;
      (** preallocated [Asid asid] for the per-access paths; kept in sync
          with [asid] *)
  mutable sev_handle : int option;
  mutable sev_protected : bool;
  mutable sev_es : bool;
      (** SEV-ES mode: register state lives in the hardware-encrypted VMSA
          across world switches (paper Section 2.2) *)
  vmsa : Hw.Vmcb.t;
      (** the encrypted save area; hardware-internal, never readable by the
          hypervisor (the simulator's Fidelius/attack code honours this) *)
  vmsa_regs : int64 array;
  mutable last_exit : Hw.Vmcb.exit_reason option;
      (** hardware-recorded exit reason (what the GHCB exchange keys off,
          immune to live-VMCB rewrites) *)
  mutable state : lifecycle;
  mutable frames : Hw.Addr.pfn list; (** host frames allocated to this domain *)
  mutable next_free_gfn : Hw.Addr.gfn;
  msrs : (int, int64) Hashtbl.t;     (** guest-visible model-specific registers *)
  dirty : Hw.Dirty.t;
      (** dirty-page log for live migration; {!write} marks touched frames
          while tracking is on. Owned by the domain (and so by whichever
          fleet job owns the domain's machine) — see SCALING.md *)
  mutable vmrun_thunk : (unit -> (unit, string) result) option;
      (** the VMRUN fetch+execute thunk for this domain, built lazily by the
          owning hypervisor's first {!Hypervisor.vmrun} so re-entry passes a
          cached closure through the vmrun gate instead of a fresh one *)
}

val create :
  Hw.Machine.t -> domid:int -> name:string -> is_dom0:bool -> asid:int -> t

val guest_map :
  t -> gvfn:Hw.Addr.vfn -> gfn:Hw.Addr.gfn ->
  writable:bool -> executable:bool -> c_bit:bool -> unit
(** Guest-side page-table update (a store into guest-owned memory). *)

val read : Hw.Machine.t -> t -> addr:int -> len:int -> bytes
(** Guest-mode memory read: two-level walk under the domain's ASID. Raises
    {!Hw.Mmu.Npt_fault} when the nested mapping is absent — callers in the
    run loop turn that into an NPF vmexit. *)

val read_into :
  Hw.Machine.t -> t -> addr:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** {!read} into [dst] at [dst_off] ({!Hw.Mmu.guest_read_sel_into}): same
    walk, faults and charges, no result allocation. *)

val write : Hw.Machine.t -> t -> addr:int -> bytes -> unit
(** Guest-mode memory store. While {!Hw.Dirty.tracking} is on for this
    domain, the guest-physical frames the store touches are marked dirty
    before the MMU applies it (live-migration pre-copy hook). *)

val alloc_gfn : t -> Hw.Addr.gfn
(** Next unused guest-physical frame number (simple bump allocator). *)
