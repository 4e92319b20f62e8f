(** The Xen-like hypervisor: boot, domain lifecycle, vmexit/vmrun world
    switching, hypercall dispatch, NPT management, grant operations.

    Every path that Fidelius mediates is routed through a replaceable hook
    (the [mediation] record): NPT and host-mapping updates, grant-table
    updates, the guest-exit and guest-entry boundaries, guest frame
    allocation/release, sharing declarations and the authority a
    guest-initiated page release runs under. The defaults implement stock
    (insecure-against-itself) Xen behaviour, so the same hypervisor code
    runs both the baseline and the protected stacks — mirroring how
    Fidelius retrofits rather than replaces Xen. The guest-initiated NPT
    changes (Enable_mem_enc, Balloon_release) have one body each, which
    runs its steps through these hooks. *)

module Hw = Fidelius_hw
module Sev = Fidelius_sev

exception Npf_unresolved of string
(** Raised by {!in_guest} when the NPF handler or re-entry is refused
    (e.g. a mediation policy denied the mapping). *)

type mediation = {
  mutable npt_update :
    Domain.t -> Hw.Addr.gfn -> Hw.Pagetable.proto option -> (unit, string) result;
  mutable host_map_update :
    Hw.Addr.vfn -> Hw.Pagetable.proto option -> (unit, string) result;
  mutable grant_update : int -> Granttab.entry option -> (unit, string) result;
  mutable on_vmexit : Domain.t -> Hw.Vmcb.exit_reason -> unit;
  mutable before_vmrun : Domain.t -> (unit, string) result;
  mutable vmrun_gate : (unit -> (unit, string) result) -> (unit, string) result;
      (** Wrapper around the VMRUN instruction fetch+execute — Fidelius'
          type-3 gate maps the instruction page just around the call. *)
  mutable on_guest_frame_alloc : Domain.t -> Hw.Addr.pfn -> unit;
  mutable on_guest_frame_release : Domain.t -> Hw.Addr.pfn -> unit;
  mutable pre_sharing :
    Domain.t -> target:int -> gfn:Hw.Addr.gfn -> nr:int -> writable:bool ->
    (unit, string) result;
  mutable balloon_release :
    Domain.t -> (unit -> (unit, string) result) -> (unit, string) result;
      (** The authority a guest-initiated page return (Balloon_release)
          clears its nested entry under: stock Xen runs the unmap as is,
          Fidelius inside a teardown window for the releasing domain, so
          the policy admits this one guest-requested unmap. The release
          itself — unmap through [npt_update], then
          [on_guest_frame_release] and the free — is the hypervisor's one
          body. *)
}

type t = {
  machine : Hw.Machine.t;
  fw : Sev.Firmware.t;
  host_space : Hw.Pagetable.t;
  granttab : Granttab.t;
  events : Event.t;
  store : Xenstore.t;
  sched : Sched.t;
  dom0 : Domain.t;
  mutable domains : Domain.t list;
  mutable next_domid : int;
  mutable next_asid : int;
  xen_text : Hw.Addr.pfn list;   (** identity-mapped hypervisor code frames *)
  med : mediation;
  mutable vmexit_count : int;
  mutable npf_count : int;
  consoles : (int, Buffer.t) Hashtbl.t;
}

val boot : Hw.Machine.t -> t
(** Bring up the platform: build the host address space (a full direct map
    of physical memory, Xen-style), place the privileged instructions in the
    hypervisor text region (several stray copies per opcode — the state the
    binary scan later cleans up), enable paging enforcement, initialize the
    SEV firmware, dom0, grant table, event channels and XenStore. *)

(** {2 Host mappings} *)

val host_read : t -> Hw.Addr.pfn -> off:int -> len:int -> bytes
(** Hypervisor-privilege read through the direct map (faults if the frame is
    unmapped from the host space). *)

val host_read_into :
  t -> Hw.Addr.pfn -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** {!host_read} into [dst] at [dst_off] ({!Hw.Mmu.read_into}). *)

val host_write : t -> Hw.Addr.pfn -> off:int -> bytes -> unit

(** {2 Domains} *)

val create_domain : t -> name:string -> memory_pages:int -> Domain.t
(** Unprotected guest: NPT fully populated up front (the paper's observation
    that Xen batches allocation at boot), guest page table identity-mapped
    without the C-bit. *)

val create_sev_domain :
  t -> name:string -> memory_pages:int -> kernel:bytes list -> (Domain.t, string) result
(** Plain-SEV guest (the baseline Fidelius improves on): LAUNCH flow over a
    plaintext-loaded kernel, then {!activate_sev}. A kernel larger than
    [memory_pages] is refused before any domain or frame is allocated. *)

val activate_sev :
  t -> Domain.t -> handle:Sev.Firmware.handle -> memory_pages:int -> (unit, string) result
(** The one way an SEV guest starts running encrypted: ACTIVATE binds
    [handle] to [dom]'s ASID, then [dom] is marked SEV-protected with
    [Sev_enabled] in its VMCB, and gvfns [0 .. memory_pages - 1] map the
    same gfns with the C-bit set. An ACTIVATE refusal is returned with
    nothing marked. *)

val enable_sev_es : t -> Domain.t -> unit
(** Switch an SEV domain into ES mode: from now on the hardware snapshots
    register state into the encrypted VMSA at every exit and ignores
    hypervisor writes outside the GHCB-sanctioned exchange (paper Section
    2.2's "SEV-ES" discussion). *)

val destroy_domain : t -> Domain.t -> unit
val find_domain : t -> int -> Domain.t option

(** {2 World switches} *)

val vmexit : t -> Domain.t -> Hw.Vmcb.exit_reason -> info1:int64 -> info2:int64 -> unit
(** Guest-to-host switch: saves guest state to the VMCB, runs the exit-side
    mediation hook, switches the CPU to host mode. *)

val vmrun : t -> Domain.t -> (unit, string) result
(** Host-to-guest switch through the VMRUN instruction (instruction-fetch
    checked, entry-side mediation first). *)

val vmrun_effect : t -> int64 -> (unit, string) result
(** The raw world-switch microcode: what a VMRUN instruction instance does
    once fetched. Exposed so Fidelius can re-home the instruction onto its
    own (normally unmapped) page after the binary scan. *)

val in_guest : t -> Domain.t -> (unit -> 'a) -> 'a
(** Run guest-side work, transparently turning NPT faults into the full
    NPF vmexit/handle/vmrun cycle and retrying. *)

val hypercall : t -> Domain.t -> Hypercall.call -> (int64, string) result
(** Complete hypercall round trip: VMMCALL vmexit, host-side dispatch,
    result in RAX, vmrun back into the guest. *)

(** {2 Guest grants} *)

val grant_pages :
  t -> Domain.t -> target:int -> gvfn:Hw.Addr.vfn -> nr:int -> writable:bool ->
  (Hw.Addr.gfn array * int array, string) result
(** The one guest grant flow (paper Section 4.3.7), behind every block,
    network and inter-VM share: [dom] maps [nr] fresh gfns at [gvfn ..]
    writable, non-executable and unencrypted, faults each in with a
    zeroing store, declares the run to [target] with one [Pre_sharing],
    then offers each page with one [Grant_access]. Returns the gfns and
    grant references in page order, or the first refused hypercall's
    error. Raises [Invalid_argument] if [nr < 1]. *)

(** {2 Instruction emulation}

    Guest-executed intercepted instructions, each a full masked world
    switch: the guest loads its arguments into registers, exits, the
    hypervisor emulates (seeing only the exit reason's visible registers)
    and updates the reason's updatable set, and the guest reads the result
    after re-entry. *)

val cpuid : t -> Domain.t -> leaf:int -> (int64 * int64 * int64 * int64, string) result
(** Leaves emulated: 0 (vendor), 1 (features; bit 25 of ECX = AES-NI),
    0x8000001F (AMD SEV feature leaf: EAX bit 1 = SEV when the domain is
    SEV-protected). Unknown leaves read as zeros. *)

val rdmsr : t -> Domain.t -> msr:int -> (int64, string) result
(** EFER (0xC0000080) reflects the architectural state; other MSRs come
    from the domain's MSR store (0 when never written). *)

val wrmsr_guest : t -> Domain.t -> msr:int -> int64 -> (unit, string) result
(** Guest MSR write; the hypervisor refuses EFER rewrites (it would let a
    compromised guest kernel be confused about NX semantics). *)

(** {2 Introspection} *)

val console : t -> int -> string
val stats : t -> int * int
(** (vmexits, nested page faults). *)
