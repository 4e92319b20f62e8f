(** Permission-checked memory access: the only software path to memory and
    to page-table updates.

    Host accesses honour the x86 supervisor rules the paper's gates rely on:
    a write to a read-only page faults when CR0.WP is set and is silently
    permitted when it is clear (which is exactly what the type-1 gate
    toggles); instruction fetch requires an executable mapping.

    Guest accesses perform the two-level walk — guest page table (GVA to
    GPA, carrying the C-bit) then nested page table (GPA to HPA) — and route
    through the memory controller under the guest's ASID key when the C-bit
    is set. A missing or insufficient NPT entry raises {!Npt_fault}, the
    event that becomes an NPF vmexit.

    The plaintext cache sits in front of the controller: encrypted accesses
    fill it, and *every* read probes it first, reproducing the inter-VM
    remap leak of the paper's Section 6.2. *)

type access = Read | Write | Exec

exception Fault of { space : int; vfn : Addr.vfn; access : access; reason : string }
(** Host-side page fault (the event Fidelius' fault handler mediates). *)

exception Npt_fault of { domid : int; gfn : Addr.gfn; access : access }

val read : Machine.t -> Pagetable.t -> addr:int -> len:int -> bytes
(** Host read (may span pages). Probes the plaintext cache per block. *)

val read_into :
  Machine.t -> Pagetable.t -> addr:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** {!read} into [dst] at [dst_off] — same walk, charges and trace events,
    no result allocation. Raises [Invalid_argument] before touching memory
    when [dst_off, len] does not fit in [dst]. *)

val write : Machine.t -> Pagetable.t -> addr:int -> bytes -> unit
(** Host write; faults on read-only mappings while CR0.WP is set. *)

val exec_ok : Machine.t -> Pagetable.t -> Addr.vfn -> bool
(** Would instruction fetch from this page succeed (present, executable,
    honouring EFER.NXE)? *)

val wx_ok : Machine.t -> Pagetable.t -> Addr.vfn -> bool
(** Is the page simultaneously writable and executable (the code-injection
    precondition)? *)

val set_pte :
  Machine.t ->
  space:Pagetable.t -> table:Pagetable.t -> Addr.vfn -> Pagetable.proto option -> unit
(** Update one entry of [table], acting from address space [space]. The
    store targets the page-table-page that holds the entry, so it faults
    unless [space] holds a writable mapping of that frame — or holds any
    mapping while CR0.WP is clear. Flushes the affected TLB entry. Before
    [Machine.enforce_paging] is set (early boot), the check is waived and
    the store and its flush are charged as ever but emit no trace event:
    their caller records the whole phase as one [Mark]. *)

val set_pte_packed :
  Machine.t -> space:Pagetable.t -> table:Pagetable.t -> Addr.vfn -> int -> unit
(** {!set_pte} taking a {!Pagetable.lookup_packed}-style packed entry
    ({!Pagetable.packed_absent} clears) — the gates' PTE toggles precompute
    their packed values once, so the per-crossing store allocates
    nothing. *)

val set_pte_run :
  Machine.t ->
  space:Pagetable.t -> table:Pagetable.t -> Addr.vfn -> int -> (Addr.vfn -> int) -> unit
(** [set_pte_run m ~space ~table vfn count entry] is
    [set_pte_packed m ~space ~table v (entry v)] for each [v] from [vfn]
    to [vfn + count - 1], in order, for the stores early boot makes
    before [Machine.enforce_paging] is set: the same table bytes, backing
    frames, reverse index, TLB contents and ledger. With no inject plan
    armed it stores through {!Pagetable.hw_set_run} (each page-table
    page's stamp moves once) and books the run's [pte-write] and
    [tlb-flush] charges in one charge each; with one armed it stores
    entry by entry through {!set_pte_packed}, so the plan fires on the
    same flush at the same ledger total. Raises [Invalid_argument] once
    paging is enforced. *)

val check_frame_writable : Machine.t -> space:Pagetable.t -> Addr.pfn -> unit
(** The store-permission rule applied to a physical frame: the acting space
    must hold a writable mapping of it, or any mapping while CR0.WP is
    clear. Raises {!Fault} otherwise (no-op before paging enforcement).
    Shared by PTE updates and grant-table updates — both are just memory
    stores into protected frames. *)

val guest_translate :
  Machine.t ->
  domid:int -> gpt:Pagetable.t -> npt:Pagetable.t -> asid:int -> access -> int ->
  Addr.pfn * Memctrl.selector
(** Two-level walk; returns the host frame and the effective encryption
    selector: the guest C-bit selects the guest's ASID key and takes
    priority over the nested-table C-bit, which selects the host SME key
    (paper Section 2.1). Raises {!Fault} for guest-page-table misses and
    {!Npt_fault} for nested misses/permission shortfalls. *)

val guest_read_sel :
  Machine.t ->
  domid:int -> gpt:Pagetable.t -> npt:Pagetable.t -> asid_sel:Memctrl.selector ->
  addr:int -> len:int -> bytes

val guest_write_sel :
  Machine.t ->
  domid:int -> gpt:Pagetable.t -> npt:Pagetable.t -> asid_sel:Memctrl.selector ->
  addr:int -> bytes -> unit
(** Guest read and write through {!guest_translate}'s two-level walk and
    the plaintext cache. The caller supplies the selector used for
    guest-C-bit traffic (normally its cached [Memctrl.Asid asid]), so the
    per-access path does not allocate one. *)

val guest_read_sel_into :
  Machine.t ->
  domid:int -> gpt:Pagetable.t -> npt:Pagetable.t -> asid_sel:Memctrl.selector ->
  addr:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** {!guest_read_sel} into [dst] at [dst_off], with {!read_into}'s range
    check. {!guest_read_sel} is this plus the result buffer. *)

val read_frame_as :
  Machine.t -> sel:Memctrl.selector -> Addr.pfn -> off:int -> len:int -> bytes
(** CPU read of a physical frame under an explicit selector, probing the
    cache. This is the primitive behind "the hypervisor maps the victim's
    frame and reads it": plain reads of encrypted frames return ciphertext
    from DRAM — unless a plaintext line is still cache-resident. *)
