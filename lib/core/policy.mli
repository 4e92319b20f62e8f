(** Policy enforcement (paper Section 5).

    These checks run inside Fidelius' context (behind a gate) whenever the
    hypervisor asks to update a protected resource. Denials are returned as
    [Error] and logged to the audit trail.

    The NPT policy encodes the paper's anti-replay/anti-remap rule
    mechanically: a nested entry may be *filled* only with a frame the PIT
    records as owned by that domain and not yet mapped, may have its
    permissions changed only if the target frame is unchanged, and may be
    *re-pointed or cleared* only during a Fidelius-initiated teardown.
    Cross-domain mappings are allowed solely when a grant-table entry and a
    matching GIT intent authorize them. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen

val check_npt_update :
  Ctx.t -> Xen.Domain.t -> Hw.Addr.gfn -> Hw.Pagetable.proto option ->
  (unit, string) result
(** Validate (and on success, maintain PIT validity bits for) one nested
    page-table update for [dom]. *)

val check_host_map_update :
  Ctx.t -> Hw.Addr.vfn -> Hw.Pagetable.proto option -> (unit, string) result
(** Validate a change to the hypervisor's own address space: W^X, no
    writable views of page-table/grant/NPT/code frames, no views at all of
    Fidelius data or protected-guest memory (boot-window excepted). *)

val check_grant_update :
  Ctx.t -> int -> Xen.Granttab.entry option -> (unit, string) result
(** Validate a grant-table entry against the GIT (protected initiators
    only; unprotected domains keep stock semantics). *)

val check_cr0 : Ctx.t -> int64 -> (unit, string) result
(** PG and WP may never be cleared by the hypervisor (Table 2). This check
    and the two below read the operand through {!Hw.Insn}'s decoders, the
    same ones the instruction's effect ({!Hw.Insn.apply}) runs after it. *)

val check_cr4 : Ctx.t -> int64 -> (unit, string) result
(** SMEP may never be cleared. *)

val check_efer : Ctx.t -> int64 -> (unit, string) result
(** NXE may never be cleared. *)

val check_cr3 : Ctx.t -> int64 -> (unit, string) result
(** The target must be the valid host address space. *)

val write_once_range :
  Ctx.t -> region:string -> off:int -> len:int -> (unit, string) result
(** The write-once policy for a named page-sized region (start_info), as
    the paper implements it: "a bit-vector to record specific memory
    regions with one bit per byte" (Section 5.3). Disjoint first-time
    writes to a region succeed; any byte written twice is denied and
    audited, and so is any range that leaves the page, however large
    [off] is. *)

val exec_once : Ctx.t -> what:string -> (unit, string) result
(** Execute-once policy for lgdt/lidt-class instructions. *)
