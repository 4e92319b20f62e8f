(** Guest runtime-state shadowing — Fidelius' software rendering of SEV-ES
    (paper Sections 4.2.1 and 5.1).

    On every vmexit Fidelius copies the VMCB and general-purpose registers
    into a private frame that is unmapped from the hypervisor, then masks
    the live copies down to the fields the exit reason legitimately needs.
    Before VMRUN it verifies the hypervisor's modifications against the
    shadow — only the exit reason's exchange ({!Hw.Vmcb.exchange_field_masks},
    {!Hw.Vmcb.exchange_reg_masks}, the table the SEV-ES world switch uses)
    may differ — and restores every other register from the shadow. The
    registers and fields left unmasked for the hypervisor follow the exit
    reason too (e.g. CPUID leaves exactly RAX/RBX/RCX/RDX, paper Section
    5.1). *)

module Hw = Fidelius_hw

val protected_fields : Hw.Vmcb.field list
(** Fields verified against the shadow whenever outside the exchange:
    the save area plus the critical control bits (ASID, NP_CR3,
    SEV_ENABLED, NP_ENABLED, INTERCEPTS). *)

type t

val create : backing:Hw.Addr.pfn -> t
(** The shadow lives in [backing], a Fidelius-private frame. *)

val backing : t -> Hw.Addr.pfn

val capture : t -> Hw.Machine.t -> Hw.Vmcb.t -> Hw.Vmcb.exit_reason -> unit
(** Exit side: snapshot VMCB + GPRs into the backing frame, then mask the
    live VMCB save area and registers per the exit reason. *)

val verify_and_restore :
  t -> Hw.Machine.t -> Hw.Vmcb.t -> (unit, string) result
(** Entry side: compare the live VMCB against the shadow (modulo the
    captured exit reason's exchange); on success, restore every field and
    register outside the exchange from the shadow and return. On
    tampering, return [Error] naming the field. *)

val has_capture : t -> bool
(** Whether a vmexit capture is pending re-entry. *)
