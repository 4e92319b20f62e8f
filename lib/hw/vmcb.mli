(** Virtual Machine Control Block.

    Holds the guest's runtime state across world switches plus the control
    fields the hypervisor uses to configure interception. On plain SEV the
    VMCB is *not* encrypted or integrity-protected — the vulnerability class
    that motivates Fidelius' shadowing (and that SEV-ES later fixed in
    hardware). The simulator therefore leaves it freely readable and
    writable by whoever holds a reference; protection is layered on by
    {!Fidelius_core.Shadow}. *)

type exit_reason =
  | Cpuid
  | Hlt
  | Vmmcall        (** hypercall *)
  | Npf            (** nested page fault; fault GPA is in exit_info2 *)
  | Ioio
  | Msr
  | Intr
  | Shutdown

val exit_reason_to_int64 : exit_reason -> int64
val exit_reason_of_int64 : int64 -> exit_reason option
val exit_reason_to_string : exit_reason -> string

type field =
  (* save area: guest state *)
  | Rip | Rsp | Rax | Cr0 | Cr3 | Cr4 | Efer
  (* control area *)
  | Exit_reason | Exit_info1 | Exit_info2
  | Intercepts | Asid | Sev_enabled | Np_enabled | Np_cr3

val fields : field list
val save_area : field list
(** The guest-state fields (confidential once SEV-ES-style protection is
    wanted). *)

val field_to_string : field -> string

type t

val create : unit -> t
(** All-zero VMCB. *)

val get : t -> field -> int64
val set : t -> field -> int64 -> unit

val nr_fields : int
(** 15. *)

val index : field -> int
(** Dense 0-based index, matching {!fields} order (save area 0–6, control
    area 7–14). *)

val field_of_index : int -> field

val get_i : t -> int -> int64
val set_i : t -> int -> int64 -> unit
(** Indexed field access for preindexed world-switch loops; moving [int64]s
    between arrays copies pointers only, so the loops allocate nothing. *)

val unsafe_get_i : t -> int -> int64
val unsafe_set_i : t -> int -> int64 -> unit
(** Unchecked variants for the per-crossing loops whose bounds are pinned
    to [0 .. nr_fields - 1]; the caller guarantees the range. *)

val snapshot_into : t -> int64 array -> unit
(** Blit all 15 fields into a caller-owned array (allocation-free). *)

val exit_reason : t -> exit_reason option
(** Decoded [Exit_reason] field. *)

(** {2 The exit exchange}

    SEV-ES's per-exit-reason register exchange (the GHCB protocol), which
    Fidelius' VMCB shadowing renders in software (paper Sections 4.2.1
    and 5.1): for each exit reason, the save-area fields and the GPRs
    whose hypervisor-written values the guest takes back at re-entry.
    Everything else comes back from the guest's own copy. One table
    serves both: the SEV-ES world switch masks and adopts by it, and
    [Fidelius_core.Shadow] verifies and restores by it. *)

val exit_reasons : exit_reason array
(** The eight exit reasons, each at its {!reason_index}. *)

val reason_index : exit_reason -> int
(** Dense 0-based index of an exit reason, for the per-reason arrays. *)

val field_mask : field list -> int
(** Bit [index f] set for each listed field. *)

val reg_mask : Cpu.reg list -> int
(** Bit [Cpu.reg_index r] set for each listed register. *)

val exchange_field_masks : int array
(** At [reason_index r], the {!field_mask} of [r]'s exchanged save-area
    fields (typically RIP advance and RAX). Read-only. *)

val exchange_reg_masks : int array
(** At [reason_index r], the {!reg_mask} of [r]'s exchanged GPRs (e.g.
    CPUID's RAX/RBX/RCX/RDX). Read-only. *)
