(** The three gate types securing transitions between the hypervisor's and
    Fidelius' contexts (paper Section 4.1.3, Figure 3).

    - Type 1 (306 cycles): disable interrupts, switch stacks, clear CR0.WP —
      turning Xen's read-only views of the protected structures writable for
      the duration of a policy-checked update — then restore. The WP write
      itself goes through the monopolized [mov CR0] instance, so the
      instruction-placement invariant is exercised on every crossing. The
      simulator delivers no interrupts (event channels run their handlers
      synchronously), so the interrupt disable and the stack switch exist
      only in the 306-cycle charge.
    - Type 2 (16 cycles): the checking loop wrapped around a monopolized
      privileged instruction; pure policy cost, accounted where the
      instruction handlers run.
    - Type 3 (339 cycles): temporarily add a mapping for a normally-unmapped
      page (VMRUN, mov CR3, shadow frames, SEV metadata), run, withdraw the
      mapping and flush its TLB entry (128 of the 339 cycles). *)

module Hw = Fidelius_hw

val with_type1 : Ctx.t -> (unit -> ('a, string) result) -> ('a, string) result
(** Run a protected-resource update inside the WP-cleared window. Nested
    entry is rejected (the gate is not re-entrant). *)

val charge_type2 : Ctx.t -> unit
(** Account one checking-loop execution. *)

val with_type3 :
  Ctx.t -> pfns:Hw.Addr.pfn list -> executable:bool ->
  (unit -> ('a, string) result) -> ('a, string) result
(** Map [pfns] identity into the host space for the duration of [f], then
    withdraw and flush. [executable] selects RX (instruction pages) versus
    RW (data pages like the shadow frames). *)

val counts : Ctx.t -> int * int * int
