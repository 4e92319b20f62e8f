(** The attack catalogue (paper Section 6 plus the surfaces of Section 2.2).

    Each attack probes one architectural channel; {!Runner} executes the
    whole catalogue against the plain-SEV baseline and the Fidelius stack
    and tabulates the outcomes. *)

val all : Surface.attack list

val hardware : Surface.attack list
(** The physical-channel subset (cold boot, bus snoop, Rowhammer, DMA). *)

val host_software : Surface.attack list
(** The malicious-hypervisor subset. *)
