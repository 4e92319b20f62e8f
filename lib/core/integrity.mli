(** Hardware-integrity extension (paper Section 8, suggestion 1).

    Builds a {!Fidelius_hw.Bmt} over a protected guest's frames and offers
    verified access paths. With this extension enabled, the physical-channel
    attacks the paper concedes (Rowhammer flips, in-place ciphertext replay
    by DMA) are *detected* instead of silently garbling guest state.

    This is deliberately layered as an extension: the baseline Fidelius of
    the paper runs without it (the hardware did not exist), and the
    `fidelius_sim ablate` section quantifies what the missing hardware
    would cost. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen

type t

val protect : Ctx.t -> Xen.Domain.t -> t
(** Build the tree over every frame currently backing the domain. The tree
    pages live with the secure processor (no frames are consumed). Also
    arms the memory controller's inline fetch check
    ({!Hw.Memctrl.set_fetch_check}): encrypted reads of covered frames are
    verified against the tree as they happen and raise
    [Hw.Denial.Denied] on mismatch, catching misrouted fetches that a
    DRAM-content sweep cannot see. One inline check per controller — the
    latest [protect] wins. *)

val verified_read :
  t -> addr:int -> len:int -> (bytes, string) result
(** Verify the integrity of every frame the range touches, then perform the
    guest-mode read. Fails closed on any mismatch. *)

val guest_write : t -> addr:int -> bytes -> unit
(** Guest-mode write through the integrity engine: performs the write and
    refreshes the affected leaves (the secure processor witnesses the
    legitimate store). *)

val verify_domain : t -> (unit, string) result
(** Full sweep over the domain's frames. *)

val bmt : t -> Hw.Bmt.t
(** The tree itself, for its counters. *)

val root : t -> bytes
val hashes_performed : t -> int
