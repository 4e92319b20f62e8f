(** Per-domain dirty-page bitmap, the hardware hook live migration's
    pre-copy rounds are driven by.

    The MMU guest-write path marks the guest-physical frame of every store
    while tracking is on (the Xen layer's [Domain.write] is the hook point);
    the migration sender {!drain}s the set between rounds to decide what to
    resend. Tracking is off by default and {!mark} is a no-op then, so
    non-migrating guests pay one boolean test per store.

    Ownership: the bitmap lives inside the domain record, so it is owned by
    whichever fleet job owns the domain's machine — never shared across
    pool workers (see SCALING.md). *)

type t

val create : unit -> t
(** Fresh bitmap, tracking off. Grows on demand; no fixed guest size. *)

val start : t -> unit
(** Clear the bitmap and start recording guest stores. *)

val stop : t -> unit
(** Stop recording (the final stop-and-copy pause). The recorded set stays
    readable until the next {!start}. *)

val tracking : t -> bool

val mark : t -> int -> unit
(** [mark t gfn] records a store to guest-physical frame [gfn]. No-op when
    tracking is off or [gfn] is negative. *)

val drain : t -> int list
(** The dirty frames in ascending order; clears the bitmap so the next
    round accumulates afresh. *)
