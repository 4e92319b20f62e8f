(** Physically-indexed cache holding plaintext.

    On SEV hardware, cache lines hold plaintext; the encryption engine sits
    between cache and DRAM. This is what enables the inter-VM remapping
    attack the paper describes (Section 6.2, "Breaking memory privacy"): if
    the hypervisor maps a victim's frame into a conspirator VM's NPT while
    the victim's plaintext line is still resident, the conspirator's read
    hits in cache and sees plaintext despite having the wrong key.

    The model keys lines by physical block address only (no ASID tag —
    matching the attack's premise), with a bounded line count and FIFO
    eviction. The store grows with what is cached, up to the capacity,
    and a steady-state fill or probe allocates nothing. *)

type t

val create : ?nr_lines:int -> Cost.ledger -> t
(** [nr_lines] bounds the resident lines: by default 4096 lines of 16 B,
    64 KiB of plaintext. Raises [Invalid_argument] unless it is
    positive. *)

val fill : t -> Addr.pfn -> block:int -> bytes -> unit
(** Record the plaintext of a 16-byte block after a CPU access. *)

val fill_from : t -> Addr.pfn -> block:int -> bytes -> src_off:int -> unit
(** [fill] reading the block at [src_off] of a larger span — same ledger
    effect, no per-block [Bytes.sub] at the call site. A full cache evicts
    its oldest live line first. *)

val probe_into : t -> Addr.pfn -> block:int -> dst:bytes -> dst_off:int -> bool
(** A hit blits the resident plaintext into [dst] at [dst_off] and returns
    [true] — regardless of who asks. A miss touches nothing and charges
    nothing. *)

val frame_resident : t -> Addr.pfn -> bool
(** [true] iff at least one line of the frame is resident. A probe miss has
    no ledger effect, so callers may skip whole probe loops when this is
    [false] without changing charged costs or observable bytes. *)

val invalidate_page : t -> Addr.pfn -> unit
(** WBINVD-style eviction of all lines of a frame (used when ownership
    changes hands under Fidelius policy). Probes only the span between
    the lowest and the highest block filled since the frame last had no
    line resident, and stops once the frame's resident count is
    exhausted: O(1) for a frame with nothing cached. *)

val resident : t -> int

val order_live : t -> int
(** Number of FIFO-queued keys whose line is still resident. The eviction
    discipline keeps [order_live t = resident t] at all times (ghost keys
    left by {!invalidate_page} are purged lazily and never counted). *)

val order_length : t -> int
(** Raw FIFO length, including not-yet-purged ghosts. *)
