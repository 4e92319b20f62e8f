(** Simulated physical DRAM.

    Pages hold whatever the memory controller stored: for C-bit traffic that
    is ciphertext. The raw accessors model *physical* access channels —
    cold-boot dumps, bus snooping, DMA — which bypass the CPU's encryption
    engine and therefore see ciphertext for protected pages and plaintext for
    unprotected ones, exactly the distinction the paper's hardware threat
    model rests on. *)

type t

val create : nr_frames:int -> t
(** Fresh zeroed memory of [nr_frames] pages. *)

val nr_frames : t -> int

val reset : t -> unit
(** Zero the backing in place, making it byte-identical to a fresh
    [create ~nr_frames] result. The arena-reuse primitive behind
    [Machine.create ?mem]: a fleet worker resets one backing per job
    instead of allocating (and garbage-collecting) 32 MiB of pages per
    simulated machine. Only a frame whose {!stamp} has ever moved can hold
    a nonzero byte, so the reset zeroes those frames (moving their stamps
    again) and costs what earlier machines on this backing touched. Not
    thread-safe against concurrent users of the same [t] — the caller
    owns the backing exclusively across the reset (the per-worker arena
    discipline guarantees this). *)

val stamp : t -> Addr.pfn -> int
(** The frame's write stamp. It moves on every path that can change the
    frame's bytes — {!page_for_write}, {!write_raw}, {!flip_bit},
    {!scrub}, and {!reset} of a written frame — and on no other, and it
    never moves back. So a frame that shows the same stamp twice holds
    the same bytes at both times: the on-die integrity engine ({!Bmt})
    keys its stored leaf digests on it. *)

val read_raw : t -> Addr.pfn -> off:int -> len:int -> bytes
(** Physical-channel read (no decryption). Raises [Invalid_argument] when the
    range leaves the page or the frame is out of bounds, for any [off] and
    [len], [max_int] and [min_int] included; every accessor below checks
    its range the same way. *)

val read_raw_into : t -> Addr.pfn -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** {!read_raw} into a caller-provided buffer: no result allocation. *)

val write_raw : t -> Addr.pfn -> off:int -> bytes -> unit
(** Physical-channel write (e.g. a DMA device or a Rowhammer flip). *)

val scrub : t -> Addr.pfn -> unit
(** Zero one frame in place (the allocator's scrub-on-free). *)

val view : t -> Addr.pfn -> bytes
(** The backing store of one page, shared, {e for reading only}: the
    bytes change under the holder as the frame is written, and writing
    through them would change the frame without moving its {!stamp}.
    Reserved for the memory controller, the page-table walkers and the
    on-die integrity engine ({!Bmt} hashes frames without a cold-boot
    copy); everything else goes through the raw/MMU paths. *)

val page_for_write : t -> Addr.pfn -> bytes
(** The same shared bytes for an in-place store: moves the frame's
    {!stamp}, then hands them out. The caller writes through them before
    it returns and keeps no reference afterwards — a write made later
    would land after the stamp moved and go unseen. Reserved for the
    in-place writers of the memory controller, page tables, the PIT and
    the VMCB shadow. *)

val flip_bit : t -> Addr.pfn -> off:int -> bit:int -> unit
(** Rowhammer-style disturbance: flip one bit in place. *)

val dump : t -> Addr.pfn -> bytes
(** Cold-boot image of a page (copy). *)
