(** Simulated physical DRAM.

    Pages hold whatever the memory controller stored: for C-bit traffic that
    is ciphertext. The raw accessors model *physical* access channels —
    cold-boot dumps, bus snooping, DMA — which bypass the CPU's encryption
    engine and therefore see ciphertext for protected pages and plaintext for
    unprotected ones, exactly the distinction the paper's hardware threat
    model rests on. *)

type t

val create : nr_frames:int -> t
(** Fresh memory of [nr_frames] pages, every one reading as zeros. The
    backing is one [nr_frames * page_size] block that [create] allocates
    but touches no page of: each frame starts blank, and the first
    accessor below that reads it or hands it out zeroes that frame alone.
    Zeroing a blank frame changes no byte a reader can see, so it moves
    no {!stamp}. *)

val nr_frames : t -> int

val reset : t -> unit
(** Make every frame read as zeros again, indistinguishable from a fresh
    [create ~nr_frames] result. The arena-reuse primitive behind
    [Machine.create ?mem]: a fleet worker resets one backing per job
    instead of allocating (and garbage-collecting) 32 MiB of pages per
    simulated machine. Only a frame whose {!stamp} has ever moved can hold
    a nonzero byte, so the reset marks those frames blank (moving their
    stamps again) and writes no frame byte; each is zeroed when next
    touched, like a fresh frame. The bytes of a {!view} taken before the
    reset are stale after it. Not thread-safe against concurrent users of
    the same [t] — the caller owns the backing exclusively across the
    reset (the per-worker arena discipline guarantees this). *)

val stamp : t -> Addr.pfn -> int
(** The frame's write stamp. It moves on every path that can change the
    frame's bytes — {!page_for_write}, {!write_raw}, {!flip_bit},
    {!scrub}, and {!reset} of a written frame — and on no other, and it
    never moves back. So a frame that shows the same stamp twice holds
    the same bytes at both times: the on-die integrity engine ({!Bmt})
    keys its stored leaf digests on it. Reads no frame byte, as
    {!nr_frames} does not. *)

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

val base : Addr.pfn -> int
(** Where frame [pfn]'s first byte sits in the block {!view} and
    {!page_for_write} return: byte [off] of the frame is byte
    [base pfn + off] of the block. *)

val view : t -> Addr.pfn -> off:int -> len:int -> bytes
(** The whole backing block, shared, {e for reading only} the range
    [off, off + len) of frame [pfn], at [base pfn + off]. The range is
    checked as {!read_raw} checks it, so a caller that would run off its
    page raises [Invalid_argument] instead of reading a neighbouring
    frame; a blank frame is zeroed first. The bytes change under the
    holder as the frame is written, and writing through them would change
    the frame without moving its {!stamp}. Reserved for the memory
    controller, the page-table walkers and the on-die integrity engine
    ({!Bmt} hashes frames without a cold-boot copy); everything else goes
    through the raw/MMU paths. *)

val page_for_write : t -> Addr.pfn -> off:int -> len:int -> bytes
(** The same block for an in-place store to the range [off, off + len)
    of frame [pfn], checked as {!view} checks it: moves the frame's
    {!stamp}, then hands the block out. The caller writes only inside
    that range, before it returns, and keeps no reference afterwards — a
    write made later would land after the stamp moved and go unseen.
    Reserved for the in-place writers of the memory controller, page
    tables, the PIT and the VMCB shadow. *)

val flip_bit : t -> Addr.pfn -> off:int -> bit:int -> unit
(** Rowhammer-style disturbance: flip one bit in place. *)

val dump : t -> Addr.pfn -> bytes
(** Cold-boot image of a page (copy). *)
