(** Bonsai Merkle Tree memory-integrity engine — the paper's first hardware
    suggestion (Section 8: "Hardware-based integrity checking... can be
    addressed by integrating a Bonsai Merkle Tree to enable hardware-based
    integrity in the secure processor").

    A binary hash tree over a chosen set of physical frames. Leaf hashes
    bind the frame number to its contents; the root lives inside the secure
    processor where software cannot reach it. A verified read recomputes the
    leaf and its path: any physical tampering — Rowhammer flips, DMA
    overwrites, ciphertext replay-in-place — is detected rather than
    silently consumed, closing the integrity gap the paper concedes for
    plain SEV ("Fidelius cannot strictly eradicate this malevolent bit
    flipping").

    Verification charges the cost model per hash recomputed, so the
    integrity ablation (`fidelius_sim ablate`) can weigh the protection
    against its overhead.

    The tree records, with each stored leaf, the {!Physmem.stamp} its frame
    carried when the leaf was hashed. A frame's stamp moves on every path
    that can change its bytes, so while the stamp stands the page's hash
    is the stored leaf, and the host reuses it instead of re-hashing 4 KiB.
    This changes no charge and no counter of the model: only
    {!page_hashes_computed} sees it. *)

type t

val create : Machine.t -> frames:Addr.pfn list -> t
(** Build the tree over [frames] (their *current* contents become the
    trusted state). Raises [Invalid_argument] on an empty list. *)

val root : t -> bytes
(** The 32-byte root — conceptually register state of the secure processor,
    exposed read-only for attestation. *)

val covered : t -> Addr.pfn -> bool

val verify : t -> Addr.pfn -> (unit, string) result
(** Recompute the frame's leaf and path and compare against the root.
    [Error] names the frame on mismatch. Frames outside the tree fail
    closed. Every level is walked and charged, the leaf as a page hash;
    the host computes that page hash only when the frame's
    {!Physmem.stamp} has moved since the engine stored its leaf —
    otherwise the hash would reproduce the stored leaf, which stands in
    for it (see {!page_hashes_computed}). *)

val verify_all : t -> (unit, string) result
(** Whole-tree sweep (boot-time or attestation-time check). *)

val verify_fetched : t -> Addr.pfn -> data:bytes -> (unit, string) result
(** Inline check of the page [data] a fetch actually returned: hash it and
    compare against the stored level-0 digest for [pfn] — O(1) hashes per
    fetch, the way real BMT engines check a fill. Unlike {!verify} this
    catches misrouted fetches (address-aliasing/remap faults) where DRAM
    still holds pristine bytes but the bus delivered another frame's.
    [data] may be any bytes, so the host always hashes them.

    {b Trust argument.} Comparing against the stored leaf is as strong as
    rewalking to the root: the leaf digests, interior nodes and root are
    the engine's own on-die state, mutated only through {!create} /
    {!update} / {!update_many} — software and physical attack channels
    (DMA, Rowhammer, bus interposers) reach DRAM but never this state. A
    fetch that mismatches its trusted leaf is detected directly; a fetch
    that matches it is exactly what the root already commits to, since
    every interior node was computed by the engine from these leaves under
    a collision-resistant hash. The root walk only adds value if interior
    state could be corrupted independently — a channel outside the threat
    model, and one {!verify}/{!verify_all} still cover for attestation.

    Modeled as the engine's parallel verification pipeline: charges no
    cycles and does not count toward {!hashes_performed} (it has its own
    {!fetch_hashes_performed} counter), so enabling it leaves the
    ablation's explicit verify costs untouched. *)

val verify_fill : t -> Addr.pfn -> src:Addr.pfn -> (unit, string) result
(** The memory controller's form of {!verify_fetched}: a fetch requested
    frame [pfn] and read frame [src]'s DRAM (they differ under an aliased
    address decode), and the check hashes those bytes. When [src = pfn]
    and the frame still carries the {!Physmem.stamp} its stored leaf was
    hashed at, the bytes are the ones that leaf was hashed from, so the
    host skips the hash and the check passes. Bytes from any other frame
    are always hashed, so a misrouted fill still fails closed. Counts one
    {!fetch_hashes_performed} either way. *)

val update : t -> Addr.pfn -> unit
(** Recompute the path after an *authorized* write to the frame (the secure
    processor witnesses legitimate writes; attackers cannot call this —
    physical channels bypass the CPU entirely). Equivalent to
    [update_many t [pfn]]. *)

val update_many : t -> Addr.pfn list -> unit
(** Batched {!update} after a multi-frame write: refreshes every dirty
    leaf, then rebuilds each affected interior node exactly once per batch
    — shared ancestors are hashed once, not once per frame, so a k-page
    contiguous write costs k leaf hashes plus the union of the k paths
    instead of k full paths. The resulting tree is bit-identical to
    sequential {!update}s; duplicates and uncovered frames are ignored. *)

val hashes_performed : t -> int
(** Total charged leaf+node hash computations so far, for the ablation.
    A leaf is counted whether or not the host computed it. *)

val fetch_hashes_performed : t -> int
(** Total modelled inline fetch-check hashes — exactly one per
    {!verify_fetched} or {!verify_fill} call on a covered frame,
    regardless of tree size. This is the engine's work in the model, not
    the host's: see {!page_hashes_computed}. *)

val page_hashes_computed : t -> int
(** Page hashes the host actually computed: every leaf hash of {!create},
    {!update} and {!update_many}, each {!verify} of a frame whose stamp
    moved since its leaf was stored, and each fetch check that hashed.
    Host-independent and exact; it differs from the modelled counters
    above only by the hashes the stored leaves stood in for. *)
