(** AES-128 block cipher (FIPS-197), implemented from scratch.

    This is the cryptographic core behind every encryption engine in the
    simulator: the SME/SEV memory-controller engine ({!Fidelius_hw.Memctrl}),
    the simulated AES-NI instruction path and the software-AES fallback used
    by the I/O-protection ablation. Correctness is pinned to the FIPS-197
    appendix test vectors in the test suite.

    Since the hardware-backend work the module is two-layered: the OCaml
    T-table implementation is kept as the executable specification
    ([*_reference] entry points), while the production entry points
    dispatch to C cores in [aes_stubs.c] — VAES, AES-NI (pipelined eight
    blocks per call) or a portable C fallback, probed once from CPUID at
    startup. Every backend is cross-checked against the reference by the
    test suite, and all of them produce byte-identical output: switching
    backend (or machine) never changes ciphertext, only wall-clock time. *)

type key
(** An expanded AES-128 key schedule: 44 encryption round-key words plus the
    equivalent-inverse-cipher decryption schedule (InvMixColumns pre-applied
    to rounds 1..9), kept both as flat int arrays for the reference T-table
    block functions and serialized into a 352-byte buffer the C backends
    load their round keys from.

    Thread-safety: the C backends keep no per-key scratch — their working
    state lives in registers and the C stack, and the only globals are the
    lookup tables and the backend-selection word, both written once at
    startup — but the {e reference} path still carries a small mutable
    scratch state reused across calls, and {!set_backend} mutates the
    process-wide selection. So the rule stays: a [key] must never be shared
    between domains, and {!set_backend} belongs in single-domain test code
    only. Under the fleet runner ([Fidelius_fleet.Pool]) this holds by
    construction — every shard builds its own machine, whose engines
    {!expand} their own keys; only hand a key to another domain if the
    expanding domain never touches it again. *)

val block_size : int
(** Block size in bytes (16). *)

val expand : bytes -> key
(** [expand raw] expands a 16-byte key — in OCaml for the reference
    schedule and in C (with [aeskeygenassist] on the hardware tiers) for
    the backend schedule; the two are byte-identical. Raises
    [Invalid_argument] on a wrong key length. *)

val encrypt_block : key -> bytes -> bytes
(** [encrypt_block k plain] encrypts one 16-byte block. Raises
    [Invalid_argument] on a wrong block length. *)

val decrypt_block : key -> bytes -> bytes
(** Inverse of {!encrypt_block}. *)

val encrypt_block_into : key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
(** Allocation-free variant used on the hot memory-controller path.
    [src] and [dst] may be the same buffer at the same offset. *)

val decrypt_block_into : key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit

(** {2 Bulk entry points}

    One C call per multi-block run; {!Modes} builds ECB, CTR and XEX on
    these. All offsets/lengths are validated here — the C side trusts its
    caller. [src] and [dst] may be the same buffer at the same offset. *)

val blocks_into :
  key -> encrypt:bool -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> nblocks:int -> unit
(** ECB over [nblocks] consecutive 16-byte blocks. *)

val ctr_into :
  key -> nonce:int64 -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** CTR keystream XOR of [len] bytes of [src] from [src_off] into [dst]
    from [dst_off] (any length; the counter block is
    [nonce || block_index], both big-endian, and restarts at 0 for the
    first byte of the run). *)

val xex_span_into :
  key -> encrypt:bool -> tweak0:int64 -> tweak_step:int64 ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Span-granular XEX: block [i] is whitened with
    [AES_k(tweak0 + i * tweak_step || tag)] before and after the block
    cipher. The tweak masks are generated, applied and discarded inside the
    single C call — this is the memory controller's per-page fast path.
    [len] must be a multiple of 16. *)

val xex_sectors_into :
  key -> encrypt:bool -> tweak0:int64 -> sector_stride:int64 -> sector_bytes:int ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> nsectors:int -> unit
(** Sector-granular XEX: [nsectors] consecutive tiles of [sector_bytes]
    each, where tile [i]'s tweak restarts at [tweak0 + i * sector_stride]
    and advances by 1 per block inside the tile — the disk-codec layout
    (each 512-byte sector owns a 64-wide tweak lane). The tile sequence is
    not one affine tweak progression, so it cannot ride {!xex_span_into};
    this runs a whole batch of sectors in one C call. [sector_bytes] must
    be a positive multiple of 16. *)

(** {2 Executable specification}

    The original OCaml T-table implementation, kept as the reference the
    test suite cross-checks every C backend against. Not used on hot
    paths. *)

val encrypt_block_reference : key -> bytes -> bytes
val decrypt_block_reference : key -> bytes -> bytes

val encrypt_block_reference_into :
  key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit

val decrypt_block_reference_into :
  key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit

(** {2 Backend introspection} *)

val backend : unit -> string
(** The active C backend: ["vaes"], ["aes-ni"] or ["c-portable"].
    Selected once from CPUID at startup. *)

val set_backend : [ `Auto | `Vaes | `Aesni | `Portable ] -> bool
(** Force a backend, for tests and diagnostics. Returns [false] (leaving
    the selection unchanged) if the requested tier is not available on this
    CPU. [`Auto] re-probes and always succeeds. Process-wide — see the
    thread-safety note on {!key}. *)

val cpu_features : unit -> string list
(** CPUID feature flags relevant to crypto backend selection, e.g.
    [["aes"; "ssse3"; "sse4.1"; "avx2"; "vaes"; "sha"; "ymm-os"]]. *)

val schedule_words : key -> int array
(** The 44 expanded encryption round-key words (big-endian packed), exposed
    so the FIPS-197 Appendix A key-expansion vectors can be checked in the
    test suite. Returns a copy. *)

val schedule_bytes : key -> bytes
(** The 352-byte serialized schedule the C backends use (encryption rounds
    at 0..175, equivalent-inverse-cipher decryption rounds at 176..351),
    exposed so the test suite can check the C key expansion against the
    OCaml one. Returns a copy. *)
