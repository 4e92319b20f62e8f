(** Block-cipher modes of operation built on {!Aes}.

    - ECB: no library caller. The tests use it to cross-check the bulk
      block entry point on every AES tier, and the bechamel bench times
      it ([ecb-4KiB]).
    - CTR: stream encryption of arbitrary-length buffers; used for the
      transport encryption (TEK) of SEV SEND/RECEIVE images, the
      key-wrapping primitive, and both firmware I/O codecs.
    - XEX: tweakable per-block mode keyed by a 64-bit tweak. This is how the
      memory-controller engine binds ciphertext to the physical address, so
      moving ciphertext between physical locations (a remap/replay splice)
      decrypts to garbage — the property AMD's SME physical-address tweak
      provides.

    Every function here is deterministic — output depends only on the
    key, tweak/nonce and input bytes. Since the hardware-backend work the
    production functions are thin wrappers over the bulk {!Aes} entry
    points (one C call per multi-block run); the pre-backend per-block
    OCaml loops are kept as the [*_reference] executable specification the
    test suite cross-checks every backend against. Outputs are
    byte-identical across backends. The thread-safety rule is unchanged:
    concurrent calls on one {!Aes.key} from two domains are a data race
    (see {!Aes.key}); give each domain its own expanded key. *)

val ecb_encrypt : Aes.key -> bytes -> bytes
(** Length must be a multiple of 16. *)

val ecb_decrypt : Aes.key -> bytes -> bytes

val ctr_transform : Aes.key -> nonce:int64 -> bytes -> bytes
(** [ctr_transform k ~nonce data] encrypts or decrypts (the operation is an
    involution) a buffer of any length. The counter block is
    [nonce || block_index]. *)

val xex_encrypt : Aes.key -> tweak:int64 -> bytes -> bytes
(** Length must be a multiple of 16; each 16-byte block is whitened with an
    encrypted tweak derived from [tweak + block_index]. *)

val xex_decrypt : Aes.key -> tweak:int64 -> bytes -> bytes

val xex_encrypt_into :
  Aes.key -> tweak:int64 -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Allocation-light XEX for the memory-controller hot path: block [i] of the
    span is whitened with [AES_k(tweak + i)]. [len] must be a multiple of 16.
    [src] and [dst] may be the same buffer at the same offset. *)

val xex_encrypt_span :
  Aes.key ->
  tweak0:int64 -> tweak_step:int64 ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Span-granular XEX: block [i] is whitened with
    [AES_k(tweak0 + i * tweak_step)]. A whole page (or any multi-block run)
    whose per-block tweaks advance by a fixed stride — e.g. the memory
    controller's physical-block-address tweak, stride 16 — is processed in
    one call with a single reused tweak/mask buffer pair, bit-identically to
    the equivalent per-block loop. [len] must be a multiple of 16. *)

val xex_decrypt_span :
  Aes.key ->
  tweak0:int64 -> tweak_step:int64 ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit

val xex_encrypt_sectors :
  Aes.key ->
  tweak0:int64 -> sector_stride:int64 -> sector_bytes:int ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> nsectors:int -> unit
(** Sector-granular XEX: [nsectors] tiles of [sector_bytes], tile [i]'s
    tweak restarting at [tweak0 + i * sector_stride] and stepping by 1 per
    block inside the tile. This is the disk-codec tweak layout (each sector
    owns its own tweak lane), which is not a single affine progression —
    hence a dedicated bulk call rather than {!xex_encrypt_span}. One C call
    for a whole batch of sectors, byte-identical to the per-sector loop. *)

val xex_decrypt_sectors :
  Aes.key ->
  tweak0:int64 -> sector_stride:int64 -> sector_bytes:int ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> nsectors:int -> unit

(** {2 Executable specification}

    The pre-backend per-block OCaml loops, built on the {!Aes} reference
    block functions. Semantically identical to the production functions
    above; used by the test suite to cross-check whichever C backend is
    active. *)

val ecb_encrypt_reference : Aes.key -> bytes -> bytes
val ecb_decrypt_reference : Aes.key -> bytes -> bytes
val ctr_transform_reference : Aes.key -> nonce:int64 -> bytes -> bytes

val xex_encrypt_span_reference :
  Aes.key ->
  tweak0:int64 -> tweak_step:int64 ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit

val xex_decrypt_span_reference :
  Aes.key ->
  tweak0:int64 -> tweak_step:int64 ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit

val xex_encrypt_sectors_reference :
  Aes.key ->
  tweak0:int64 -> sector_stride:int64 -> sector_bytes:int ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> nsectors:int -> unit

val xex_decrypt_sectors_reference :
  Aes.key ->
  tweak0:int64 -> sector_stride:int64 -> sector_bytes:int ->
  src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> nsectors:int -> unit
