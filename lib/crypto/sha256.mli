(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for SEV launch/send measurements, the Fidelius late-launch integrity
    measurement of the hypervisor text section, the BMT integrity tree's leaf
    and node hashes, and as the compression function behind {!Hmac} and the
    {!Dh} KDF.

    The implementation is the hash-side analogue of the T-table AES fast
    path: the message schedule and block buffer are preallocated inside the
    context and the [_into] entry points write digests into caller-supplied
    buffers so steady-state hashing allocates nothing. Block compression is
    dispatched once at startup to the host CPU's SHA extensions (SHA-NI)
    when available, falling back to a portable C core — mirroring how the
    modelled secure processor offloads hashing to an on-die unit. Every
    digest takes this one path, one message at a time: the BMT's leaf
    hashes are {!feed_u64_be} then {!feed} on a context and its node
    hashes are {!digest_pair_into}. A
    from-scratch OCaml compression remains as the executable specification:
    {!digest_reference} always uses it, and the test suite and
    [fidelius_sim cpu-features] cross-check the active backend against it.

    {b Thread-safety.} A [ctx] is single-owner mutable state. The one-shot
    helpers ({!digest}, {!digest_into}, {!digest_pair_into}, {!digest_build})
    use a per-domain scratch context, so they are safe to call concurrently
    from different fleet domains but must not be nested inside a
    {!digest_build} callback. *)

type ctx
(** Streaming interface for hashing data that arrives in pieces (e.g. the
    per-page SEND_UPDATE measurement accumulation). All feed variants
    append to the same message; the digest depends only on the
    concatenated byte stream, never on the chunking. *)

val backend : string
(** Active compression backend, ["sha-ni"] or ["c-scalar"] — selected once
    at startup; reported for observability. Digests are identical either
    way. *)

val digest : bytes -> bytes
(** [digest data] is the 32-byte SHA-256 hash of [data]. *)

val digest_reference : bytes -> bytes
(** [digest_reference data] hashes with the pure-OCaml from-scratch
    compression regardless of {!backend} — the executable specification the
    test suite checks the accelerated path against. *)

val digest_string : string -> bytes

val digest_into : bytes -> dst:bytes -> dst_off:int -> unit
(** [digest_into data ~dst ~dst_off] writes the digest of [data] into
    [dst] at [dst_off] without allocating. *)

val digest_pair : bytes -> bytes -> bytes
(** [digest_pair a b] is [digest (Bytes.cat a b)] without the
    concatenation — the Merkle node-hash shape. *)

val digest_pair_into : bytes -> bytes -> dst:bytes -> dst_off:int -> unit
(** Zero-allocation {!digest_pair}. [dst] may alias [a] or [b]; inputs are
    consumed before the digest is written. *)

val digest_build : (ctx -> unit) -> bytes
(** [digest_build f] runs [f] over a freshly reset scratch context and
    returns the digest — for call sites that hash a handful of
    heterogeneous parts ([feed] / {!feed_u64_be}) without concatenating
    them first. [f] must not itself call the one-shot helpers. *)

val hex : bytes -> string
(** Lowercase hex rendering of a digest (or any byte string). *)

val init : unit -> ctx

val reset : ctx -> unit
(** Return the context to its initial state so it can hash a fresh
    message — the zero-allocation alternative to {!init} per message. *)

val feed : ctx -> bytes -> unit

val feed_sub : ctx -> bytes -> off:int -> len:int -> unit
(** Feed [len] bytes of [data] starting at [off]. Raises
    [Invalid_argument] if the range leaves the buffer. *)

val feed_string : ctx -> string -> unit

val feed_u64_be : ctx -> int64 -> unit
(** Feed the eight big-endian bytes of the value — equivalent to feeding
    an 8-byte [Bytes.set_int64_be] buffer, without building one. Used for
    the BMT leaf header, measurement page indices and transport nonces. *)

val finalize : ctx -> bytes
(** [finalize ctx] returns the digest; the context must not be fed again
    (but may be {!reset}). *)

val finalize_into : ctx -> dst:bytes -> dst_off:int -> unit
(** Zero-allocation {!finalize}. Raises [Invalid_argument] if
    [dst_off .. dst_off + 31] leaves [dst]. *)
