(** Diffie–Hellman key agreement over Z_p, p = 2^61 - 1.

    Plays the role of the ECDH exchange in the SEV firmware: the guest owner
    and the platform firmware each hold a keypair; the SEND/RECEIVE master
    secret is derived from the shared group element via a SHA-256 KDF, so a
    hypervisor relaying the public values cannot compute it. The group is
    deliberately small (no bignum library is available in the sealed build
    environment); the simulation needs the protocol shape, not cryptographic
    strength — see DESIGN.md §1.

    Because p is a Mersenne prime, the group arithmetic runs in native
    ints: a product splits into 31/30-bit halves and folds with
    2^61 = 1 (mod p), so a modexp allocates nothing and a secret is an
    unboxed [int]. *)

type public = int64
type secret

val p : int64
(** The group modulus, 2^61 - 1. *)

val mulmod : int -> int -> int
(** [mulmod a b] is [a * b mod p] for [a] and [b] in [\[0, p)], without
    allocating. Outside that range the result is unspecified. Exposed for
    the property that checks it against a reference multiplication. *)

val generate : Rng.t -> secret * public
(** Fresh keypair from the deterministic generator. *)

val shared_secret : secret -> public -> bytes
(** [shared_secret mine theirs] is a 32-byte key: SHA-256 over the shared
    group element with a fixed domain-separation label. Both parties derive
    the same bytes; raises [Invalid_argument] if [theirs] is outside the
    group. *)

val in_group : public -> bool
(** Whether a received public value is a usable group element (strictly
    between 1 and [p]); anything else must be refused before
    {!shared_secret}. *)

val public_to_bytes : public -> bytes
val public_of_bytes : bytes -> public
