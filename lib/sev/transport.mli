(** Encrypted transport images and the guest-owner tooling.

    An {!image} is what crosses the untrusted channel during migration — and,
    in Fidelius' retrofit, what the guest owner ships as an *encrypted kernel
    image* for VM bootup (paper Section 4.3.2): per-page ciphertext under the
    transport encryption key (Ktek), a keyed measurement under the transport
    integrity key (Ktik), and the key material wrapped for the target
    platform's firmware.

    {!Owner} is the trusted-environment side: it plays the role the SEND API
    plays inside a source platform's firmware, which is exactly the paper's
    observation — the image format produced by an owner offline and by a
    migrating platform are one and the same. *)

type image = {
  pages : (int * bytes) list;  (** (page index, Ktek-encrypted page) *)
  measurement : bytes;         (** HMAC(Ktik, pages ++ metadata) *)
  policy : int;
  nonce : int64;               (** guest-provided anti-replay nonce (Nvm) *)
}

type tek_key = {
  raw : bytes;                    (** Ktek bytes, for wrapping *)
  aes : Fidelius_crypto.Aes.key;  (** schedule expanded once per image *)
}
(** A transport encryption key prepared with {!tek_key} — per-page commands
    reuse the expanded schedule instead of re-running the AES key schedule
    for every page. *)

val tek_key : bytes -> tek_key

val page_cipher : tek:tek_key -> index:int -> bytes -> bytes
(** Encrypt one page for transport (CTR keyed by Ktek, nonce bound to the
    page index and the image nonce is folded into the measurement). *)

val page_plain : tek:tek_key -> index:int -> bytes -> bytes

val page_ctr_into :
  tek:tek_key -> index:int -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
(** One page of {!page_cipher} (or, CTR being an involution,
    {!page_plain}) from [src] at [src_off] into [dst] at [dst_off]: the
    firmware's page commands read and write their buffers in place with
    it, so it allocates nothing. Raises [Invalid_argument] when either
    page leaves its buffer. *)

module Owner : sig
  type prepared = {
    image : image;
    wrapped_keys : Fidelius_crypto.Keywrap.wrapped;
        (** Ktek || Ktik wrapped under the owner-platform master secret *)
    owner_public : Fidelius_crypto.Dh.public;
    kblk : bytes; (** disk-image encryption key, embedded in the kernel image *)
  }

  val prepare :
    rng:Fidelius_crypto.Rng.t ->
    platform_public:Fidelius_crypto.Dh.public ->
    policy:int ->
    kernel_pages:bytes list ->
    prepared
  (** Build an encrypted kernel image in a trusted environment, targeted at
      the platform identified by [platform_public]. A fresh disk key Kblk is
      generated and spliced into the first kernel page (the simulator's
      stand-in for "embedded in the encrypted kernel image"), at
      {!kblk_offset}. *)

  val kblk_offset : int
  (** Byte offset of Kblk within kernel page 0. *)
end

val measurement_meta : policy:int -> nonce:int64 -> bytes
(** The metadata frame (policy || nonce) folded into every image
    measurement — by the owner tooling and by the firmware's SEND/RECEIVE
    *_FINISH commands, which must agree byte-for-byte. *)

val derive_master_secret :
  secret:Fidelius_crypto.Dh.secret ->
  peer_public:Fidelius_crypto.Dh.public ->
  nonce:int64 ->
  bytes
(** The ECDH-agreed key-encryption key: both the owner (origin) and the
    target platform firmware derive it; the relaying hypervisor cannot. *)
