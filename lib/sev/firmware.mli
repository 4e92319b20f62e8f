(** The SEV secure-processor firmware.

    Implements the command set the paper builds on: INIT, LAUNCH_*,
    ACTIVATE/DEACTIVATE/DECOMMISSION, SEND_*, RECEIVE_*, DBG_DECRYPT — with
    the AMD state machine enforced per guest context: every command checks
    and moves its context through {!State.table}. Kvek never crosses the
    API boundary: it exists only inside contexts and in memory-controller
    key slots. Each Kvek is expanded once, when LAUNCH_START or
    RECEIVE_START creates it; the helper contexts that share it and the
    ASID slot ACTIVATE fills all hold that one schedule.

    Deliberately faithful insecurities (they are what Fidelius fixes in
    software): ACTIVATE lets its caller bind *any* handle to *any* ASID — the
    handle/ASID relationship is hypervisor-managed and unprotected, enabling
    the collusive key-sharing attack of Section 2.2; and nothing here stops
    the hypervisor from skipping or replaying page-level RECEIVE_UPDATEs —
    only the final measurement check catches it. *)

type t

type handle = int

(** {2 Firmware versioning (rollback policy)}

    The secure processor runs whatever blob the (untrusted) hypervisor
    loads. Old blobs carry published key-extraction bugs, and the platform
    identity key survives a downgrade — so a quote from a vulnerable blob
    still MAC-verifies. "Insecure Until Proven Updated" (PAPERS.md): the
    guest owner must check the {e reported version} against a policy floor
    before trusting the platform with any secret. *)

type version = { api_major : int; api_minor : int; build : int }

val vulnerable_version : version
(** The last blob with a published key-extraction bug — what a rollback
    attacker loads. *)

val minimum_safe_version : version
(** The owner-policy floor: the first build with the fix. Verifiers refuse
    any platform reporting a version below this. *)

val version_compare : version -> version -> int
val version_at_least : version -> minimum:version -> bool
val version_to_string : version -> string
val pp_version : Format.formatter -> version -> unit

val create : Fidelius_hw.Machine.t -> t
(** Attach a secure processor to a platform. Generates the platform ECDH
    identity key. The platform boots the up-to-date blob (0.24.15);
    {!load_blob} swaps it. *)

val load_blob : t -> version -> unit
(** The hypervisor swaps the firmware blob — the rollback attack. Nothing
    authenticates this transition: the caller is the untrusted hypervisor
    and the platform identity key survives, so only a verifier's version
    policy can catch the downgrade. *)

val version : t -> version
(** The blob currently running, as reported in attestation payloads. *)

val init : t -> (unit, string) result
(** Platform INIT; all other commands fail before it. *)

val initialized : t -> bool

val platform_public : t -> Fidelius_crypto.Dh.public
(** The platform's public identity key (what a guest owner targets). *)

val policy_nodbg : int
(** Guest policy bit forbidding DBG_DECRYPT. *)

val policy_nosend : int
(** Guest policy bit forbidding SEND (the guest owner opts out of
    migration/snapshot export entirely). *)

(** {2 Launch} *)

val launch_start : t -> policy:int -> (handle, string) result
(** Fresh context with a newly generated (and expanded) Kvek; state
    LAUNCHING. *)

val launch_update : t -> handle:handle -> pfn:Fidelius_hw.Addr.pfn -> (unit, string) result
(** Encrypt a plaintext-resident page in place with the guest's Kvek and
    fold it into the launch measurement. *)

val launch_finish : t -> handle:handle -> (bytes, string) result
(** State RUNNING; returns the (unkeyed) launch digest. *)

val launch_shared : t -> handle:handle -> (handle, string) result
(** Create a helper context sharing the Kvek of an existing RUNNING guest —
    the paper's s-dom/r-dom trick (Section 4.3.5). The helper starts
    RUNNING with an empty measurement, and lives no longer than the Kvek:
    DECOMMISSION of the guest retires it. *)

(** {2 Activation} *)

val activate : t -> handle:handle -> asid:int -> (unit, string) result
val deactivate : t -> handle:handle -> (unit, string) result
val decommission : t -> handle:handle -> (unit, string) result
(** Retire the context for good, and with it every context sharing its
    Kvek (the helpers of {!launch_shared} and [receive_start ~kvek_of]),
    in the one command and for one command's charge: each retired context
    reads DECOMMISSIONED, its key slot is uninstalled, its Kvek schedule
    dropped and its GEKs discarded. *)

val state_of : t -> handle:handle -> State.t option
val asid_of : t -> handle:handle -> int option

(** {2 Send (migration / image creation / I/O write)} *)

val send_start :
  t ->
  handle:handle ->
  target_public:Fidelius_crypto.Dh.public ->
  nonce:int64 ->
  (Fidelius_crypto.Keywrap.wrapped, string) result
(** Generate transport keys, wrap them for [target_public]; state SENDING
    (stops guest execution, per the paper's no-live-migration note). *)

val send_update_into :
  t ->
  handle:handle -> index:int -> src_pfn:Fidelius_hw.Addr.pfn -> dst:bytes -> dst_off:int ->
  (unit, string) result
(** SEND_UPDATE, the one body: decrypt the guest page at [src_pfn] with
    Kvek into the firmware's plaintext scratch, fold it into the send
    measurement under [index], and CTR-encrypt it with Ktek straight into
    [dst] at [dst_off] — the live sender passes its UPDATE frame at the
    record's offset, so the ciphertext is written once, where it travels.
    Allocates nothing. Raises [Invalid_argument], before anything is
    charged, when the page would leave [dst]. *)

val send_update :
  t -> handle:handle -> index:int -> src_pfn:Fidelius_hw.Addr.pfn -> (bytes, string) result
(** {!send_update_into} a fresh page-sized buffer, returned: the only
    allocation, one page. For callers that keep pages as a list. *)

val send_finish : t -> handle:handle -> (bytes, string) result
(** The keyed measurement (HMAC under Ktik); state SENT. *)

val send_cancel : t -> handle:handle -> (unit, string) result
(** SEND_CANCEL: abandon an outgoing migration. SENDING or SENT goes back
    to RUNNING; the transport keys and the running measurement are
    dropped, so the next SEND_START begins afresh. *)

(** {2 Receive (bootup from encrypted image / migration target / I/O read)} *)

val receive_start :
  t ->
  wrapped:Fidelius_crypto.Keywrap.wrapped ->
  origin_public:Fidelius_crypto.Dh.public ->
  nonce:int64 ->
  policy:int ->
  ?kvek_of:handle ->
  unit ->
  (handle, string) result
(** Unwrap Ktek/Ktik via the platform identity; fresh Kvek (or the schedule
    of [kvek_of]'s, for the r-dom helper, which DECOMMISSION of [kvek_of]
    then retires); state RECEIVING. *)

val receive_update :
  t ->
  handle:handle -> index:int -> cipher:bytes -> dst_pfn:Fidelius_hw.Addr.pfn ->
  (unit, string) result
(** Decrypt a transport page with Ktek and store it re-encrypted under Kvek
    at [dst_pfn]. A [cipher] that is not one page is refused. The one
    RECEIVE_UPDATE body, which {!receive_update_in_place} runs too: it
    CTR-decrypts the ciphertext where it lies into the firmware's
    plaintext scratch, so neither form allocates. *)

val receive_update_in_place :
  t -> handle:handle -> index:int -> pfn:Fidelius_hw.Addr.pfn -> (unit, string) result
(** Like {!receive_update} but the transport ciphertext was already loaded
    (by the hypervisor, plaintext-in-DRAM) into [pfn]; the firmware
    decrypts it straight from the frame and re-encrypts the frame in
    place — the paper's VM-bootup step 2. *)

val receive_finish : t -> handle:handle -> expected:bytes -> (unit, string) result
(** Verify the keyed measurement; state RUNNING on success, error (and no
    transition) on mismatch. *)

(** {2 Retrofitted I/O path (the paper's Section 4.3.5 reuse)}

    The s-dom helper context stays in SENDING state forever and transforms
    guest-private data (Kvek) into transport ciphertext (Ktek); the r-dom
    helper stays in RECEIVING state and performs the inverse. The nonce is
    caller-chosen (the disk sector number) so both directions agree. These
    do not touch the helper's measurement. *)

val send_update_io :
  t -> handle:handle -> nonce:int64 -> src_pfn:Fidelius_hw.Addr.pfn -> len:int ->
  (bytes, string) result
(** Decrypt [len] bytes at the start of the guest-encrypted frame [src_pfn]
    with Kvek and return them re-encrypted under Ktek. *)

val receive_update_io :
  t -> handle:handle -> nonce:int64 -> cipher:bytes -> dst_pfn:Fidelius_hw.Addr.pfn ->
  (unit, string) result
(** Decrypt transport ciphertext with Ktek and store it Kvek-encrypted at
    the start of [dst_pfn]. *)

(** {2 Customized-key extension (paper Section 8, suggestion 2)}

    The paper's proposed instruction family: SETENC_GEK generates a
    customized guest encryption key held in the firmware; ENC/DEC transform
    a specified guest-memory range under it, usable while the guest context
    is RUNNING. Compared to the SEND/RECEIVE retrofit this removes the
    helper s-dom/r-dom contexts and their state-machine gymnastics (one
    firmware command to set up instead of three, no perpetually-SENDING
    contexts), which is exactly the simplification the paper argues for.
    The datapath is the retrofit's: ENC runs {!send_update_io}'s body and
    DEC {!receive_update_io}'s, under the GEK instead of Ktek. *)

val setenc_gek : t -> handle:handle -> (int, string) result
(** Generate a fresh GEK for the guest; returns its id. The key never
    leaves the firmware, and DECOMMISSION of [handle] drops it. *)

val geks_held : t -> int
(** Number of GEKs the firmware holds, over all guests. Introspection for
    the key-scrub tests (the keys themselves never leave the firmware). *)

val enc_range :
  t -> handle:handle -> gek:int -> nonce:int64 -> src_pfn:Fidelius_hw.Addr.pfn -> len:int ->
  (bytes, string) result
(** Decrypt [len] bytes of the guest's (Kvek-encrypted) frame and return
    them re-encrypted under the GEK. Legal in RUNNING state. *)

val dec_range :
  t -> handle:handle -> gek:int -> nonce:int64 -> cipher:bytes ->
  dst_pfn:Fidelius_hw.Addr.pfn ->
  (unit, string) result
(** Inverse: GEK ciphertext lands Kvek-encrypted in the guest frame. *)

(** {2 Attestation} *)

val attestation_key : t -> bytes
(** The platform's attestation verification key. On real hardware the
    verifier gets the corresponding public key through AMD's certificate
    chain and the quote is a signature; the simulator models the chain's
    effect — a verifier-obtainable key that only this platform's firmware
    can produce quotes under — with a MAC key handed out by this accessor
    (treat calls to it as "fetched the cert chain"). *)

val attest : t -> data:bytes -> nonce:int64 -> bytes
(** Produce a 32-byte quote over [data] bound to the verifier's [nonce]. *)

val verify_quote :
  attestation_key:bytes -> data:bytes -> nonce:int64 -> quote:bytes -> bool
(** Verifier side; pure function of the cert-chain key. *)

(** {2 Debug} *)

val dbg_decrypt :
  t -> handle:handle -> pfn:Fidelius_hw.Addr.pfn -> (bytes, string) result
(** Firmware-assisted decryption of a guest page — refused when the guest
    policy carries {!policy_nodbg}. *)
