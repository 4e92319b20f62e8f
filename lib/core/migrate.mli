(** VM migration between Fidelius hosts (paper Section 4.3.6-4.3.7).

    One datapath: the {b live pre-copy driver} {!migrate_live} streams
    {!Wire} frames into the target's receive state machine ({!rx_deliver}).
    The guest keeps running while memory crosses in iterative dirty
    rounds, and the final stop-and-copy residual is sized by a downtime
    budget.

    On top of it sits {b attested secret injection}: the guest
    owner releases the disk encryption key to the target host only after
    verifying a fresh attestation quote — including the target's
    {e firmware version}, because the platform identity key survives a
    firmware downgrade ("Insecure Until Proven Updated") and only the
    version policy check can refuse a rolled-back platform.

    Everything that crosses {!Wire.transmit} is attacker-controlled: the
    hypervisors on both ends relay the frames and may drop, truncate,
    reorder or rewrite them. The security argument is that every such
    perturbation lands in a typed {!error}, never in a silently wrong
    guest. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev

(** Why a migration failed. Classified by call site so callers (tests, the
    fault matrix, the CLI) never match on error strings. *)
type error =
  | Not_protected
      (** the domain has no SEV context — Fidelius only migrates protected
          guests through the firmware path *)
  | Send_refused of string
      (** the source firmware refused SEND_START/UPDATE/FINISH (wrong
          state, NOSEND policy bit, bad handle) *)
  | Truncated of { expected : int; got : int }
      (** the stream lost data in transit: a frame's payload is shorter
          than its header claims. Trigger: a lossy channel, or the
          [Snapshot_truncate] fault site *)
  | Malformed of string
      (** framing damage that is not a clean truncation: bad magic, a
          payload overrunning its declared length, an undecodable field, a
          non-page-sized page, a START claiming more pages than a transport
          index can name, a FINISH page-table entry outside the gfn
          range *)
  | Rejected of string
      (** the {e target platform's} verification verdict: RECEIVE_START
          key unwrap or RECEIVE_FINISH measurement refused the image.
          Trigger: tampered ciphertext ([Snapshot_flip]), a consistently
          re-framed but incomplete round ([Round_truncate]), or a START
          wrapped for a different platform *)
  | Boot_failed of string
      (** mechanical receive-side failure (allocation, mediation, ACTIVATE,
          first VMRUN) — the target rolled the partial domain back. A START
          whose pages do not fit the target's free frames is refused here
          before anything is allocated *)
  | Unknown_version of { got : int; expected : int }
      (** the peer speaks a different wire revision; refused before any
          payload byte is interpreted *)
  | Protocol_violation of string
      (** frames arrived in an order the receive state machine forbids —
          e.g. a dirty round out of sequence, or a LAUNCH_SECRET before any
          attestation quote was issued ([Secret_before_attest]) *)
  | Stale_firmware of { got : Sev.Firmware.version; minimum : Sev.Firmware.version }
      (** the target's quote is genuine but reports a firmware build below
          the owner's policy floor — the rollback attack (the
          [Stale_firmware] fault site). The disk key was {b not} released *)
  | Attest_refused of Attest.error
      (** the owner refused the target's quote for any other reason (bad
          nonce, bad MAC, wrong hypervisor measurement); the disk key was
          not released *)

val error_to_string : error -> string

(** {2 Wire format}

    Every frame is [magic "FIDM"] ‖ [u16 version] ‖ [u8 tag] ‖
    [u32 payload-len] ‖ payload, big-endian. {!Wire.decode} refuses a wrong
    magic or an overrunning payload as [Malformed], a short payload as
    [Truncated] and a foreign version as [Unknown_version] — {e before}
    interpreting anything else, so a fault acting on real framing surfaces
    as a typed error, never as garbage fed to the firmware. *)
module Wire : sig
  val version : int
  (** The wire revision this build speaks. Bumped on any framing change;
      there is no negotiation — migration partners must match exactly. *)

  type frame =
    | Start of {
        name : string;
        memory_pages : int;
        policy : int;
        nonce : int64;
        wrapped_keys : Fidelius_crypto.Keywrap.wrapped;
        origin_public : Fidelius_crypto.Dh.public;
      }  (** opens a migration: everything RECEIVE_START needs *)
    | Update of { round : int; pages : (int * bytes) list }
        (** one pre-copy round of [(transport-index, ciphertext)] pages;
            the placement gfn is derived from the index (see {!index_of}) *)
    | Finish of {
        measurement : bytes;
        gpt_entries : (Hw.Addr.vfn * Hw.Pagetable.proto) list;
      }  (** the sender's keyed measurement; triggers RECEIVE_FINISH *)
    | Attest_req of { nonce : int64 }
        (** owner → target: quote yourself under this fresh nonce *)
    | Attest_resp of { quote : bytes }  (** a serialized {!Attest.quote} *)
    | Secret of { wrapped : bytes }
        (** the owner's disk key, wrapped to the verified quote *)

  val encode : frame -> bytes

  val decode : bytes -> (frame, error) result
  (** Total: any byte string yields a frame or a typed error. The payload
      is untrusted; internal counts are sanity-bounded before use. Every
      field is read in place. An [Update] is read by the one walk of an
      UPDATE frame that {!rx_deliver} runs too, which checks every
      record's framing before the frame is accepted; [decode] then copies
      each record out into its list, accepting records of any length (the
      page check is {!rx_deliver}'s). The live receiver never builds that
      list. *)

  val transmit : bytes -> bytes
  (** The untrusted channel. Identity with no fault plan installed; with a
      plan armed it perturbs encoded [Update] frames the way a hostile
      relay would: [Round_truncate] drops the last page record and
      re-frames consistently, [Snapshot_flip] flips one ciphertext bit,
      [Snapshot_truncate] drops a page-sized tail while the header still
      claims the full length. *)
end

val index_of : round:int -> gfn:int -> int
(** Composite transport index: [(round lsl 20) lor gfn]. A page resent in
    a later round gets a fresh CTR stream (no two-time pad across rounds),
    and because the receiver derives the placement gfn from the measured
    index, a relay cannot silently re-home a page. Round-0 indices equal
    the gfn. *)

val gfn_of_index : int -> int

(** {2 Attested secret injection} *)

(** The guest owner's side of the key-release protocol. The owner is the
    trust root: it holds the disk key, chooses the attestation nonce and
    the firmware-version floor, and releases the key only after
    {!Attest.verify} accepts the target's quote. *)
module Owner : sig
  type t

  val create : ?minimum_fw_version:Sev.Firmware.version -> Fidelius_crypto.Rng.t -> t
  (** Fresh owner with a random 16-byte disk key and a fresh attestation
      nonce. [minimum_fw_version] defaults to
      {!Sev.Firmware.minimum_safe_version}. *)

  val released : t -> bool
  (** Whether the disk key has ever been released. Stays [false] across
      every refused migration — the rollback tests assert exactly this. *)

  val release_count : t -> int

  val disk_key : t -> bytes
  (** The plaintext disk key (test oracle: compare against what the
      migrated guest can read back from its kblk slot). *)
end

(** {2 Receive-side state machine}

    [EXPECT_START → STREAMING → ATTESTING → COMPLETE], with [FAILED]
    absorbing. Driven by delivering raw frame bytes; any out-of-order or
    undecodable frame is refused with a typed error, and failures during
    streaming roll the partial domain back. *)

type rx

val rx_create : Ctx.t -> rx

val rx_deliver : rx -> bytes -> (bytes option, error) result
(** Deliver one frame from the wire. [Ok (Some reply)] carries an encoded
    response frame (only [Attest_req] produces one). The bytes are wholly
    untrusted; a [Secret] delivered before a quote was issued is refused
    as [Protocol_violation] {e without} tearing down the already verified
    and running guest — refusing the injection is the fail-closed
    behaviour there. An UPDATE frame is never decoded into a list: one
    walk reads it in place and gives {!Wire.decode}'s framing verdict and
    the first record that is not one page or whose index names a gfn at
    or past the START's [memory_pages]. Framing errors refuse the frame
    first, then the receive state and the round, then that record (as
    [Malformed], with no RECEIVE_UPDATE issued). A frame that passes has
    each record loaded from its offset in the frame, staged through one
    page per receive into the boot window, where RECEIVE_UPDATE decrypts
    it in place. Total: whatever the bytes, the result is [Ok] or a typed
    [Error]; it never raises. *)

val rx_domain : rx -> Xen.Domain.t option
(** The received domain, once RECEIVE_FINISH has accepted it. *)

(** {2 Live pre-copy driver} *)

type config = {
  downtime_budget_us : float;
      (** stop-and-copy tolerance: the final paused copy may take at most
          this long, at the per-page firmware cost of
          {!Hw.Cost.default} *)
}
(** Pre-copy also stops after 8 rounds, so it terminates for a guest that
    dirties faster than the wire drains. *)

val budget_pages : config -> int
(** How many residual pages fit the downtime budget. *)

type report = {
  rounds : int;  (** UPDATE frames sent, residual round included *)
  pages_sent : int;  (** total pages on the wire, resends included *)
  residual_pages : int;  (** pages in the final stop-and-copy round *)
  downtime_us : float;  (** time the guest was paused *)
  secret_released : bool;
      (** whether the owner released the disk key (always [false] without
          an owner) *)
}

val migrate_live :
  ?config:config ->
  ?owner:Owner.t ->
  ?mutate:(int -> unit) ->
  src:Ctx.t ->
  dst:Ctx.t ->
  Xen.Domain.t ->
  (Xen.Domain.t * report, error) result
(** Live-migrate a protected guest. Round 0 copies every mapped page while
    the guest runs; each later round resends what the dirty log recorded;
    when the residual fits [config]'s downtime budget (or the eighth round
    is reached) the guest pauses for the final stop-and-copy. With [owner] set,
    the owner then challenges the target for a quote and — only on
    successful verification — releases the disk key as a wrapped [Secret]
    frame the target injects at the guest's kblk slot.

    [mutate] models the still-running guest: it is invoked once per
    pre-copy round (with the round number) and typically performs guest
    writes on the source, which the dirty log picks up.

    Each round's UPDATE frame is sized from the gfns still mapped, and
    SEND_UPDATE writes each page's ciphertext straight into its record
    ({!Sev.Firmware.send_update_into}) through the writer {!Wire.encode}
    uses for [Update], so the frame is the only buffer a page crosses in.

    Failure semantics: on any error the source guest {e keeps running}
    (unpaused if the failure struck mid-blackout) and SEND_CANCEL returns
    its firmware context to RUNNING, so the migration can be retried; the
    partial or already-booted target instance is destroyed (a refusal on
    the source mid-stream aborts the target's receive too), and — for every
    attestation-path refusal ([Stale_firmware], [Attest_refused],
    [Protocol_violation]) — the owner's key is provably unreleased
    ({!Owner.released} stays [false]). Only after full success is the
    source destroyed. *)
