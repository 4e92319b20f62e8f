(** Full VM life-cycle protection (paper Section 4.3).

    The protected boot path is the paper's novel reuse of the SEV migration
    API: the guest owner prepares an *encrypted kernel image* offline (the
    SEND side, {!Fidelius_sev.Transport.Owner}); Fidelius boots it with the
    RECEIVE side — RECEIVE_START unwraps the transport keys, the hypervisor
    loads ciphertext pages during a temporary write window, RECEIVE_UPDATE
    re-encrypts them in place under a fresh Kvek, and RECEIVE_FINISH checks
    the keyed measurement before the guest ever runs. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev

type boot_error =
  | Rejected of string
      (** the platform's verification verdict: RECEIVE_START key unwrap or
          RECEIVE_FINISH measurement refused the image *)
  | Failed of string
      (** mechanical boot failure — image too large, page load or mediation
          error, ACTIVATE, first VMRUN — classified by call site, never by
          matching error strings *)

val boot_error_to_string : boot_error -> string

val boot_protected_vm :
  Ctx.t ->
  name:string ->
  memory_pages:int ->
  prepared:Sev.Transport.Owner.prepared ->
  (Xen.Domain.t, boot_error) result
(** Boot a protected guest from an owner-prepared encrypted image. On
    success the domain is RUNNING in the firmware, ACTIVATEd, its frames are
    unmapped from the hypervisor, its NPT write-protected, its guest page
    table C-bit-mapped, and the first VMRUN has executed through the type-3
    gate. Any failure rolls the partial domain back before returning.

    Internally this is the degenerate form of the incremental receive
    below: one {!receive_pages} round, transport index equal to placement
    gfn. *)

(** {2 Incremental receive (live migration)}

    Live migration delivers memory in several dirty rounds, so the
    RECEIVE side is also exposed as a session: {!receive_begin} runs
    RECEIVE_START and allocates the (not yet runnable) domain,
    {!receive_pages} loads one round of ciphertext pages, and
    {!receive_complete} verifies the keyed measurement and performs the
    first gated VMRUN. Every input to the session arrives over the
    untrusted migration channel — nothing is trusted until
    RECEIVE_FINISH's measurement check inside {!receive_complete}
    passes. Any failing step rolls the partial domain back and poisons
    the session; later calls on a poisoned (or completed) session return
    [Failed]. A rollback is the same teardown as
    {!shutdown_protected_vm}. *)

type session
(** A partially received protected domain: keys unwrapped, zero or more
    page rounds loaded, not yet measured or activated. *)

val receive_begin :
  Ctx.t ->
  name:string ->
  memory_pages:int ->
  wrapped_keys:Fidelius_crypto.Keywrap.wrapped ->
  origin_public:Fidelius_crypto.Dh.public ->
  nonce:int64 ->
  policy:int ->
  (session, boot_error) result
(** Allocate the target domain (frames revoked from the hypervisor as they
    are handed out) and run RECEIVE_START. [wrapped_keys], [origin_public],
    [nonce] and [policy] all arrived over the wire; a wrong or tampered
    wrap is refused here as [Rejected] (key unwrap is the platform's first
    verification verdict). A [memory_pages] that does not fit the host's
    free frames is refused as [Failed] before anything is allocated. *)

val receive_page :
  session -> index:int -> gfn:Hw.Addr.gfn -> src:bytes -> src_off:int ->
  (unit, boot_error) result
(** Load one page whose transport ciphertext is the page at [src_off] of
    [src] — a record of the UPDATE frame it arrived in, read in place.
    The page is staged through the session's one page buffer, written
    through the boot window (the one boot-window write
    {!write_start_info} uses too) and re-encrypted in place by
    RECEIVE_UPDATE under the transport index, which decrypts it straight
    from the loaded frame. The index both keys the transport CTR stream
    and is folded into the running measurement, so a page replayed at
    the wrong index or placed at the wrong gfn changes the measurement
    verified later. Mechanical failures (an unpopulated gfn, a mediation
    refusal) are [Failed]. Raises [Invalid_argument] when the page leaves
    [src]. *)

val receive_pages :
  session -> (int * Hw.Addr.gfn * bytes) list -> (unit, boot_error) result
(** {!receive_page} for each of one round of
    [(transport_index, gfn, ciphertext)] triples, in order. A ciphertext
    that is not exactly one page is refused as [Failed] before it is
    mapped. *)

val receive_complete : session -> expected:bytes -> (Xen.Domain.t, boot_error) result
(** RECEIVE_FINISH against the sender's keyed measurement [expected]
    (untrusted — but forging it requires Ktik), then ACTIVATE, C-bit
    mapping and the first gated VMRUN. A measurement mismatch is
    [Rejected]; the partial domain is destroyed and no guest instruction
    has executed. *)

val receive_abort : session -> unit
(** Tear the partial domain down through {!shutdown_protected_vm}'s
    teardown (idempotent; no-op after completion or a rollback). The
    migration driver calls this when the wire breaks mid-stream. *)

val session_domain : session -> Xen.Domain.t
(** The not-yet-runnable domain under construction — exposed for
    diagnostics only; it must not be started by hand. *)

val shutdown_protected_vm : Ctx.t -> Xen.Domain.t -> unit
(** The paper's Section 4.3.8, the one teardown of a protected domain
    (a refused or aborted receive runs it too): clear the NPT under
    teardown authority, DEACTIVATE and DECOMMISSION the firmware context,
    reset PIT entries, scrub and release the frames, revoke GIT intents,
    and drop the shadow and the protected mark. *)

val write_start_info : ?off:int -> Ctx.t -> Xen.Domain.t -> bytes -> (unit, string) result
(** Hypervisor-side write into the guest's start_info page, governed by the
    byte-granular write-once policy ({!Policy.write_once_range}, paper
    Section 5.3): disjoint ranges may each be written once during
    construction; rewriting any byte, or a range outside the page, is
    denied. The boot window that lets the hypervisor map the frame
    writable opens for this one write and closes, with the frame
    unmapped, on every exit — the same boot-window write the image load
    of {!receive_pages} runs, which also refuses any range that leaves
    the frame. *)

val kblk_of_guest : Ctx.t -> Xen.Domain.t -> bytes
(** The disk encryption key the owner embedded in kernel page 0 — readable
    only from inside the guest (this helper performs a guest-mode read). *)

val attestation_report : Ctx.t -> string
(** Human-readable late-launch measurement of the hypervisor text plus gate
    statistics, as a remote-attestation stand-in. *)
