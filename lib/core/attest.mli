(** Remote attestation of the Fidelius platform (paper Section 4.3.1:
    "leverages existing hardware support to issue a measurement on its
    integrity, which can be used in remote attestation to verify its
    validity").

    A quote binds, under the platform's attestation key and a
    verifier-chosen nonce: the hypervisor-text measurement Fidelius took at
    late launch, the secure-processor {e firmware version}, and optionally
    a protected guest's identity. The firmware version is load-bearing
    ("Insecure Until Proven Updated", PAPERS.md): the platform identity key
    survives a firmware downgrade, so a quote from a vulnerable old blob
    still MAC-verifies — only the version policy check in {!verify} can
    refuse the rollback.

    Trust boundaries: {!quote} runs on the (attested) platform; every input
    to {!verify} except [attestation_key], [expected_xen_measurement],
    [minimum_fw_version] and [nonce] — i.e. the quote itself — arrived over
    the untrusted channel and is treated as attacker-supplied. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev

type quote = {
  xen_measurement : bytes;    (** SHA-256 of the hypervisor text at late launch *)
  fw_version : Sev.Firmware.version;
      (** the secure-processor blob the platform reports running *)
  guest_domid : int option;
  nonce : int64;
  mac : bytes;                (** firmware quote over all of the above *)
}

(** Why a verifier refused a quote. Checked in declaration order, so the
    first violated property is the one reported. *)
type error =
  | Nonce_mismatch
      (** the quote's nonce is not the one this verifier chose — a replay
          of an old (possibly once-honest) quote *)
  | Bad_mac
      (** the MAC does not verify under the platform's attestation key:
          quoted by a different platform, or tampered in transit *)
  | Stale_firmware of { got : Sev.Firmware.version; minimum : Sev.Firmware.version }
      (** genuine quote, but the platform reports a firmware build below
          the verifier's policy floor — the rollback attack. The verifier
          must release no secret to this platform *)
  | Hypervisor_mismatch
      (** genuine, current firmware, but the late-launch hypervisor text
          hash differs from the expected build *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val quote : Ctx.t -> ?guest:Xen.Domain.t -> nonce:int64 -> unit -> quote
(** Ask the platform firmware to quote the late-launch state. [nonce] is
    the remote verifier's anti-replay challenge (untrusted input to the
    platform; it is simply folded into the MAC). With the
    [Stale_firmware] fault site armed, the hypervisor swaps in the
    vulnerable blob just before quoting — the returned quote is genuinely
    MACed but reports the downgraded version. *)

val quote_fw :
  Sev.Firmware.t -> xen_measurement:bytes -> ?guest_domid:int -> nonce:int64 -> unit -> quote
(** {!quote} without a Fidelius context: quote an arbitrary platform
    firmware with a caller-supplied hypervisor measurement. This is the
    plain-SEV configuration — the version-policy story applies to stock
    SEV exactly as to Fidelius, so the rollback refusal must work there
    too. *)

val verify :
  attestation_key:bytes ->
  expected_xen_measurement:bytes ->
  ?minimum_fw_version:Sev.Firmware.version ->
  nonce:int64 ->
  quote ->
  (unit, error) result
(** Verifier side. [attestation_key] comes from the manufacturer cert
    chain and [expected_xen_measurement]/[minimum_fw_version]/[nonce] are
    the verifier's own policy — all trusted; the quote is untrusted.
    Checks, in order: the nonce (anti-replay), the firmware MAC, the
    firmware version against [minimum_fw_version] (default
    {!Sev.Firmware.minimum_safe_version}), and the hypervisor measurement
    against the expected build. *)

val serialize : quote -> bytes
val deserialize : bytes -> quote option
(** Wire format, for shipping the quote over an untrusted channel.
    [deserialize] is [None] on any length mismatch and on a guest id
    below -1 (the encoding of "no guest"), so every byte string it
    accepts is the [serialize] of the quote it returns; field tampering
    is caught later by {!verify}'s MAC check, not here. *)
