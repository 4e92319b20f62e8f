module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

type quote = {
  xen_measurement : bytes;
  fw_version : Sev.Firmware.version;
  guest_domid : int option;
  nonce : int64;
  mac : bytes;
}

type error =
  | Nonce_mismatch
  | Bad_mac
  | Stale_firmware of { got : Sev.Firmware.version; minimum : Sev.Firmware.version }
  | Hypervisor_mismatch

let pp_error fmt = function
  | Nonce_mismatch -> Format.pp_print_string fmt "attest: nonce mismatch (replayed quote?)"
  | Bad_mac ->
      Format.pp_print_string fmt "attest: quote MAC invalid (wrong platform or tampered)"
  | Stale_firmware { got; minimum } ->
      Format.fprintf fmt
        "attest: platform firmware %a is below the policy floor %a (rollback?)"
        Sev.Firmware.pp_version got Sev.Firmware.pp_version minimum
  | Hypervisor_mismatch ->
      Format.pp_print_string fmt
        "attest: hypervisor measurement differs from the expected build"

let error_to_string e = Format.asprintf "%a" pp_error e

let payload ~xen_measurement ~fw_version ~guest_domid =
  let b = Bytes.create (32 + 6 + 4) in
  Bytes.blit xen_measurement 0 b 0 32;
  Bytes.set_uint16_be b 32 fw_version.Sev.Firmware.api_major;
  Bytes.set_uint16_be b 34 fw_version.Sev.Firmware.api_minor;
  Bytes.set_uint16_be b 36 fw_version.Sev.Firmware.build;
  Bytes.set_int32_be b 38 (Int32.of_int (match guest_domid with None -> -1 | Some d -> d));
  b

let quote_fw fw ~xen_measurement ?guest_domid ~nonce () =
  (* The rollback swap happens on the quoted platform's side of the wire:
     a hostile hypervisor reloaded an old blob just before this quote. The
     old blob holds the same platform identity, so the MAC is genuine —
     the version field is the only honest tell. *)
  let fw_version =
    if Plan.armed () && Plan.fire Site.Stale_firmware then begin
      Sev.Firmware.load_blob fw Sev.Firmware.vulnerable_version;
      Sev.Firmware.vulnerable_version
    end
    else Sev.Firmware.version fw
  in
  let mac =
    Sev.Firmware.attest fw ~data:(payload ~xen_measurement ~fw_version ~guest_domid) ~nonce
  in
  { xen_measurement; fw_version; guest_domid; nonce; mac }

let quote ctx ?guest ~nonce () =
  let fw = ctx.Ctx.hv.Xen.Hypervisor.fw in
  let guest_domid = Option.map (fun (d : Xen.Domain.t) -> d.Xen.Domain.domid) guest in
  quote_fw fw ~xen_measurement:ctx.Ctx.xen_measurement ?guest_domid ~nonce ()

let verify ~attestation_key ~expected_xen_measurement
    ?(minimum_fw_version = Sev.Firmware.minimum_safe_version) ~nonce q =
  if not (Int64.equal nonce q.nonce) then Error Nonce_mismatch
  else if
    not
      (Sev.Firmware.verify_quote ~attestation_key
         ~data:
           (payload ~xen_measurement:q.xen_measurement ~fw_version:q.fw_version
              ~guest_domid:q.guest_domid)
         ~nonce ~quote:q.mac)
  then Error Bad_mac
  else if not (Sev.Firmware.version_at_least q.fw_version ~minimum:minimum_fw_version) then
    Error (Stale_firmware { got = q.fw_version; minimum = minimum_fw_version })
  else if not (Bytes.equal q.xen_measurement expected_xen_measurement) then
    Error Hypervisor_mismatch
  else Ok ()

let wire_length = 32 + 6 + 4 + 8 + 32

let serialize q =
  let b = Bytes.create wire_length in
  Bytes.blit q.xen_measurement 0 b 0 32;
  Bytes.set_uint16_be b 32 q.fw_version.Sev.Firmware.api_major;
  Bytes.set_uint16_be b 34 q.fw_version.Sev.Firmware.api_minor;
  Bytes.set_uint16_be b 36 q.fw_version.Sev.Firmware.build;
  Bytes.set_int32_be b 38 (Int32.of_int (match q.guest_domid with None -> -1 | Some d -> d));
  Bytes.set_int64_be b 42 q.nonce;
  Bytes.blit q.mac 0 b 50 32;
  b

let deserialize b =
  if Bytes.length b <> wire_length then None
  else
    let domid = Int32.to_int (Bytes.get_int32_be b 38) in
    (* -1 is the one encoding of "no guest": accepting any other negative
       id would give one quote several wire forms. *)
    if domid < -1 then None
    else
      Some
        { xen_measurement = Bytes.sub b 0 32;
          fw_version =
            { Sev.Firmware.api_major = Bytes.get_uint16_be b 32;
              api_minor = Bytes.get_uint16_be b 34;
              build = Bytes.get_uint16_be b 36 };
          guest_domid = (if domid < 0 then None else Some domid);
          nonce = Bytes.get_int64_be b 42;
          mac = Bytes.sub b 50 32 }
