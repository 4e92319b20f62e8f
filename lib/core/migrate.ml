module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Rng = Fidelius_crypto.Rng
module Keywrap = Fidelius_crypto.Keywrap
module Dh = Fidelius_crypto.Dh
module Sha256 = Fidelius_crypto.Sha256
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

type error =
  | Not_protected
  | Send_refused of string
  | Truncated of { expected : int; got : int }
  | Malformed of string
  | Rejected of string
  | Boot_failed of string
  | Unknown_version of { got : int; expected : int }
  | Protocol_violation of string
  | Stale_firmware of { got : Sev.Firmware.version; minimum : Sev.Firmware.version }
  | Attest_refused of Attest.error

let pp_error fmt = function
  | Not_protected -> Format.pp_print_string fmt "migrate: domain is not SEV-protected"
  | Send_refused e -> Format.fprintf fmt "migrate: send refused: %s" e
  | Truncated { expected; got } ->
      Format.fprintf fmt "migrate: stream truncated (expected %d, got %d)" expected got
  | Malformed e -> Format.fprintf fmt "migrate: malformed stream: %s" e
  | Rejected e -> Format.fprintf fmt "migrate: target platform rejected the image: %s" e
  | Boot_failed e -> Format.fprintf fmt "migrate: receive-side boot failed: %s" e
  | Unknown_version { got; expected } ->
      Format.fprintf fmt "migrate: unknown wire version %d (this build speaks %d)" got expected
  | Protocol_violation e -> Format.fprintf fmt "migrate: protocol violation: %s" e
  | Stale_firmware { got; minimum } ->
      Format.fprintf fmt
        "migrate: target firmware %a is below the owner's policy floor %a; disk key withheld"
        Sev.Firmware.pp_version got Sev.Firmware.pp_version minimum
  | Attest_refused e ->
      Format.fprintf fmt "migrate: owner refused the target's quote: %a" Attest.pp_error e

let error_to_string e = Format.asprintf "%a" pp_error e

(* Transport indices are composite: placement gfn in the low bits, dirty
   round above. Two birds: a gfn resent in a later round gets a fresh CTR
   stream (no keystream reuse across rounds), and the index is folded into
   the keyed measurement, so the receiver deriving the placement from the
   index means a page cannot be silently re-homed. Round 0 indices equal
   the gfn. *)
let gfn_bits = 20
let index_of ~round ~gfn = (round lsl gfn_bits) lor gfn
let gfn_of_index index = index land ((1 lsl gfn_bits) - 1)
let gfn_in_range n = 0 <= n && n < 1 lsl gfn_bits

(* Downtime accounting: one RECEIVE_UPDATE costs [Cost.firmware_page]
   cycles; at the simulator's nominal 1 GHz that is cycles/1000 µs. *)
let page_us = float_of_int Hw.Cost.default.Hw.Cost.firmware_page /. 1000.

module Wire = struct
  let magic = "FIDM"
  let version = 2
  let header_len = 4 + 2 + 1 + 4

  let tag_start = 1
  let tag_update = 2
  let tag_finish = 3
  let tag_attest_req = 4
  let tag_attest_resp = 5
  let tag_secret = 6

  type frame =
    | Start of {
        name : string;
        memory_pages : int;
        policy : int;
        nonce : int64;
        wrapped_keys : Keywrap.wrapped;
        origin_public : Dh.public;
      }
    | Update of { round : int; pages : (int * bytes) list }
    | Finish of {
        measurement : bytes;
        gpt_entries : (Hw.Addr.vfn * Hw.Pagetable.proto) list;
      }
    | Attest_req of { nonce : int64 }
    | Attest_resp of { quote : bytes }
    | Secret of { wrapped : bytes }

  let new_frame ~tag plen =
    let b = Bytes.create (header_len + plen) in
    Bytes.blit_string magic 0 b 0 4;
    Bytes.set_uint16_be b 4 version;
    Bytes.set_uint8 b 6 tag;
    Bytes.set_int32_be b 7 (Int32.of_int plen);
    b

  let frame_bytes ~tag payload =
    let plen = Bytes.length payload in
    let b = new_frame ~tag plen in
    Bytes.blit payload 0 b header_len plen;
    b

  let put_blob buf s =
    Buffer.add_uint16_be buf (Bytes.length s);
    Buffer.add_bytes buf s

  (* The one UPDATE writer. The frame is sized up front from its records;
     round, count and each record's index and length go straight into it,
     and [put r b off] writes record [r]'s [len r] bytes at [off]: [encode]
     blits a ciphertext there, the live sender has SEND_UPDATE encrypt
     into it. The first [Error] from [put] abandons the frame. *)
  let write_update ~round ~index ~len ~put records =
    let plen = List.fold_left (fun n r -> n + 8 + len r) 8 records in
    let b = new_frame ~tag:tag_update plen in
    Bytes.set_int32_be b header_len (Int32.of_int round);
    Bytes.set_int32_be b (header_len + 4) (Int32.of_int (List.length records));
    let rec records_from pos = function
      | [] -> Ok b
      | r :: rest -> (
          let n = len r in
          Bytes.set_int32_be b pos (Int32.of_int (index r));
          Bytes.set_int32_be b (pos + 4) (Int32.of_int n);
          match put r b (pos + 8) with
          | Ok () -> records_from (pos + 8 + n) rest
          | Error _ as e -> e)
    in
    records_from (header_len + 8) records

  let encode = function
    | Start { name; memory_pages; policy; nonce; wrapped_keys; origin_public } ->
        let buf = Buffer.create 96 in
        Buffer.add_uint16_be buf (String.length name);
        Buffer.add_string buf name;
        Buffer.add_int32_be buf (Int32.of_int memory_pages);
        Buffer.add_int32_be buf (Int32.of_int policy);
        Buffer.add_int64_be buf nonce;
        put_blob buf (Keywrap.to_bytes wrapped_keys);
        put_blob buf (Dh.public_to_bytes origin_public);
        frame_bytes ~tag:tag_start (Buffer.to_bytes buf)
    | Update { round; pages } ->
        Result.get_ok
          (write_update ~round ~index:fst
             ~len:(fun (_, cipher) -> Bytes.length cipher)
             ~put:(fun (_, cipher) b off -> Ok (Bytes.blit cipher 0 b off (Bytes.length cipher)))
             pages)
    | Finish { measurement; gpt_entries } ->
        let buf = Buffer.create 256 in
        put_blob buf measurement;
        Buffer.add_int32_be buf (Int32.of_int (List.length gpt_entries));
        List.iter
          (fun (gvfn, (p : Hw.Pagetable.proto)) ->
            Buffer.add_int32_be buf (Int32.of_int gvfn);
            Buffer.add_int32_be buf (Int32.of_int p.Hw.Pagetable.frame);
            Buffer.add_uint8 buf
              ((if p.Hw.Pagetable.writable then 1 else 0)
              lor (if p.Hw.Pagetable.executable then 2 else 0)
              lor if p.Hw.Pagetable.c_bit then 4 else 0))
          gpt_entries;
        frame_bytes ~tag:tag_finish (Buffer.to_bytes buf)
    | Attest_req { nonce } ->
        let buf = Buffer.create 8 in
        Buffer.add_int64_be buf nonce;
        frame_bytes ~tag:tag_attest_req (Buffer.to_bytes buf)
    | Attest_resp { quote } ->
        let buf = Buffer.create 96 in
        put_blob buf quote;
        frame_bytes ~tag:tag_attest_resp (Buffer.to_bytes buf)
    | Secret { wrapped } ->
        let buf = Buffer.create 64 in
        put_blob buf wrapped;
        frame_bytes ~tag:tag_secret (Buffer.to_bytes buf)

  exception Short

  let overrun = Malformed "payload overruns its declared length"

  (* The header, checked before any payload byte is read: the frame's tag
     and payload length, or the framing error. *)
  let header b =
    if Bytes.length b < header_len then Error (Malformed "frame shorter than header")
    else if Bytes.sub_string b 0 4 <> magic then Error (Malformed "bad magic")
    else
      let got_version = Bytes.get_uint16_be b 4 in
      if got_version <> version then
        Error (Unknown_version { got = got_version; expected = version })
      else begin
        let plen = Int32.to_int (Bytes.get_int32_be b 7) in
        let avail = Bytes.length b - header_len in
        if plen < 0 then Error (Malformed "negative payload length")
        else if avail < plen then Error (Truncated { expected = plen; got = avail })
        else Ok (Bytes.get_uint8 b 6, plen)
      end

  (* The one walk of an UPDATE frame [b] whose payload is [plen] bytes,
     reading every field in place. Each record's framing is checked before
     the walk returns, so the frame is either refused whole, with the
     verdict [decode] gives, or yields its round, [f] folded over its
     records from [init] in order (each record's index and the offset and
     length of its bytes in [b]), and the first record that is not one
     page or whose index names a gfn at or past [memory_pages], as its
     [(index, length)]. *)
  let walk_update ~memory_pages b ~plen ~init f =
    let limit = header_len + plen in
    if plen < 8 then Error overrun
    else
      let round = Int32.to_int (Bytes.get_int32_be b header_len) in
      let count = Int32.to_int (Bytes.get_int32_be b (header_len + 4)) in
      if count < 0 || count > plen then Error (Malformed "UPDATE: absurd page count")
      else
        let rec records i pos acc refusal =
          if i = count then Ok (round, acc, refusal)
          else if pos > limit - 8 then Error overrun
          else
            let index = Int32.to_int (Bytes.get_int32_be b pos) in
            let len = Int32.to_int (Bytes.get_int32_be b (pos + 4)) in
            if len < 0 || len > limit - pos - 8 then Error overrun
            else
              let refusal =
                match refusal with
                | None when len <> Hw.Addr.page_size || gfn_of_index index >= memory_pages ->
                    Some (index, len)
                | _ -> refusal
              in
              records (i + 1) (pos + 8 + len) (f acc index (pos + 8) len) refusal
        in
        records 0 (header_len + 8) init None

  let refusal_message ~memory_pages (index, len) =
    if len <> Hw.Addr.page_size then
      Printf.sprintf "page at index 0x%x is %d bytes, want %d" index len Hw.Addr.page_size
    else
      Printf.sprintf "page at index 0x%x names gfn 0x%x, past the guest's %d pages" index
        (gfn_of_index index) memory_pages

  (* Every frame but UPDATE, read in place from its payload. *)
  let decode_payload b ~tag ~plen =
    let limit = header_len + plen in
    let pos = ref header_len in
    let need n = if n < 0 || !pos + n > limit then raise Short in
    let u8 () =
      need 1;
      let v = Bytes.get_uint8 b !pos in
      pos := !pos + 1;
      v
    in
    let u16 () =
      need 2;
      let v = Bytes.get_uint16_be b !pos in
      pos := !pos + 2;
      v
    in
    let u32 () =
      need 4;
      let v = Int32.to_int (Bytes.get_int32_be b !pos) in
      pos := !pos + 4;
      v
    in
    let i64 () =
      need 8;
      let v = Bytes.get_int64_be b !pos in
      pos := !pos + 8;
      v
    in
    let raw n =
      need n;
      let v = Bytes.sub b !pos n in
      pos := !pos + n;
      v
    in
    let blob () = raw (u16 ()) in
    let rec records n f acc =
      if n = 0 then List.rev acc else records (n - 1) f (f () :: acc)
    in
    try
      if tag = tag_start then begin
        let name = Bytes.to_string (blob ()) in
        let memory_pages = u32 () in
        let policy = u32 () in
        let nonce = i64 () in
        let wrapped = blob () in
        let pub = blob () in
        match Keywrap.of_bytes wrapped with
        | None -> Error (Malformed "START: undecodable key wrap")
        | Some wrapped_keys ->
            Ok
              (Start
                 { name;
                   memory_pages;
                   policy;
                   nonce;
                   wrapped_keys;
                   origin_public = Dh.public_of_bytes pub })
      end
      else if tag = tag_finish then begin
        let measurement = blob () in
        let count = u32 () in
        if count < 0 || count > plen then Error (Malformed "FINISH: absurd entry count")
        else
          let gpt_entries =
            records count
              (fun () ->
                let gvfn = u32 () in
                let frame = u32 () in
                let flags = u8 () in
                ( gvfn,
                  { Hw.Pagetable.frame;
                    writable = flags land 1 <> 0;
                    executable = flags land 2 <> 0;
                    c_bit = flags land 4 <> 0 } ))
              []
          in
          Ok (Finish { measurement; gpt_entries })
      end
      else if tag = tag_attest_req then Ok (Attest_req { nonce = i64 () })
      else if tag = tag_attest_resp then Ok (Attest_resp { quote = blob () })
      else if tag = tag_secret then Ok (Secret { wrapped = blob () })
      else Error (Malformed (Printf.sprintf "unknown frame tag %d" tag))
    with
    | Short -> Error overrun
    | Invalid_argument _ -> Error (Malformed "undecodable field")

  let decode b =
    match header b with
    | Error _ as e -> e
    | Ok (tag, plen) when tag = tag_update -> (
        let copy pages index off len = (index, Bytes.sub b off len) :: pages in
        match walk_update ~memory_pages:max_int b ~plen ~init:[] copy with
        | Error _ as e -> e
        | Ok (round, pages, _) -> Ok (Update { round; pages = List.rev pages }))
    | Ok (tag, plen) -> decode_payload b ~tag ~plen

  let is_update b = Bytes.length b >= header_len && Bytes.get_uint8 b 6 = tag_update

  (* Rewrite an UPDATE frame's page list while keeping the framing
     consistent (counts and lengths patched by re-encoding). *)
  let reencode_update f b =
    match decode b with
    | Ok (Update { round; pages }) when pages <> [] -> (
        match f pages with None -> b | Some pages -> encode (Update { round; pages }))
    | _ -> b

  (* The untrusted channel. With no plan installed it is the identity;
     with a fault plan armed it perturbs the encoded frame the way a
     hostile relay would. Every frame of the live driver, the
     attestation replies included, routes through here, so the fault
     matrix exercises exactly the framing production code uses. *)
  let transmit b =
    if not (Plan.armed ()) then b
    else begin
      (* Surgical: the last page record vanishes but the frame is
         re-framed consistently, so only the keyed measurement can
         notice. *)
      let b =
        if is_update b && Plan.fire Site.Round_truncate then
          reencode_update
            (fun pages -> Some (List.filteri (fun i _ -> i < List.length pages - 1) pages))
            b
        else b
      in
      (* One ciphertext bit flips in transit. *)
      let b =
        if is_update b && Plan.fire Site.Snapshot_flip then
          reencode_update
            (fun pages ->
              let victim = Plan.draw Site.Snapshot_flip ~bound:(List.length pages) in
              Some
                (List.mapi
                   (fun i (index, cipher) ->
                     if i <> victim || Bytes.length cipher = 0 then (index, cipher)
                     else begin
                       let c = Bytes.copy cipher in
                       let bit = Plan.draw Site.Snapshot_flip ~bound:(Bytes.length c * 8) in
                       let byte = bit / 8 in
                       Bytes.set c byte
                         (Char.chr (Char.code (Bytes.get c byte) lxor (1 lsl (bit mod 8))));
                       (index, c)
                     end)
                   pages))
            b
        else b
      in
      (* Lossy: a page-sized tail of the frame never arrives. The header
         still claims the full length, so decode reports the deficit. *)
      let b =
        if
          is_update b
          && Bytes.length b > header_len + Hw.Addr.page_size
          && Plan.fire Site.Snapshot_truncate
        then Bytes.sub b 0 (Bytes.length b - Hw.Addr.page_size)
        else b
      in
      b
    end
end

(* --- attested secret injection ------------------------------------------ *)

module Owner = struct
  type t = {
    disk_key : bytes;
    minimum_fw_version : Sev.Firmware.version;
    nonce : int64;
    mutable release_count : int;
  }

  let create ?(minimum_fw_version = Sev.Firmware.minimum_safe_version) rng =
    { disk_key = Rng.bytes rng 16;
      minimum_fw_version;
      nonce = Rng.next64 rng;
      release_count = 0 }

  let released t = t.release_count > 0
  let release_count t = t.release_count
  let disk_key t = t.disk_key
end

(* The secret travels wrapped under a key derived from the verified quote's
   MAC: releasing it is meaningful only after the owner has seen (and
   checked) exactly that quote. This stands in for the TIK/TEK-session wrap
   of real LAUNCH_SECRET — the property under test is the gating order, not
   wire secrecy (the simulator's group is toy-sized anyway, DESIGN.md §1). *)
let secret_kek (q : Attest.quote) =
  Sha256.digest (Bytes.cat (Bytes.of_string "fidelius/migrate/secret-kek\x00") q.Attest.mac)

(* --- receive-side state machine ----------------------------------------- *)

type rx_state =
  | Expect_start
  | Streaming of { session : Lifecycle.session; memory_pages : int; next_round : int }
  | Attesting of { dom : Xen.Domain.t; quote : Attest.quote option }
  | Complete of Xen.Domain.t
  | Rx_failed

type rx = { rx_ctx : Ctx.t; mutable rx_state : rx_state }

let rx_create ctx = { rx_ctx = ctx; rx_state = Expect_start }

let rx_domain rx =
  match rx.rx_state with
  | Attesting { dom; _ } | Complete dom -> Some dom
  | Expect_start | Streaming _ | Rx_failed -> None

let of_boot = function
  | Lifecycle.Rejected e -> Rejected e
  | Lifecycle.Failed e -> Boot_failed e

let rx_fail rx err =
  (match rx.rx_state with
  | Streaming { session; _ } -> Lifecycle.receive_abort session
  | _ -> ());
  rx.rx_state <- Rx_failed;
  Error err

let state_name = function
  | Expect_start -> "EXPECT_START"
  | Streaming _ -> "STREAMING"
  | Attesting _ -> "ATTESTING"
  | Complete _ -> "COMPLETE"
  | Rx_failed -> "FAILED"

let inject_secret ctx dom key =
  (* Firmware-assisted injection into the encrypted guest: the key lands at
     the well-known kblk slot in guest page 0, where the guest's unlock code
     (and Lifecycle.kblk_of_guest) looks for it. *)
  Xen.Hypervisor.in_guest ctx.Ctx.hv dom (fun () ->
      Xen.Domain.write ctx.Ctx.machine dom
        ~addr:(Hw.Addr.addr_of 0 Sev.Transport.Owner.kblk_offset)
        key)

(* An UPDATE frame is walked in place before anything acts on it. Framing
   damage refuses it first, then the receive state and the round, then
   the first record that is not one page or names a gfn the guest does
   not have, so a refused round issues no RECEIVE_UPDATE. Only then is
   each record loaded, from its offset in the frame, by a second pass of
   the same walk. *)
let rx_update rx b ~plen =
  let guest_pages =
    match rx.rx_state with Streaming { memory_pages; _ } -> memory_pages | _ -> max_int
  in
  let checked () _ _ _ = () in
  match Wire.walk_update ~memory_pages:guest_pages b ~plen ~init:() checked with
  | Error e -> rx_fail rx e
  | Ok (round, (), refusal) -> (
      match rx.rx_state with
      | Rx_failed -> Error (Protocol_violation "migration stream already failed")
      | Streaming { session; memory_pages; next_round } -> (
          if round <> next_round then
            rx_fail rx
              (Protocol_violation
                 (Printf.sprintf "UPDATE round %d arrived, expected %d" round next_round))
          else
            match refusal with
            | Some r -> rx_fail rx (Malformed (Wire.refusal_message ~memory_pages r))
            | None -> (
                let load acc index off _ =
                  match acc with
                  | Error _ -> acc
                  | Ok () ->
                      Lifecycle.receive_page session ~index ~gfn:(gfn_of_index index) ~src:b
                        ~src_off:off
                in
                match Wire.walk_update ~memory_pages b ~plen ~init:(Ok ()) load with
                | Error e -> rx_fail rx e
                | Ok (_, Error e, _) -> rx_fail rx (of_boot e)
                | Ok (_, Ok (), _) ->
                    rx.rx_state <- Streaming { session; memory_pages; next_round = next_round + 1 };
                    Ok None))
      | state ->
          rx_fail rx
            (Protocol_violation (Printf.sprintf "UPDATE frame in state %s" (state_name state))))

let rx_deliver rx b =
  match Wire.header b with
  | Error e ->
      (* wire damage kills the incoming migration: abort any partial
         domain rather than leave it half-streamed *)
      rx_fail rx e
  | Ok (tag, plen) when tag = Wire.tag_update -> rx_update rx b ~plen
  | Ok (tag, plen) -> (
  match Wire.decode_payload b ~tag ~plen with
  | Error e -> rx_fail rx e
  | Ok frame -> (
  match (rx.rx_state, frame) with
  | Rx_failed, _ -> Error (Protocol_violation "migration stream already failed")
  | Expect_start, Wire.Start { memory_pages; _ }
    when memory_pages < 0 || memory_pages > 1 lsl gfn_bits ->
      (* A guest cannot span more gfns than a transport index can name. *)
      rx_fail rx
        (Malformed
           (Printf.sprintf "START: memory_pages %d outside [0, 2^%d]" memory_pages gfn_bits))
  | Expect_start, Wire.Start { name; memory_pages; policy; nonce; wrapped_keys; origin_public }
    -> (
      match
        Lifecycle.receive_begin rx.rx_ctx ~name ~memory_pages ~wrapped_keys ~origin_public
          ~nonce ~policy
      with
      | Error e -> rx_fail rx (of_boot e)
      | Ok session ->
          rx.rx_state <- Streaming { session; memory_pages; next_round = 0 };
          Ok None)
  | Streaming _, Wire.Finish { gpt_entries; _ }
    when not
           (List.for_all
              (fun (gvfn, (p : Hw.Pagetable.proto)) ->
                gfn_in_range gvfn && gfn_in_range p.Hw.Pagetable.frame)
              gpt_entries) ->
      rx_fail rx (Malformed "FINISH: page-table entry outside the gfn range")
  | Streaming _, Wire.Finish { gpt_entries; _ }
    when List.length
           (List.sort_uniq compare
              (List.map (fun (gvfn, _) -> gvfn / (Hw.Addr.page_size / 8)) gpt_entries))
         > Hw.Machine.frames_free rx.rx_ctx.Ctx.machine ->
      (* Each page-table page the entries name may need a fresh frame. *)
      rx_fail rx (Boot_failed "FINISH: page-table entries need more frames than are free")
  | Streaming { session; _ }, Wire.Finish { measurement; gpt_entries } -> (
      match Lifecycle.receive_complete session ~expected:measurement with
      | Error e -> rx_fail rx (of_boot e)
      | Ok dom ->
          List.iter
            (fun (gvfn, proto) -> Hw.Pagetable.hw_set dom.Xen.Domain.gpt gvfn (Some proto))
            gpt_entries;
          rx.rx_state <- Attesting { dom; quote = None };
          Ok None)
  | Attesting { dom; quote = _ }, Wire.Attest_req { nonce } ->
      let q = Attest.quote rx.rx_ctx ~guest:dom ~nonce () in
      rx.rx_state <- Attesting { dom; quote = Some q };
      Ok (Some (Wire.transmit (Wire.encode (Wire.Attest_resp { quote = Attest.serialize q }))))
  | Attesting { quote = None; _ }, Wire.Secret _ ->
      (* The guest stays up; the secret stays out. No teardown: refusing
         the injection is the fail-closed behaviour. *)
      Error (Protocol_violation "SECRET before any attestation quote was issued")
  | Attesting { dom; quote = Some q }, Wire.Secret { wrapped } -> (
      match Keywrap.of_bytes wrapped with
      | None -> Error (Malformed "SECRET: undecodable wrap")
      | Some w -> (
          match Keywrap.unwrap ~kek:(secret_kek q) w with
          | None -> Error (Rejected "SECRET: wrap not bound to this platform's quote")
          | Some key ->
              inject_secret rx.rx_ctx dom key;
              rx.rx_state <- Complete dom;
              Ok None))
  | state, frame ->
      let tag =
        match frame with
        | Wire.Start _ -> "START"
        | Wire.Update _ -> "UPDATE"
        | Wire.Finish _ -> "FINISH"
        | Wire.Attest_req _ -> "ATTEST_REQ"
        | Wire.Attest_resp _ -> "ATTEST_RESP"
        | Wire.Secret _ -> "SECRET"
      in
      rx_fail rx
        (Protocol_violation (Printf.sprintf "%s frame in state %s" tag (state_name state)))))

(* --- live pre-copy driver ----------------------------------------------- *)

type config = { downtime_budget_us : float }

let default_config = { downtime_budget_us = 10. }

(* Pre-copy stops after this many rounds even if the guest dirties faster
   than the wire drains. *)
let max_rounds = 8

let budget_pages config =
  max 0 (int_of_float (config.downtime_budget_us /. page_us))

type report = {
  rounds : int;
  pages_sent : int;
  residual_pages : int;
  downtime_us : float;
  secret_released : bool;
}

let migrate_live ?(config = default_config) ?owner ?(mutate = fun _ -> ()) ~src ~dst dom =
  let hv = src.Ctx.hv in
  let fw = hv.Xen.Hypervisor.fw in
  match dom.Xen.Domain.sev_handle with
  | None -> Error Not_protected
  | Some handle -> (
      let nonce = Rng.next64 src.Ctx.machine.Hw.Machine.rng in
      let target_public = Sev.Firmware.platform_public dst.Ctx.hv.Xen.Hypervisor.fw in
      match Sev.Firmware.send_start fw ~handle ~target_public ~nonce with
      | Error e -> Error (Send_refused e)
      | Ok wrapped_keys ->
          (* The guest keeps running; from here on the dirty log records
             what the pre-copy loop still owes the target. *)
          Hw.Dirty.start dom.Xen.Domain.dirty;
          let rx = rx_create dst in
          let fail e =
            (* A failed migration must leave the source guest running, and
               free to migrate again: SEND_CANCEL returns its firmware
               context to RUNNING. A receive still streaming is aborted, so
               a refusal on the source side leaves no half-received guest
               on the target either. *)
            Hw.Dirty.stop dom.Xen.Domain.dirty;
            ignore (Sev.Firmware.send_cancel fw ~handle);
            if dom.Xen.Domain.state = Xen.Domain.Paused then
              dom.Xen.Domain.state <- Xen.Domain.Runnable;
            rx_fail rx e
          in
          let ( let* ) r k = match r with Error e -> fail e | Ok v -> k v in
          let deliver_bytes b = rx_deliver rx (Wire.transmit b) in
          let deliver frame = deliver_bytes (Wire.encode frame) in
          let mapped =
            Hw.Pagetable.mapped_frames dom.Xen.Domain.npt
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          let span = List.fold_left (fun m (g, _) -> max m (g + 1)) 0 mapped in
          (* One round's UPDATE frame, sized from the gfns still mapped: each
             page is SEND_UPDATEd straight into its record. Returns the frame
             and its page count. *)
          let update_frame round gfns =
            let records =
              List.filter_map
                (fun gfn ->
                  match Hw.Pagetable.lookup dom.Xen.Domain.npt gfn with
                  | None -> None (* unmapped since it was dirtied: nothing to send *)
                  | Some npte -> Some (index_of ~round ~gfn, npte.Hw.Pagetable.frame))
                gfns
            in
            Wire.write_update ~round ~index:fst
              ~len:(fun _ -> Hw.Addr.page_size)
              ~put:(fun (index, src_pfn) dst dst_off ->
                Result.map_error
                  (fun e -> Send_refused e)
                  (Sev.Firmware.send_update_into fw ~handle ~index ~src_pfn ~dst ~dst_off))
              records
            |> Result.map (fun frame -> (frame, List.length records))
          in
          let* _ =
            deliver
              (Wire.Start
                 { name = dom.Xen.Domain.name;
                   memory_pages = span;
                   policy = Sev.Firmware.policy_nodbg;
                   nonce;
                   wrapped_keys;
                   origin_public = Sev.Firmware.platform_public fw })
          in
          let budget = budget_pages config in
          let finish_with ~round ~pages_sent ~residual =
            match Sev.Firmware.send_finish fw ~handle with
            | Error e -> fail (Send_refused e)
            | Ok measurement ->
                let* _ =
                  deliver
                    (Wire.Finish
                       { measurement;
                         gpt_entries = Hw.Pagetable.mapped_frames dom.Xen.Domain.gpt })
                in
                let report ~secret_released =
                  { rounds = round + 2;
                    pages_sent;
                    residual_pages = residual;
                    downtime_us = float_of_int residual *. page_us;
                    secret_released }
                in
                let complete ~secret_released =
                  let dst_dom =
                    match rx_domain rx with Some d -> d | None -> assert false
                  in
                  (* Cut over: only now does the source instance die. *)
                  Lifecycle.shutdown_protected_vm src dom;
                  Ok (dst_dom, report ~secret_released)
                in
                (match owner with
                | None -> complete ~secret_released:false
                | Some o ->
                    (* On any refusal the cut-over is cancelled: the target
                       instance is destroyed and the source resumes. *)
                    let refuse err =
                      (match rx_domain rx with
                      | Some d -> Lifecycle.shutdown_protected_vm dst d
                      | None -> ());
                      fail err
                    in
                    if Plan.armed () && Plan.fire Site.Secret_before_attest then begin
                      (* Broken tooling pushes a LAUNCH_SECRET before any
                         quote was requested. The owner released nothing;
                         whatever blob the tooling fabricated is bound to no
                         quote and the receiver must refuse it. *)
                      let bogus =
                        Keywrap.wrap ~kek:(Bytes.make 32 '\000') (Bytes.make 16 '\000')
                      in
                      match deliver (Wire.Secret { wrapped = Keywrap.to_bytes bogus }) with
                      | Error e -> refuse e
                      | Ok _ ->
                          refuse
                            (Protocol_violation "receiver accepted a SECRET sent before attestation")
                    end
                    else
                      match deliver (Wire.Attest_req { nonce = o.Owner.nonce }) with
                      | Error e -> refuse e
                      | Ok None -> refuse (Protocol_violation "no quote came back")
                      | Ok (Some reply) -> (
                          match Wire.decode reply with
                          | Error e -> refuse e
                          | Ok (Wire.Attest_resp { quote }) -> (
                              match Attest.deserialize quote with
                              | None -> refuse (Malformed "quote has the wrong wire length")
                              | Some q -> (
                                  let attestation_key =
                                    Sev.Firmware.attestation_key dst.Ctx.hv.Xen.Hypervisor.fw
                                  in
                                  match
                                    Attest.verify ~attestation_key
                                      ~expected_xen_measurement:dst.Ctx.xen_measurement
                                      ~minimum_fw_version:o.Owner.minimum_fw_version
                                      ~nonce:o.Owner.nonce q
                                  with
                                  | Error (Attest.Stale_firmware { got; minimum }) ->
                                      refuse (Stale_firmware { got; minimum })
                                  | Error e -> refuse (Attest_refused e)
                                  | Ok () -> (
                                      o.Owner.release_count <- o.Owner.release_count + 1;
                                      let wrapped =
                                        Keywrap.wrap ~kek:(secret_kek q) o.Owner.disk_key
                                      in
                                      match
                                        deliver
                                          (Wire.Secret { wrapped = Keywrap.to_bytes wrapped })
                                      with
                                      | Error e -> refuse e
                                      | Ok _ -> complete ~secret_released:true)))
                          | Ok _ -> refuse (Protocol_violation "expected an ATTEST_RESP reply")))
          in
          let rec precopy round gfns pages_sent =
            let* frame, sent = update_frame round gfns in
            let* _ = deliver_bytes frame in
            let pages_sent = pages_sent + sent in
            (* The guest ran while the round was on the wire. *)
            mutate round;
            let dirty = Hw.Dirty.drain dom.Xen.Domain.dirty in
            if List.length dirty <= budget || round + 1 >= max_rounds then begin
              (* Residual fits the downtime budget (or we hit the round
                 cap): stop-and-copy what remains. *)
              dom.Xen.Domain.state <- Xen.Domain.Paused;
              Hw.Dirty.stop dom.Xen.Domain.dirty;
              let* frame, residual = update_frame (round + 1) dirty in
              let* _ = deliver_bytes frame in
              finish_with ~round ~pages_sent:(pages_sent + residual) ~residual
            end
            else precopy (round + 1) dirty pages_sent
          in
          precopy 0 (List.map fst mapped) 0)
