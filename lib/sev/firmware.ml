module Rng = Fidelius_crypto.Rng
module Dh = Fidelius_crypto.Dh
module Keywrap = Fidelius_crypto.Keywrap
module Machine = Fidelius_hw.Machine
module Memctrl = Fidelius_hw.Memctrl
module Physmem = Fidelius_hw.Physmem
module Addr = Fidelius_hw.Addr
module Cost = Fidelius_hw.Cost
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site
module Aes = Fidelius_crypto.Aes

type handle = int

type version = { api_major : int; api_minor : int; build : int }

(* The blob AMD ships today, the last blob with a published key-extraction
   bug, and the owner-policy floor between them ("Insecure Until Proven
   Updated": the guest owner must refuse any platform reporting a build
   below the first fixed one, whatever its measurement says). *)
let current_version = { api_major = 0; api_minor = 24; build = 15 }
let vulnerable_version = { api_major = 0; api_minor = 17; build = 5 }
let minimum_safe_version = { api_major = 0; api_minor = 22; build = 3 }

let version_compare a b =
  match compare a.api_major b.api_major with
  | 0 -> (
      match compare a.api_minor b.api_minor with
      | 0 -> compare a.build b.build
      | c -> c)
  | c -> c

let version_at_least v ~minimum = version_compare v minimum >= 0

let version_to_string v = Printf.sprintf "%d.%d.%d" v.api_major v.api_minor v.build
let pp_version fmt v = Format.pp_print_string fmt (version_to_string v)

(* [kvek] is the guest key's one schedule, expanded when LAUNCH_START or
   RECEIVE_START creates the key. The helper contexts of LAUNCH(shared)
   and RECEIVE_START [~kvek_of] hold the same schedule, and ACTIVATE
   installs it as is. DECOMMISSION drops it from every context that holds
   it. *)
type guest_ctx = {
  handle : handle;
  mutable state : State.t;
  mutable kvek : Aes.key option;
  policy : int;
  mutable asid : int option;
  mutable tek : Transport.tek_key option;
  mutable tik : bytes option;
  mutable nonce : int64;
  mutable measure : Measure.t;
}

type t = {
  machine : Machine.t;
  mutable is_initialized : bool;
  contexts : (handle, guest_ctx) Hashtbl.t;
  mutable next_handle : handle;
  platform_secret : Dh.secret;
  platform_pub : Dh.public;
  rng : Rng.t;
  geks : (handle * int, Aes.key) Hashtbl.t;
      (* each GEK expanded once, at SETENC_GEK; DECOMMISSION of the
         handle drops them *)
  mutable next_gek : int;
  mutable fw_version : version;
  (* Plaintext scratch for the page commands: SEND_UPDATE, RECEIVE_UPDATE
     and the I/O transforms stage a page's plaintext here. Ciphertext is
     read and written where the caller keeps it (a wire frame, a loaded
     guest frame). Nothing in it outlives one command, so one page per
     firmware (hence per machine, local to one fleet job) serves every
     page; what a command returns is always a fresh buffer. *)
  plain : bytes;
}

let policy_nodbg = 1
let policy_nosend = 2

let create machine =
  let rng = Rng.split machine.Machine.rng in
  let platform_secret, platform_pub = Dh.generate rng in
  { machine;
    is_initialized = false;
    contexts = Hashtbl.create 16;
    next_handle = 1;
    platform_secret;
    platform_pub;
    rng;
    geks = Hashtbl.create 16;
    next_gek = 1;
    fw_version = current_version;
    plain = Bytes.create Addr.page_size }

(* The hypervisor controls which blob the secure processor boots — that is
   the rollback attack, and nothing here stops it. The platform identity
   key survives the swap (old firmware held the same fuses), so quotes from
   the downgraded blob still MAC-verify; the reported version is the only
   tell, which is exactly why the owner's verifier must check it. *)
let load_blob t v = t.fw_version <- v
let version t = t.fw_version

module Trace = Fidelius_obs.Trace

let c_sev_fw = Cost.intern "sev-fw"

let charge_cmd t name =
  Cost.charge_id t.machine.Machine.ledger c_sev_fw t.machine.Machine.costs.Cost.firmware_cmd;
  if Trace.enabled () then Trace.emit (Trace.Fw_cmd name)

(* The secure processor's stores are coherent with the CPU caches: evict
   any stale plaintext lines whenever the firmware rewrites a frame. *)
let coherent_write t ~key pfn plain =
  Memctrl.fw_write_page t.machine.Machine.ctrl ~key pfn plain;
  Fidelius_hw.Cache.invalidate_page t.machine.Machine.cache pfn

let coherent_encrypt t ~key pfn =
  Memctrl.fw_encrypt_page t.machine.Machine.ctrl ~key pfn;
  Fidelius_hw.Cache.invalidate_page t.machine.Machine.cache pfn
let charge_page t name =
  Cost.charge_id t.machine.Machine.ledger c_sev_fw t.machine.Machine.costs.Cost.firmware_page;
  if Trace.enabled () then Trace.emit (Trace.Fw_cmd name)

let ( let* ) = Result.bind

(* Each command's entry in the state table, resolved once: checking a
   context against it neither scans the table nor allocates. *)
module Row = struct
  let launch_start = State.command "LAUNCH_START"
  let launch_update = State.command "LAUNCH_UPDATE"
  let launch_finish = State.command "LAUNCH_FINISH"
  let launch_shared = State.command "LAUNCH(shared)"
  let send_start = State.command "SEND_START"
  let send_update = State.command "SEND_UPDATE"
  let send_update_io = State.command "SEND_UPDATE(io)"
  let send_finish = State.command "SEND_FINISH"
  let send_cancel = State.command "SEND_CANCEL"
  let receive_start = State.command "RECEIVE_START"
  let receive_update = State.command "RECEIVE_UPDATE"
  let receive_update_io = State.command "RECEIVE_UPDATE(io)"
  let receive_finish = State.command "RECEIVE_FINISH"
  let setenc_gek = State.command "SETENC_GEK"
  let enc = State.command "ENC"
  let dec = State.command "DEC"
  let decommission = State.command "DECOMMISSION"
end

let initialized t = t.is_initialized

let init t =
  charge_cmd t "INIT";
  if t.is_initialized then Error "INIT: platform already initialized"
  else begin
    t.is_initialized <- true;
    Ok ()
  end

let platform_public t = t.platform_pub

let need_init t cmd =
  if t.is_initialized then Ok () else Error (cmd ^ ": platform not initialized")

let ctx t handle cmd =
  match Hashtbl.find_opt t.contexts handle with
  | Some c when c.state <> State.Decommissioned -> Ok c
  | Some _ -> Error (Printf.sprintf "%s: handle %d is decommissioned" cmd handle)
  | None -> Error (Printf.sprintf "%s: unknown handle %d" cmd handle)

(* The one entry of every command that names a context with a row:
   charge it under the row's mnemonic ([charge_cmd], or [charge_page] for
   a per-page command) before anything can refuse it, look up the live
   context and check its state against the row. A context that passes
   costs no allocation beyond [ctx]'s [Ok]. *)
let enter t ~charge row ~handle =
  let name = State.name row in
  charge t name;
  match ctx t handle name with
  | Error _ as e -> e
  | Ok c as ok -> ( match State.check c.state row with Ok () -> ok | Error e -> Error e)

(* A context [ctx] hands out is live, and only DECOMMISSION drops a
   context's Kvek. *)
let kvek c = Option.get c.kvek

let fresh_kvek t = Some (Aes.expand (Rng.bytes t.rng 16))

(* Every context starts here, in the state its starting command's row
   of the state table names: LAUNCH_START, RECEIVE_START and
   LAUNCH(shared)'s helper. *)
let start t ~state ~kvek ~policy ?tek ?tik ?(nonce = 0L) () =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  Hashtbl.replace t.contexts handle
    { handle; state; kvek; policy; asid = None; tek; tik; nonce; measure = Measure.create () };
  Ok handle

let launch_start t ~policy =
  charge_cmd t "LAUNCH_START";
  let* () = need_init t "LAUNCH_START" in
  start t ~state:(State.next Row.launch_start) ~kvek:(fresh_kvek t) ~policy ()

let launch_update t ~handle ~pfn =
  let* c = enter t ~charge:charge_page Row.launch_update ~handle in
  let plain = Physmem.read_raw t.machine.Machine.mem pfn ~off:0 ~len:Addr.page_size in
  Measure.add_page c.measure ~index:pfn plain;
  coherent_encrypt t ~key:(kvek c) pfn;
  c.state <- State.next Row.launch_update;
  Ok ()

let launch_finish t ~handle =
  let* c = enter t ~charge:charge_cmd Row.launch_finish ~handle in
  c.state <- State.next Row.launch_finish;
  (* Unkeyed digest: the launch flow's attestation root. *)
  Ok (Measure.finalize c.measure ~tik:(Bytes.create 0))

let launch_shared t ~handle =
  let* c = enter t ~charge:charge_cmd Row.launch_shared ~handle in
  start t ~state:(State.next Row.launch_shared) ~kvek:c.kvek ~policy:c.policy ()

(* ACTIVATE binds handle to ASID with no ownership validation: the
   handle/ASID relationship is hypervisor-managed state, which is precisely
   the weakness the paper points out. *)
let activate t ~handle ~asid =
  charge_cmd t "ACTIVATE";
  let* c = ctx t handle "ACTIVATE" in
  if asid <= 0 then Error "ACTIVATE: ASID must be positive"
  else begin
    c.asid <- Some asid;
    Memctrl.install_key t.machine.Machine.ctrl ~asid (kvek c);
    Ok ()
  end

let deactivate t ~handle =
  charge_cmd t "DEACTIVATE";
  let* c = ctx t handle "DEACTIVATE" in
  match c.asid with
  | None -> Error "DEACTIVATE: guest not activated"
  | Some asid ->
      Memctrl.uninstall_key t.machine.Machine.ctrl ~asid;
      c.asid <- None;
      Ok ()

(* A Kvek has one life: DECOMMISSION retires every context holding it —
   the guest and the helpers LAUNCH(shared) and RECEIVE_START [~kvek_of]
   made from it — in the one command. Each loses its key slot, its Kvek
   and its GEKs. *)
let decommission t ~handle =
  let* c = enter t ~charge:charge_cmd Row.decommission ~handle in
  let key = kvek c in
  Hashtbl.iter
    (fun h other ->
      match other.kvek with
      | Some k when k == key ->
          Option.iter (fun asid -> Memctrl.uninstall_key t.machine.Machine.ctrl ~asid) other.asid;
          other.asid <- None;
          other.state <- State.next Row.decommission;
          other.kvek <- None;
          Hashtbl.filter_map_inplace (fun (g, _) k -> if g = h then None else Some k) t.geks
      | _ -> ())
    t.contexts;
  Ok ()

let state_of t ~handle =
  Option.map (fun c -> c.state) (Hashtbl.find_opt t.contexts handle)

let asid_of t ~handle =
  Option.bind (Hashtbl.find_opt t.contexts handle) (fun c -> c.asid)

let send_start t ~handle ~target_public ~nonce =
  let* c = enter t ~charge:charge_cmd Row.send_start ~handle in
  let* () =
    if c.policy land policy_nosend <> 0 then
      Error "SEND_START: forbidden by guest policy (NOSEND)"
    else Ok ()
  in
  let tek = Rng.bytes t.rng 16 and tik = Rng.bytes t.rng 32 in
  c.tek <- Some (Transport.tek_key tek);
  c.tik <- Some tik;
  c.nonce <- nonce;
  c.measure <- Measure.create ();
  c.state <- State.next Row.send_start;
  let kek =
    Transport.derive_master_secret ~secret:t.platform_secret ~peer_public:target_public ~nonce
  in
  Ok (Keywrap.wrap ~kek (Bytes.cat tek tik))

(* The one SEND_UPDATE body: the guest frame is decrypted under Kvek into
   the plaintext scratch, measured, and CTR-encrypted under Ktek straight
   into [dst] at [dst_off]. A page that would leave [dst] is refused
   before anything is charged. *)
let send_update_into t ~handle ~index ~src_pfn ~dst ~dst_off =
  if dst_off < 0 || dst_off > Bytes.length dst - Addr.page_size then
    invalid_arg "Firmware.send_update_into: the page leaves dst";
  let* c = enter t ~charge:charge_page Row.send_update ~handle in
  match c.tek with
  | None -> Error "SEND_UPDATE: no transport key"
  | Some tek ->
      c.state <- State.next Row.send_update;
      let plain = t.plain in
      Memctrl.fw_decrypt_page_into t.machine.Machine.ctrl ~key:(kvek c) src_pfn ~dst:plain;
      Measure.add_page c.measure ~index plain;
      Transport.page_ctr_into ~tek ~index ~src:plain ~src_off:0 ~dst ~dst_off;
      Ok ()

let send_update t ~handle ~index ~src_pfn =
  let cipher = Bytes.create Addr.page_size in
  let* () = send_update_into t ~handle ~index ~src_pfn ~dst:cipher ~dst_off:0 in
  Ok cipher

let send_finish t ~handle =
  let* c = enter t ~charge:charge_cmd Row.send_finish ~handle in
  match c.tik with
  | None -> Error "SEND_FINISH: no integrity key"
  | Some tik ->
      c.state <- State.next Row.send_finish;
      Measure.add_data c.measure (Transport.measurement_meta ~policy:c.policy ~nonce:c.nonce);
      Ok (Measure.finalize c.measure ~tik)

let send_cancel t ~handle =
  let* c = enter t ~charge:charge_cmd Row.send_cancel ~handle in
  c.tek <- None;
  c.tik <- None;
  c.measure <- Measure.create ();
  c.state <- State.next Row.send_cancel;
  Ok ()

let receive_start t ~wrapped ~origin_public ~nonce ~policy ?kvek_of () =
  charge_cmd t "RECEIVE_START";
  let* () = need_init t "RECEIVE_START" in
  let* () =
    if Dh.in_group origin_public then Ok ()
    else Error "RECEIVE_START: origin public value outside the group"
  in
  let kek =
    Transport.derive_master_secret ~secret:t.platform_secret ~peer_public:origin_public ~nonce
  in
  match Keywrap.unwrap ~kek wrapped with
  | None -> Error "RECEIVE_START: transport key unwrap failed (wrong platform or tampered)"
  | Some keys when Bytes.length keys <> 48 -> Error "RECEIVE_START: malformed transport keys"
  | Some keys -> (
      let tek = Transport.tek_key (Bytes.sub keys 0 16) and tik = Bytes.sub keys 16 32 in
      let* kvek =
        match kvek_of with
        | None -> Ok (fresh_kvek t)
        | Some h ->
            let* src = ctx t h "RECEIVE_START(kvek_of)" in
            Ok src.kvek
      in
      start t ~state:(State.next Row.receive_start) ~kvek ~policy ~tek ~tik ~nonce ())

(* The one RECEIVE_UPDATE body: [len] bytes of transport ciphertext sit
   in [src] at [src_off]; a full page is CTR-decrypted under Ktek into the
   plaintext scratch, measured, and stored under Kvek at [dst_pfn]. *)
let receive_update_from t ~handle ~index ~src ~src_off ~len ~dst_pfn =
  let* c = enter t ~charge:charge_page Row.receive_update ~handle in
  match c.tek with
  | None -> Error "RECEIVE_UPDATE: no transport key"
  | Some tek ->
      if len <> Addr.page_size then Error "RECEIVE_UPDATE: need a full page"
      else if Plan.armed () && Plan.fire Site.Fw_drop then
        (* a hostile platform silently discards the command yet reports
           success; the gap must surface at RECEIVE_FINISH, not here *)
        Ok ()
      else begin
        c.state <- State.next Row.receive_update;
        let plain = t.plain in
        Transport.page_ctr_into ~tek ~index ~src ~src_off ~dst:plain ~dst_off:0;
        let apply () =
          Measure.add_page c.measure ~index plain;
          coherent_write t ~key:(kvek c) dst_pfn plain
        in
        apply ();
        if Plan.armed () && Plan.fire Site.Fw_replay then apply ();
        Ok ()
      end

let receive_update t ~handle ~index ~cipher ~dst_pfn =
  receive_update_from t ~handle ~index ~src:cipher ~src_off:0 ~len:(Bytes.length cipher)
    ~dst_pfn

(* The ciphertext is decrypted where the hypervisor loaded it: the frame's
   own bytes in the backing block, read before they are overwritten. *)
let receive_update_in_place t ~handle ~index ~pfn =
  let block = Physmem.view t.machine.Machine.mem pfn ~off:0 ~len:Addr.page_size in
  receive_update_from t ~handle ~index ~src:block ~src_off:(Physmem.base pfn)
    ~len:Addr.page_size ~dst_pfn:pfn

let receive_finish t ~handle ~expected =
  let* c = enter t ~charge:charge_cmd Row.receive_finish ~handle in
  match c.tik with
  | None -> Error "RECEIVE_FINISH: no integrity key"
  | Some tik ->
      Measure.add_data c.measure (Transport.measurement_meta ~policy:c.policy ~nonce:c.nonce);
      if Measure.verify c.measure ~tik ~expected then begin
        c.state <- State.next Row.receive_finish;
        Ok ()
      end
      else Error "RECEIVE_FINISH: measurement mismatch (image tampered or replayed)"

(* --- I/O transforms: the SEND/RECEIVE retrofit and the GEK family -------- *)

(* Both I/O command pairs run one body each way. [io_out] turns the first
   [len] bytes of a Kvek-encrypted guest frame into CTR ciphertext under
   the command's key; [io_in] is its inverse, a read-modify-write of the
   Kvek frame in which only the payload prefix changes. The pairs differ
   in their row of the state table and in [key_of]: the helper's transport
   key Ktek (SEND_UPDATE(io), RECEIVE_UPDATE(io)) or one of the guest's
   GEKs (ENC, DEC). *)
let io_command t ~cmd ~handle ~key_of ~len =
  let* c = enter t ~charge:charge_page cmd ~handle in
  let name = State.name cmd in
  let* key = key_of c name in
  if len <= 0 || len > Addr.page_size then Error (name ^ ": bad length")
  else begin
    c.state <- State.next cmd;
    Ok (c, key)
  end

let io_out t ~cmd ~handle ~key_of ~nonce ~src_pfn ~len =
  let* c, key = io_command t ~cmd ~handle ~key_of ~len in
  Memctrl.fw_decrypt_page_into t.machine.Machine.ctrl ~key:(kvek c) src_pfn ~dst:t.plain;
  let cipher = Bytes.create len in
  Aes.ctr_into key ~nonce ~src:t.plain ~src_off:0 ~dst:cipher ~dst_off:0 ~len;
  Ok cipher

let io_in t ~cmd ~handle ~key_of ~nonce ~cipher ~dst_pfn =
  let len = Bytes.length cipher in
  let* c, key = io_command t ~cmd ~handle ~key_of ~len in
  let kvek = kvek c in
  Memctrl.fw_decrypt_page_into t.machine.Machine.ctrl ~key:kvek dst_pfn ~dst:t.plain;
  Aes.ctr_into key ~nonce ~src:cipher ~src_off:0 ~dst:t.plain ~dst_off:0 ~len;
  coherent_write t ~key:kvek dst_pfn t.plain;
  Ok ()

let tek_of c cmd =
  match c.tek with
  | Some tek -> Ok tek.Transport.aes
  | None -> Error (cmd ^ ": no transport key")

let send_update_io t = io_out t ~cmd:Row.send_update_io ~key_of:tek_of

let receive_update_io t = io_in t ~cmd:Row.receive_update_io ~key_of:tek_of

(* Customized-key extension (paper Section 8). *)

let setenc_gek t ~handle =
  let* c = enter t ~charge:charge_cmd Row.setenc_gek ~handle in
  c.state <- State.next Row.setenc_gek;
  let id = t.next_gek in
  t.next_gek <- id + 1;
  Hashtbl.replace t.geks (handle, id) (Aes.expand (Rng.bytes t.rng 16));
  Ok id

let geks_held t = Hashtbl.length t.geks

let gek_of t gek c cmd =
  match Hashtbl.find_opt t.geks (c.handle, gek) with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "%s: no GEK %d for handle %d" cmd gek c.handle)

let enc_range t ~handle ~gek = io_out t ~cmd:Row.enc ~handle ~key_of:(gek_of t gek)

let dec_range t ~handle ~gek = io_in t ~cmd:Row.dec ~handle ~key_of:(gek_of t gek)

(* --- attestation -------------------------------------------------------- *)

let attestation_key t =
  (* Derived from the platform identity; conceptually the public half of a
     signing pair distributed via the manufacturer certificate chain. *)
  Fidelius_crypto.Sha256.digest
    (Bytes.cat (Dh.public_to_bytes t.platform_pub) (Bytes.of_string "attest-key"))

let quote_payload ~data ~nonce =
  let b = Bytes.create (8 + Bytes.length data) in
  Bytes.set_int64_be b 0 nonce;
  Bytes.blit data 0 b 8 (Bytes.length data);
  b

let attest t ~data ~nonce =
  charge_cmd t "ATTEST";
  Fidelius_crypto.Hmac.mac ~key:(attestation_key t) (quote_payload ~data ~nonce)

let verify_quote ~attestation_key ~data ~nonce ~quote =
  Fidelius_crypto.Hmac.verify ~key:attestation_key ~tag:quote (quote_payload ~data ~nonce)

let dbg_decrypt t ~handle ~pfn =
  charge_page t "DBG_DECRYPT";
  let* c = ctx t handle "DBG_DECRYPT" in
  if c.policy land policy_nodbg <> 0 then
    Error "DBG_DECRYPT: forbidden by guest policy (NODBG)"
  else Ok (Memctrl.fw_decrypt_page t.machine.Machine.ctrl ~key:(kvek c) pfn)
