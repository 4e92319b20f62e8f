module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Aes = Fidelius_crypto.Aes
module Modes = Fidelius_crypto.Modes
module Rng = Fidelius_crypto.Rng

let sector_size = Xen.Vdisk.sector_size

(* Tweak space: each sector owns 64 consecutive tweak values (only 32 are
   used), so sectors never collide. *)
let tweaks_per_sector = 64

let sector_tweak sector = Int64.of_int (sector * tweaks_per_sector)

let whole_sectors b =
  let n = Bytes.length b in
  if n mod sector_size <> 0 then invalid_arg "io_protect: data must be whole sectors";
  n / sector_size

(* Whole-run transform: a batch of consecutive sectors rides ONE bulk Aes
   call (like the Memctrl page path) instead of a per-sector loop — the
   sector-lane tweak layout above is exactly what Modes.xex_*_sectors
   encodes. Byte-identical to per-sector Modes.xex_encrypt calls. [dst]
   may be [src]: the codecs transform the frame buffer in place. *)
let xex_sectors_into ~key ~sector ~encrypt ~src ~dst =
  let nsectors = whole_sectors src in
  (if encrypt then Modes.xex_encrypt_sectors else Modes.xex_decrypt_sectors)
    key ~tweak0:(sector_tweak sector)
    ~sector_stride:(Int64.of_int tweaks_per_sector)
    ~sector_bytes:sector_size ~src ~src_off:0 ~dst ~dst_off:0 ~nsectors

let xex_sectors ~key ~sector ~encrypt data =
  let out = Bytes.create (Bytes.length data) in
  xex_sectors_into ~key ~sector ~encrypt ~src:data ~dst:out;
  out

(* Per-codec charge labels, interned once (at module init for the fixed
   codecs, at codec construction for [keyed_codec]) so the per-transfer
   charge never hashes the label string. *)
let c_io_sev = Hw.Cost.intern "io-encode-sev"
let c_io_gek = Hw.Cost.intern "io-encode-gek"

let charge_blocks ctx label_id rate data =
  let machine = ctx.Ctx.machine in
  let blocks = (Bytes.length data + Hw.Addr.block_size - 1) / Hw.Addr.block_size in
  let extra = max 0 (rate - machine.Hw.Machine.costs.Hw.Cost.memcpy_block) in
  Hw.Cost.charge_id machine.Hw.Machine.ledger label_id (blocks * extra)

let keyed_codec ctx ~name ~rate ~label ~kblk =
  let key = Aes.expand kblk in
  let label_id = Hw.Cost.intern label in
  { Xen.Blkif.codec_name = name;
    encode =
      (fun ~sector buf ->
        charge_blocks ctx label_id rate buf;
        xex_sectors_into ~key ~sector ~encrypt:true ~src:buf ~dst:buf);
    decode =
      (fun ~sector buf ->
        charge_blocks ctx label_id rate buf;
        xex_sectors_into ~key ~sector ~encrypt:false ~src:buf ~dst:buf) }

let aesni_codec ctx ~kblk =
  keyed_codec ctx ~name:"aes-ni"
    ~rate:ctx.Ctx.machine.Hw.Machine.costs.Hw.Cost.aesni_block
    ~label:"io-encode-aesni" ~kblk

let software_codec ctx ~kblk =
  keyed_codec ctx ~name:"software-aes"
    ~rate:ctx.Ctx.machine.Hw.Machine.costs.Hw.Cost.sw_aes_block
    ~label:"io-encode-sw" ~kblk

(* --- staged firmware codecs ------------------------------------------------ *)

(* Md: the guest-private staging page both firmware codecs write each
   sector through, so the firmware reads and writes it under Kvek. *)
type md = { md_ctx : Ctx.t; md_dom : Xen.Domain.t; md_pfn : Hw.Addr.pfn; md_gva : int }

let ( let* ) = Result.bind

(* Map and zero Md at [md_gvfn]; returns the guest's firmware handle with
   it. [who] prefixes the errors. *)
let setup_md ctx ~who (dom : Xen.Domain.t) ~md_gvfn =
  let hv = ctx.Ctx.hv in
  let machine = ctx.Ctx.machine in
  match dom.Xen.Domain.sev_handle with
  | None -> Error (who ^ ": domain is not SEV-protected")
  | Some handle -> (
      let md_gfn = Xen.Domain.alloc_gfn dom in
      Xen.Domain.guest_map dom ~gvfn:md_gvfn ~gfn:md_gfn ~writable:true ~executable:false
        ~c_bit:true;
      let md_gva = Hw.Addr.addr_of md_gvfn 0 in
      Xen.Hypervisor.in_guest hv dom (fun () ->
          Xen.Domain.write machine dom ~addr:md_gva (Bytes.make Hw.Addr.page_size '\000'));
      match Hw.Pagetable.lookup dom.Xen.Domain.npt md_gfn with
      | Some npte ->
          Ok (handle, { md_ctx = ctx; md_dom = dom; md_pfn = npte.Hw.Pagetable.frame; md_gva })
      | None -> Error (who ^ ": Md page not backed"))

(* The one per-sector body of both firmware codecs. Encoding stages each
   sector in Md from inside the guest, then [out] (SEND_UPDATE(io) or ENC)
   turns it into ciphertext for the shared frame; decoding has [into]
   (RECEIVE_UPDATE(io) or DEC) land the ciphertext in Md, and the guest
   reads the plaintext back. The sector number is the CTR nonce both ways,
   and each sector's result is blitted back over it. *)
let staged_codec md ~name ~label ~out ~into =
  let ctx = md.md_ctx in
  let hv = ctx.Ctx.hv in
  let machine = ctx.Ctx.machine in
  let dom = md.md_dom in
  let rate = machine.Hw.Machine.costs.Hw.Cost.sev_engine_block in
  let result = function Ok v -> v | Error e -> failwith (name ^ " codec: " ^ e) in
  let per_sector f ~sector buf =
    charge_blocks ctx label rate buf;
    for i = 0 to whole_sectors buf - 1 do
      let off = i * sector_size in
      let piece = f ~nonce:(Int64.of_int (sector + i)) (Bytes.sub buf off sector_size) in
      Bytes.blit piece 0 buf off sector_size
    done
  in
  let encode =
    per_sector (fun ~nonce piece ->
        Xen.Hypervisor.in_guest hv dom (fun () ->
            Xen.Domain.write machine dom ~addr:md.md_gva piece);
        result (out ~nonce ~src_pfn:md.md_pfn ~len:sector_size))
  in
  let decode =
    per_sector (fun ~nonce cipher ->
        result (into ~nonce ~cipher ~dst_pfn:md.md_pfn);
        Xen.Hypervisor.in_guest hv dom (fun () ->
            Xen.Domain.read machine dom ~addr:md.md_gva ~len:sector_size))
  in
  { Xen.Blkif.codec_name = name; encode; decode }

let fw_of md = md.md_ctx.Ctx.hv.Xen.Hypervisor.fw

type sev_io = { sev_md : md; s_handle : int; r_handle : int }

let setup_sev_io ctx dom ~md_gvfn =
  let* guest_handle, md = setup_md ctx ~who:"sev_io" dom ~md_gvfn in
  let fw = fw_of md in
  (* Helper contexts: s-dom shares Kvek and goes SENDING; r-dom shares
     Kvek and the same transport keys, and goes RECEIVING. *)
  let* s_handle = Sev.Firmware.launch_shared fw ~handle:guest_handle in
  let nonce = Rng.next64 ctx.Ctx.machine.Hw.Machine.rng in
  let platform = Sev.Firmware.platform_public fw in
  let* wrapped = Sev.Firmware.send_start fw ~handle:s_handle ~target_public:platform ~nonce in
  let* r_handle =
    Sev.Firmware.receive_start fw ~wrapped ~origin_public:platform ~nonce
      ~policy:Sev.Firmware.policy_nodbg ~kvek_of:guest_handle ()
  in
  Ok { sev_md = md; s_handle; r_handle }

let sev_codec io =
  let fw = fw_of io.sev_md in
  staged_codec io.sev_md ~name:"sev-api" ~label:c_io_sev
    ~out:(Sev.Firmware.send_update_io fw ~handle:io.s_handle)
    ~into:(Sev.Firmware.receive_update_io fw ~handle:io.r_handle)

let helper_handles io = (io.s_handle, io.r_handle)

type gek_io = { gek_md : md; g_handle : int; g_gek : int }

let setup_gek_io ctx dom ~md_gvfn =
  let* handle, md = setup_md ctx ~who:"gek_io" dom ~md_gvfn in
  (* One command; the guest stays RUNNING. *)
  let* gek = Sev.Firmware.setenc_gek (fw_of md) ~handle in
  Ok { gek_md = md; g_handle = handle; g_gek = gek }

let gek_codec io =
  let fw = fw_of io.gek_md in
  staged_codec io.gek_md ~name:"gek" ~label:c_io_gek
    ~out:(Sev.Firmware.enc_range fw ~handle:io.g_handle ~gek:io.g_gek)
    ~into:(Sev.Firmware.dec_range fw ~handle:io.g_handle ~gek:io.g_gek)

let gek_id io = io.g_gek

let pad_sectors data =
  let n = Bytes.length data in
  let padded = ((n + sector_size - 1) / sector_size) * sector_size in
  let out = Bytes.make (max padded sector_size) '\000' in
  Bytes.blit data 0 out 0 n;
  out

let encrypt_disk ~kblk data =
  let key = Aes.expand kblk in
  xex_sectors ~key ~sector:0 ~encrypt:true (pad_sectors data)

let decrypt_disk ~kblk data =
  let key = Aes.expand kblk in
  xex_sectors ~key ~sector:0 ~encrypt:false (pad_sectors data)
