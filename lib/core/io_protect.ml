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

(* The firmware codecs work a sector at a time: each sector's result is
   blitted back over it. *)
let per_sector f ~sector buf =
  for i = 0 to whole_sectors buf - 1 do
    let off = i * sector_size in
    Bytes.blit (f ~sector:(sector + i) (Bytes.sub buf off sector_size)) 0 buf off sector_size
  done

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

type sev_io = {
  io_ctx : Ctx.t;
  dom : Xen.Domain.t;
  s_handle : int;
  r_handle : int;
  md_pfn : Hw.Addr.pfn;
  md_gva : int;
}

let ( let* ) = Result.bind

let setup_sev_io ctx (dom : Xen.Domain.t) ~md_gvfn =
  let hv = ctx.Ctx.hv in
  let machine = ctx.Ctx.machine in
  let fw = hv.Xen.Hypervisor.fw in
  match dom.Xen.Domain.sev_handle with
  | None -> Error "sev_io: domain is not SEV-protected"
  | Some guest_handle ->
      (* Guest-private staging buffer Md. *)
      let md_gfn = Xen.Domain.alloc_gfn dom in
      Xen.Domain.guest_map dom ~gvfn:md_gvfn ~gfn:md_gfn ~writable:true ~executable:false
        ~c_bit:true;
      let md_gva = Hw.Addr.addr_of md_gvfn 0 in
      Xen.Hypervisor.in_guest hv dom (fun () ->
          Xen.Domain.write machine dom ~addr:md_gva (Bytes.make Hw.Addr.page_size '\000'));
      let* md_pfn =
        match Hw.Pagetable.lookup dom.Xen.Domain.npt md_gfn with
        | Some npte -> Ok npte.Hw.Pagetable.frame
        | None -> Error "sev_io: Md page not backed"
      in
      (* Helper contexts: s-dom shares Kvek and goes SENDING; r-dom shares
         Kvek and the same transport keys, and goes RECEIVING. *)
      let* s_handle = Sev.Firmware.launch_shared fw ~handle:guest_handle in
      let nonce = Rng.next64 machine.Hw.Machine.rng in
      let platform = Sev.Firmware.platform_public fw in
      let* wrapped = Sev.Firmware.send_start fw ~handle:s_handle ~target_public:platform ~nonce in
      let* r_handle =
        Sev.Firmware.receive_start fw ~wrapped ~origin_public:platform ~nonce
          ~policy:Sev.Firmware.policy_nodbg ~kvek_of:guest_handle ()
      in
      Ok { io_ctx = ctx; dom; s_handle; r_handle; md_pfn; md_gva }

let sev_codec io =
  let ctx = io.io_ctx in
  let hv = ctx.Ctx.hv in
  let machine = ctx.Ctx.machine in
  let fw = hv.Xen.Hypervisor.fw in
  let rate = machine.Hw.Machine.costs.Hw.Cost.sev_engine_block in
  let fail msg = failwith ("sev_codec: " ^ msg) in
  let encode ~sector data =
    charge_blocks ctx c_io_sev rate data;
    per_sector
      (fun ~sector piece ->
        (* Stage through Md (guest-private, Kvek), then SEND_UPDATE turns
           it into transport ciphertext for the shared buffer. *)
        Xen.Hypervisor.in_guest hv io.dom (fun () ->
            Xen.Domain.write machine io.dom ~addr:io.md_gva piece);
        match
          Sev.Firmware.send_update_io fw ~handle:io.s_handle
            ~nonce:(Int64.of_int sector) ~src_pfn:io.md_pfn ~len:sector_size
        with
        | Ok cipher -> cipher
        | Error e -> fail e)
      ~sector data
  in
  let decode ~sector data =
    charge_blocks ctx c_io_sev rate data;
    per_sector
      (fun ~sector piece ->
        match
          Sev.Firmware.receive_update_io fw ~handle:io.r_handle
            ~nonce:(Int64.of_int sector) ~cipher:piece ~dst_pfn:io.md_pfn
        with
        | Error e -> fail e
        | Ok () ->
            Xen.Hypervisor.in_guest hv io.dom (fun () ->
                Xen.Domain.read machine io.dom ~addr:io.md_gva ~len:sector_size))
      ~sector data
  in
  { Xen.Blkif.codec_name = "sev-api"; encode; decode }

let helper_handles io = (io.s_handle, io.r_handle)

(* --- customized-key codec ------------------------------------------------ *)

type gek_io = {
  g_ctx : Ctx.t;
  g_dom : Xen.Domain.t;
  g_handle : int;
  g_gek : int;
  g_md_pfn : Hw.Addr.pfn;
  g_md_gva : int;
}

let setup_gek_io ctx (dom : Xen.Domain.t) ~md_gvfn =
  let hv = ctx.Ctx.hv in
  let machine = ctx.Ctx.machine in
  match dom.Xen.Domain.sev_handle with
  | None -> Error "gek_io: domain is not SEV-protected"
  | Some handle ->
      let md_gfn = Xen.Domain.alloc_gfn dom in
      Xen.Domain.guest_map dom ~gvfn:md_gvfn ~gfn:md_gfn ~writable:true ~executable:false
        ~c_bit:true;
      let md_gva = Hw.Addr.addr_of md_gvfn 0 in
      Xen.Hypervisor.in_guest hv dom (fun () ->
          Xen.Domain.write machine dom ~addr:md_gva (Bytes.make Hw.Addr.page_size '\000'));
      let* md_pfn =
        match Hw.Pagetable.lookup dom.Xen.Domain.npt md_gfn with
        | Some npte -> Ok npte.Hw.Pagetable.frame
        | None -> Error "gek_io: Md page not backed"
      in
      (* One command; the guest stays RUNNING. *)
      let* gek = Sev.Firmware.setenc_gek hv.Xen.Hypervisor.fw ~handle in
      Ok { g_ctx = ctx; g_dom = dom; g_handle = handle; g_gek = gek; g_md_pfn = md_pfn;
           g_md_gva = md_gva }

let gek_codec io =
  let ctx = io.g_ctx in
  let hv = ctx.Ctx.hv in
  let machine = ctx.Ctx.machine in
  let fw = hv.Xen.Hypervisor.fw in
  let rate = machine.Hw.Machine.costs.Hw.Cost.sev_engine_block in
  let fail msg = failwith ("gek_codec: " ^ msg) in
  let encode ~sector data =
    charge_blocks ctx c_io_gek rate data;
    per_sector
      (fun ~sector piece ->
        Xen.Hypervisor.in_guest hv io.g_dom (fun () ->
            Xen.Domain.write machine io.g_dom ~addr:io.g_md_gva piece);
        match
          Sev.Firmware.enc_range fw ~handle:io.g_handle ~gek:io.g_gek
            ~nonce:(Int64.of_int sector) ~src_pfn:io.g_md_pfn ~len:sector_size
        with
        | Ok cipher -> cipher
        | Error e -> fail e)
      ~sector data
  in
  let decode ~sector data =
    charge_blocks ctx c_io_gek rate data;
    per_sector
      (fun ~sector piece ->
        match
          Sev.Firmware.dec_range fw ~handle:io.g_handle ~gek:io.g_gek
            ~nonce:(Int64.of_int sector) ~cipher:piece ~dst_pfn:io.g_md_pfn
        with
        | Error e -> fail e
        | Ok () ->
            Xen.Hypervisor.in_guest hv io.g_dom (fun () ->
                Xen.Domain.read machine io.g_dom ~addr:io.g_md_gva ~len:sector_size))
      ~sector data
  in
  { Xen.Blkif.codec_name = "gek"; encode; decode }

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
