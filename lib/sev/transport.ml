module Rng = Fidelius_crypto.Rng
module Dh = Fidelius_crypto.Dh
module Aes = Fidelius_crypto.Aes
module Modes = Fidelius_crypto.Modes
module Sha256 = Fidelius_crypto.Sha256
module Keywrap = Fidelius_crypto.Keywrap
module Addr = Fidelius_hw.Addr

type image = {
  pages : (int * bytes) list;
  measurement : bytes;
  policy : int;
  nonce : int64;
}

(* The transport key with its AES schedule expanded once per image, not
   once per page. [raw] is kept for wrapping/serialization. *)
type tek_key = { raw : bytes; aes : Aes.key }

let tek_key raw = { raw; aes = Aes.expand raw }

(* Transport pages use CTR with the page index as nonce: deterministic,
   and any reordering is caught by the index-bound measurement. *)
let page_cipher ~tek ~index plain =
  Modes.ctr_transform tek.aes ~nonce:(Int64.of_int index) plain

let page_plain ~tek ~index cipher =
  Modes.ctr_transform tek.aes ~nonce:(Int64.of_int index) cipher

let page_ctr_into ~tek ~index ~src ~src_off ~dst ~dst_off =
  Aes.ctr_into tek.aes ~nonce:(Int64.of_int index) ~src ~src_off ~dst ~dst_off ~len:Addr.page_size

let derive_master_secret ~secret ~peer_public ~nonce =
  let shared = Dh.shared_secret secret peer_public in
  Sha256.digest_build (fun ctx ->
      Sha256.feed ctx shared;
      Sha256.feed_u64_be ctx nonce)

let measurement_meta ~policy ~nonce =
  let meta = Bytes.create 12 in
  Bytes.set_int32_be meta 0 (Int32.of_int policy);
  Bytes.set_int64_be meta 4 nonce;
  meta

let measure_image ~tik ~policy ~nonce pages =
  let m = Measure.create () in
  List.iter (fun (index, plain) -> Measure.add_page m ~index plain) pages;
  Measure.add_data m (measurement_meta ~policy ~nonce);
  Measure.finalize m ~tik

module Owner = struct
  type prepared = {
    image : image;
    wrapped_keys : Keywrap.wrapped;
    owner_public : Dh.public;
    kblk : bytes;
  }

  let kblk_offset = 64

  let prepare ~rng ~platform_public ~policy ~kernel_pages =
    List.iter
      (fun p ->
        if Bytes.length p <> Addr.page_size then
          invalid_arg "Transport.Owner.prepare: kernel pages must be page-sized")
      kernel_pages;
    let tek_raw = Rng.bytes rng 16 and tik = Rng.bytes rng 32 in
    let tek = tek_key tek_raw in
    let kblk = Rng.bytes rng 16 in
    let nonce = Rng.next64 rng in
    let owner_secret, owner_public = Dh.generate rng in
    (* Embed Kblk into page 0 before encryption, so it travels only inside
       the protected kernel image. *)
    let plain_pages =
      List.mapi
        (fun index page ->
          let page = Bytes.copy page in
          if index = 0 then Bytes.blit kblk 0 page kblk_offset 16;
          (index, page))
        kernel_pages
    in
    let measurement = measure_image ~tik ~policy ~nonce plain_pages in
    let pages =
      List.map (fun (index, plain) -> (index, page_cipher ~tek ~index plain)) plain_pages
    in
    let kek = derive_master_secret ~secret:owner_secret ~peer_public:platform_public ~nonce in
    let wrapped_keys = Keywrap.wrap ~kek (Bytes.cat tek_raw tik) in
    { image = { pages; measurement; policy; nonce }; wrapped_keys; owner_public; kblk }
end
