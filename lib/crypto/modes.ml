let check_multiple name data =
  if Bytes.length data mod Aes.block_size <> 0 then
    invalid_arg (name ^ ": length must be a multiple of 16")

let ecb_encrypt key data =
  check_multiple "Modes.ecb_encrypt" data;
  let n = Bytes.length data in
  let out = Bytes.create n in
  Aes.blocks_into key ~encrypt:true ~src:data ~src_off:0 ~dst:out ~dst_off:0
    ~nblocks:(n / Aes.block_size);
  out

let ecb_decrypt key data =
  check_multiple "Modes.ecb_decrypt" data;
  let n = Bytes.length data in
  let out = Bytes.create n in
  Aes.blocks_into key ~encrypt:false ~src:data ~src_off:0 ~dst:out ~dst_off:0
    ~nblocks:(n / Aes.block_size);
  out

let ctr_transform key ~nonce data =
  let out = Bytes.create (Bytes.length data) in
  Aes.ctr_into key ~nonce ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:(Bytes.length data);
  out

let check_span name len =
  if len mod 16 <> 0 then invalid_arg (name ^ ": len must be a multiple of 16")

(* The tweak mask for block i is AES_k(tweak0 + i * tweak_step): a cheap XEX
   variant whose only required property here is that the mask depends on the
   position, which defeats ciphertext relocation. [tweak_step] lets a single
   span call reproduce what used to be a per-block loop with per-block tweaks
   (the memory controller steps the tweak by the physical block address).
   Tweak generation, whitening, the block cipher and re-whitening all happen
   inside one [Aes.xex_span_into] C call per span. *)

let xex_encrypt_span key ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len =
  check_span "Modes.xex_encrypt_into" len;
  Aes.xex_span_into key ~encrypt:true ~tweak0 ~tweak_step ~src ~src_off ~dst
    ~dst_off ~len

let xex_decrypt_span key ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len =
  check_span "Modes.xex_decrypt_into" len;
  Aes.xex_span_into key ~encrypt:false ~tweak0 ~tweak_step ~src ~src_off ~dst
    ~dst_off ~len

let check_sectors name sector_bytes nsectors =
  if sector_bytes <= 0 || sector_bytes mod 16 <> 0 then
    invalid_arg (name ^ ": sector_bytes must be a positive multiple of 16");
  if nsectors < 0 then invalid_arg (name ^ ": nsectors must be >= 0")

let xex_encrypt_sectors key ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off ~dst ~dst_off
    ~nsectors =
  check_sectors "Modes.xex_encrypt_sectors" sector_bytes nsectors;
  Aes.xex_sectors_into key ~encrypt:true ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off
    ~dst ~dst_off ~nsectors

let xex_decrypt_sectors key ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off ~dst ~dst_off
    ~nsectors =
  check_sectors "Modes.xex_decrypt_sectors" sector_bytes nsectors;
  Aes.xex_sectors_into key ~encrypt:false ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off
    ~dst ~dst_off ~nsectors

let xex_encrypt_into key ~tweak ~src ~src_off ~dst ~dst_off ~len =
  xex_encrypt_span key ~tweak0:tweak ~tweak_step:1L ~src ~src_off ~dst ~dst_off ~len

let xex_decrypt_into key ~tweak ~src ~src_off ~dst ~dst_off ~len =
  xex_decrypt_span key ~tweak0:tweak ~tweak_step:1L ~src ~src_off ~dst ~dst_off ~len

let xex_encrypt key ~tweak data =
  check_multiple "Modes.xex_encrypt" data;
  let out = Bytes.create (Bytes.length data) in
  xex_encrypt_into key ~tweak ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:(Bytes.length data);
  out

let xex_decrypt key ~tweak data =
  check_multiple "Modes.xex_decrypt" data;
  let out = Bytes.create (Bytes.length data) in
  xex_decrypt_into key ~tweak ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:(Bytes.length data);
  out

(* ------------------------------------------------------------------ *)
(* Executable specification: the pre-backend per-block OCaml loops,   *)
(* built on the Aes reference block functions. The test suite checks  *)
(* every backend against these.                                       *)
(* ------------------------------------------------------------------ *)

let ecb_encrypt_reference key data =
  check_multiple "Modes.ecb_encrypt" data;
  let n = Bytes.length data in
  let out = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    Aes.encrypt_block_reference_into key ~src:data ~src_off:!i ~dst:out ~dst_off:!i;
    i := !i + Aes.block_size
  done;
  out

let ecb_decrypt_reference key data =
  check_multiple "Modes.ecb_decrypt" data;
  let n = Bytes.length data in
  let out = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    Aes.decrypt_block_reference_into key ~src:data ~src_off:!i ~dst:out ~dst_off:!i;
    i := !i + Aes.block_size
  done;
  out

let ctr_transform_reference key ~nonce data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  (* One counter block and one keystream buffer reused for every block. *)
  let ctr = Bytes.create 16 in
  let ks = Bytes.create 16 in
  Bytes.set_int64_be ctr 0 nonce;
  let nblocks = (n + 15) / 16 in
  for blk = 0 to nblocks - 1 do
    Bytes.set_int64_be ctr 8 (Int64.of_int blk);
    Aes.encrypt_block_reference_into key ~src:ctr ~src_off:0 ~dst:ks ~dst_off:0;
    let base = blk * 16 in
    let len = min 16 (n - base) in
    for j = 0 to len - 1 do
      let c = Char.code (Bytes.get data (base + j)) lxor Char.code (Bytes.get ks j) in
      Bytes.set out (base + j) (Char.chr c)
    done
  done;
  out

let set_tweak_block tb tweak0 tweak_step blk =
  Bytes.set_int64_be tb 0 (Int64.add tweak0 (Int64.mul tweak_step (Int64.of_int blk)));
  Bytes.set_int64_be tb 8 0xF1DE11F5L

let xor_into mask buf off =
  for j = 0 to 15 do
    let c = Char.code (Bytes.get buf (off + j)) lxor Char.code (Bytes.get mask j) in
    Bytes.set buf (off + j) (Char.chr c)
  done

let xex_encrypt_span_reference key ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len =
  check_span "Modes.xex_encrypt_into" len;
  let tb = Bytes.create 16 in
  let mask = Bytes.create 16 in
  for blk = 0 to (len / 16) - 1 do
    set_tweak_block tb tweak0 tweak_step blk;
    Aes.encrypt_block_reference_into key ~src:tb ~src_off:0 ~dst:mask ~dst_off:0;
    let o = blk * 16 in
    Bytes.blit src (src_off + o) dst (dst_off + o) 16;
    xor_into mask dst (dst_off + o);
    Aes.encrypt_block_reference_into key ~src:dst ~src_off:(dst_off + o) ~dst ~dst_off:(dst_off + o);
    xor_into mask dst (dst_off + o)
  done

let xex_decrypt_span_reference key ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len =
  check_span "Modes.xex_decrypt_into" len;
  let tb = Bytes.create 16 in
  let mask = Bytes.create 16 in
  for blk = 0 to (len / 16) - 1 do
    set_tweak_block tb tweak0 tweak_step blk;
    Aes.encrypt_block_reference_into key ~src:tb ~src_off:0 ~dst:mask ~dst_off:0;
    let o = blk * 16 in
    Bytes.blit src (src_off + o) dst (dst_off + o) 16;
    xor_into mask dst (dst_off + o);
    Aes.decrypt_block_reference_into key ~src:dst ~src_off:(dst_off + o) ~dst ~dst_off:(dst_off + o);
    xor_into mask dst (dst_off + o)
  done

let xex_sectors_reference span key ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off ~dst
    ~dst_off ~nsectors =
  check_sectors "Modes.xex_sectors_reference" sector_bytes nsectors;
  for i = 0 to nsectors - 1 do
    let o = i * sector_bytes in
    span key
      ~tweak0:(Int64.add tweak0 (Int64.mul sector_stride (Int64.of_int i)))
      ~tweak_step:1L ~src ~src_off:(src_off + o) ~dst ~dst_off:(dst_off + o)
      ~len:sector_bytes
  done

let xex_encrypt_sectors_reference = xex_sectors_reference xex_encrypt_span_reference
let xex_decrypt_sectors_reference = xex_sectors_reference xex_decrypt_span_reference
