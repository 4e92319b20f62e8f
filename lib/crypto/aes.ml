(* AES-128 per FIPS-197.

   Two layers live here:

   - The OCaml T-table implementation below is the *executable
     specification*: each Te/Td entry fuses SubBytes + MixColumns for one
     byte position, so a round is 16 table lookups and 16 XORs over four
     32-bit words. ShiftRows is absorbed into which state word each lookup
     reads from. Words are big-endian: byte i of the block is byte i of
     word i/4, so word w holds column w of the FIPS state. The decrypt path
     uses the equivalent inverse cipher: InvMixColumns is pre-applied to
     round keys 1..9 at expansion time. It is exposed as the
     [*_reference] entry points and cross-checked against the C backends
     by the test suite.

   - The production entry points dispatch to aes_stubs.c, which probes
     CPUID once at startup and selects VAES (256-bit), AES-NI (128-bit,
     pipelined 8 blocks) or a portable C T-table core. The C side works
     from [rk], a 352-byte serialized schedule (see aes_stubs.c for the
     layout) that matches [ek]/[dk] byte for byte. *)

let block_size = 16
let key_size = 16

(* C backend entry points (aes_stubs.c). The stubs trust the caller for
   bounds — every OCaml wrapper below validates before calling. *)
external stub_backend : unit -> int = "fidelius_aes_backend" [@@noalloc]
external stub_force : int -> int = "fidelius_aes_force_backend" [@@noalloc]
external stub_cpu_flags : unit -> int = "fidelius_aes_cpu_flags" [@@noalloc]
external stub_expand : bytes -> bytes -> unit = "fidelius_aes_expand" [@@noalloc]

external stub_blocks : bytes -> bool -> bytes -> int -> bytes -> int -> int -> unit
  = "fidelius_aes_blocks_bytecode" "fidelius_aes_blocks"
[@@noalloc]

external stub_ctr : bytes -> int64 -> bytes -> int -> bytes -> int -> int -> unit
  = "fidelius_aes_ctr_bytecode" "fidelius_aes_ctr"
[@@noalloc]

external stub_xex :
  bytes -> bool -> int64 -> int64 -> bytes -> int -> bytes -> int -> int -> unit
  = "fidelius_aes_xex_bytecode" "fidelius_aes_xex"
[@@noalloc]

external stub_xex_sectors :
  bytes -> bool -> int64 -> int64 -> bytes -> int -> bytes -> int -> int -> int -> unit
  = "fidelius_aes_xex_sectors_bytecode" "fidelius_aes_xex_sectors"
[@@noalloc]

(* Probe the CPU once at module initialisation so the first hot-path call
   never pays (or races on) detection. *)
let () = ignore (stub_backend () : int)

let backend_name = function
  | 1 -> "vaes"
  | 2 -> "aes-ni"
  | _ -> "c-portable"

let backend () = backend_name (stub_backend ())

let set_backend mode =
  let want = match mode with `Auto -> 0 | `Vaes -> 1 | `Aesni -> 2 | `Portable -> 3 in
  let got = stub_force want in
  want = 0 || got = want

let cpu_features () =
  let f = stub_cpu_flags () in
  List.filter_map
    (fun (bit, name) -> if f land bit <> 0 then Some name else None)
    [ (1, "aes"); (2, "ssse3"); (4, "sse4.1"); (8, "avx2");
      (16, "vaes"); (32, "sha"); (64, "ymm-os") ]

let sbox = [|
  0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b; 0xfe; 0xd7; 0xab; 0x76;
  0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0; 0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0;
  0xb7; 0xfd; 0x93; 0x26; 0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
  0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2; 0xeb; 0x27; 0xb2; 0x75;
  0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0; 0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84;
  0x53; 0xd1; 0x00; 0xed; 0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
  0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f; 0x50; 0x3c; 0x9f; 0xa8;
  0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5; 0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2;
  0xcd; 0x0c; 0x13; 0xec; 0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
  0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14; 0xde; 0x5e; 0x0b; 0xdb;
  0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c; 0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79;
  0xe7; 0xc8; 0x37; 0x6d; 0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
  0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f; 0x4b; 0xbd; 0x8b; 0x8a;
  0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e; 0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e;
  0xe1; 0xf8; 0x98; 0x11; 0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
  0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f; 0xb0; 0x54; 0xbb; 0x16
|]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

(* GF(2^8) multiplication, used only at table-build and key-expansion time. *)
let gmul a b =
  let rec loop a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      loop (xtime a) (b lsr 1) acc
  in
  loop a b 0

let ror8 w = ((w lsr 8) lor (w lsl 24)) land 0xFFFFFFFF

(* Te0.(x) = S[x] * (02, 01, 01, 03) as a big-endian column; Te1..Te3 are
   byte rotations of Te0 for the other three byte positions. *)
let te0 = Array.make 256 0
let te1 = Array.make 256 0
let te2 = Array.make 256 0
let te3 = Array.make 256 0

(* Td0.(x) = IS[x] * (0e, 09, 0d, 0b), likewise rotated for Td1..Td3. *)
let td0 = Array.make 256 0
let td1 = Array.make 256 0
let td2 = Array.make 256 0
let td3 = Array.make 256 0

let () =
  for x = 0 to 255 do
    let s = sbox.(x) in
    let s2 = xtime s in
    let s3 = s2 lxor s in
    let e = (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor s3 in
    te0.(x) <- e;
    te1.(x) <- ror8 e;
    te2.(x) <- ror8 (ror8 e);
    te3.(x) <- ror8 (ror8 (ror8 e));
    let s = inv_sbox.(x) in
    let d = (gmul s 14 lsl 24) lor (gmul s 9 lsl 16) lor (gmul s 13 lsl 8) lor gmul s 11 in
    td0.(x) <- d;
    td1.(x) <- ror8 d;
    td2.(x) <- ror8 (ror8 d);
    td3.(x) <- ror8 (ror8 (ror8 d))
  done

type key = {
  ek : int array;  (* 44 encryption round-key words, big-endian packed *)
  dk : int array;  (* decryption schedule: reversed rounds, InvMixColumns
                      pre-applied to rounds 1..9 (equivalent inverse cipher) *)
  st : int array;  (* 4-word scratch for the reference round state; reusing
                      it keeps the reference block functions allocation-free
                      (single-threaded) *)
  rk : Bytes.t;    (* the same two schedules serialized for the C backends:
                      bytes 0..175 encryption, 176..351 decryption *)
}

let sub_word w =
  (sbox.((w lsr 24) land 0xff) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xFFFFFFFF

(* InvMixColumns on one big-endian column word. *)
let inv_mix_word w =
  let b0 = (w lsr 24) land 0xff and b1 = (w lsr 16) land 0xff
  and b2 = (w lsr 8) land 0xff and b3 = w land 0xff in
  ((gmul b0 14 lxor gmul b1 11 lxor gmul b2 13 lxor gmul b3 9) lsl 24)
  lor ((gmul b0 9 lxor gmul b1 14 lxor gmul b2 11 lxor gmul b3 13) lsl 16)
  lor ((gmul b0 13 lxor gmul b1 9 lxor gmul b2 14 lxor gmul b3 11) lsl 8)
  lor (gmul b0 11 lxor gmul b1 13 lxor gmul b2 9 lxor gmul b3 14)

let expand raw =
  if Bytes.length raw <> key_size then invalid_arg "Aes.expand: key must be 16 bytes";
  let ek = Array.make 44 0 in
  for i = 0 to 3 do
    ek.(i) <-
      (Char.code (Bytes.get raw (4 * i)) lsl 24)
      lor (Char.code (Bytes.get raw ((4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get raw ((4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get raw ((4 * i) + 3))
  done;
  for i = 4 to 43 do
    let t = ek.(i - 1) in
    let t =
      if i land 3 = 0 then sub_word (rot_word t) lxor (rcon.((i / 4) - 1) lsl 24)
      else t
    in
    ek.(i) <- ek.(i - 4) lxor t
  done;
  let dk = Array.make 44 0 in
  for round = 0 to 10 do
    for c = 0 to 3 do
      dk.((4 * round) + c) <- ek.((4 * (10 - round)) + c)
    done
  done;
  for i = 4 to 39 do
    dk.(i) <- inv_mix_word dk.(i)
  done;
  (* The C side re-expands from the raw key (with aeskeygenassist on the
     hardware tiers); the result is byte-identical to ek/dk, which the test
     suite checks via [schedule_bytes]. *)
  let rk = Bytes.create 352 in
  stub_expand raw rk;
  { ek; dk; st = Array.make 4 0; rk }

let schedule_words { ek; _ } = Array.copy ek

let schedule_bytes { rk; _ } = Bytes.copy rk

let load_word src off =
  (Char.code (Bytes.unsafe_get src off) lsl 24)
  lor (Char.code (Bytes.unsafe_get src (off + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get src (off + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get src (off + 3))

let store_word dst off w =
  Bytes.unsafe_set dst off (Char.unsafe_chr ((w lsr 24) land 0xff));
  Bytes.unsafe_set dst (off + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
  Bytes.unsafe_set dst (off + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.unsafe_set dst (off + 3) (Char.unsafe_chr (w land 0xff))

(* Range checks compare by subtraction, and bound a count by the space
   left before multiplying: [off + len] and [count * width] wrap for
   values near [max_int], and the C side (and the reference's
   [unsafe_get]) trust what passes. *)
let check_run name buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg ("Aes: " ^ name ^ " range out of bounds")

(* [count] items of [width] bytes, [width] positive. *)
let check_items name buf off ~count ~width =
  if off < 0 || count < 0 || off > Bytes.length buf || count > (Bytes.length buf - off) / width
  then invalid_arg ("Aes: " ^ name ^ " range out of bounds")

let check_range name buf off = check_run name buf off block_size

(* The four state words are fully loaded before anything is stored, so
   src and dst may alias (in-place block operations are safe). *)
let encrypt_block_reference_into key ~src ~src_off ~dst ~dst_off =
  check_range "src" src src_off;
  check_range "dst" dst dst_off;
  let ek = key.ek and st = key.st in
  st.(0) <- load_word src src_off lxor ek.(0);
  st.(1) <- load_word src (src_off + 4) lxor ek.(1);
  st.(2) <- load_word src (src_off + 8) lxor ek.(2);
  st.(3) <- load_word src (src_off + 12) lxor ek.(3);
  for round = 1 to 9 do
    let b = 4 * round in
    let s0 = st.(0) and s1 = st.(1) and s2 = st.(2) and s3 = st.(3) in
    st.(0) <- te0.(s0 lsr 24) lxor te1.((s1 lsr 16) land 0xff)
              lxor te2.((s2 lsr 8) land 0xff) lxor te3.(s3 land 0xff) lxor ek.(b);
    st.(1) <- te0.(s1 lsr 24) lxor te1.((s2 lsr 16) land 0xff)
              lxor te2.((s3 lsr 8) land 0xff) lxor te3.(s0 land 0xff) lxor ek.(b + 1);
    st.(2) <- te0.(s2 lsr 24) lxor te1.((s3 lsr 16) land 0xff)
              lxor te2.((s0 lsr 8) land 0xff) lxor te3.(s1 land 0xff) lxor ek.(b + 2);
    st.(3) <- te0.(s3 lsr 24) lxor te1.((s0 lsr 16) land 0xff)
              lxor te2.((s1 lsr 8) land 0xff) lxor te3.(s2 land 0xff) lxor ek.(b + 3)
  done;
  let s0 = st.(0) and s1 = st.(1) and s2 = st.(2) and s3 = st.(3) in
  store_word dst dst_off
    (((sbox.(s0 lsr 24) lsl 24) lor (sbox.((s1 lsr 16) land 0xff) lsl 16)
      lor (sbox.((s2 lsr 8) land 0xff) lsl 8) lor sbox.(s3 land 0xff)) lxor ek.(40));
  store_word dst (dst_off + 4)
    (((sbox.(s1 lsr 24) lsl 24) lor (sbox.((s2 lsr 16) land 0xff) lsl 16)
      lor (sbox.((s3 lsr 8) land 0xff) lsl 8) lor sbox.(s0 land 0xff)) lxor ek.(41));
  store_word dst (dst_off + 8)
    (((sbox.(s2 lsr 24) lsl 24) lor (sbox.((s3 lsr 16) land 0xff) lsl 16)
      lor (sbox.((s0 lsr 8) land 0xff) lsl 8) lor sbox.(s1 land 0xff)) lxor ek.(42));
  store_word dst (dst_off + 12)
    (((sbox.(s3 lsr 24) lsl 24) lor (sbox.((s0 lsr 16) land 0xff) lsl 16)
      lor (sbox.((s1 lsr 8) land 0xff) lsl 8) lor sbox.(s2 land 0xff)) lxor ek.(43))

let decrypt_block_reference_into key ~src ~src_off ~dst ~dst_off =
  check_range "src" src src_off;
  check_range "dst" dst dst_off;
  let dk = key.dk and st = key.st in
  st.(0) <- load_word src src_off lxor dk.(0);
  st.(1) <- load_word src (src_off + 4) lxor dk.(1);
  st.(2) <- load_word src (src_off + 8) lxor dk.(2);
  st.(3) <- load_word src (src_off + 12) lxor dk.(3);
  for round = 1 to 9 do
    let b = 4 * round in
    let s0 = st.(0) and s1 = st.(1) and s2 = st.(2) and s3 = st.(3) in
    st.(0) <- td0.(s0 lsr 24) lxor td1.((s3 lsr 16) land 0xff)
              lxor td2.((s2 lsr 8) land 0xff) lxor td3.(s1 land 0xff) lxor dk.(b);
    st.(1) <- td0.(s1 lsr 24) lxor td1.((s0 lsr 16) land 0xff)
              lxor td2.((s3 lsr 8) land 0xff) lxor td3.(s2 land 0xff) lxor dk.(b + 1);
    st.(2) <- td0.(s2 lsr 24) lxor td1.((s1 lsr 16) land 0xff)
              lxor td2.((s0 lsr 8) land 0xff) lxor td3.(s3 land 0xff) lxor dk.(b + 2);
    st.(3) <- td0.(s3 lsr 24) lxor td1.((s2 lsr 16) land 0xff)
              lxor td2.((s1 lsr 8) land 0xff) lxor td3.(s0 land 0xff) lxor dk.(b + 3)
  done;
  let s0 = st.(0) and s1 = st.(1) and s2 = st.(2) and s3 = st.(3) in
  store_word dst dst_off
    (((inv_sbox.(s0 lsr 24) lsl 24) lor (inv_sbox.((s3 lsr 16) land 0xff) lsl 16)
      lor (inv_sbox.((s2 lsr 8) land 0xff) lsl 8) lor inv_sbox.(s1 land 0xff)) lxor dk.(40));
  store_word dst (dst_off + 4)
    (((inv_sbox.(s1 lsr 24) lsl 24) lor (inv_sbox.((s0 lsr 16) land 0xff) lsl 16)
      lor (inv_sbox.((s3 lsr 8) land 0xff) lsl 8) lor inv_sbox.(s2 land 0xff)) lxor dk.(41));
  store_word dst (dst_off + 8)
    (((inv_sbox.(s2 lsr 24) lsl 24) lor (inv_sbox.((s1 lsr 16) land 0xff) lsl 16)
      lor (inv_sbox.((s0 lsr 8) land 0xff) lsl 8) lor inv_sbox.(s3 land 0xff)) lxor dk.(42));
  store_word dst (dst_off + 12)
    (((inv_sbox.(s3 lsr 24) lsl 24) lor (inv_sbox.((s2 lsr 16) land 0xff) lsl 16)
      lor (inv_sbox.((s1 lsr 8) land 0xff) lsl 8) lor inv_sbox.(s0 land 0xff)) lxor dk.(43))

(* Production block entry points: same bounds checks, C backend body. *)

let encrypt_block_into key ~src ~src_off ~dst ~dst_off =
  check_range "src" src src_off;
  check_range "dst" dst dst_off;
  stub_blocks key.rk true src src_off dst dst_off 1

let decrypt_block_into key ~src ~src_off ~dst ~dst_off =
  check_range "src" src src_off;
  check_range "dst" dst dst_off;
  stub_blocks key.rk false src src_off dst dst_off 1

let check_block plain =
  if Bytes.length plain <> block_size then invalid_arg "Aes: block must be 16 bytes"

let encrypt_block key plain =
  check_block plain;
  let out = Bytes.create block_size in
  encrypt_block_into key ~src:plain ~src_off:0 ~dst:out ~dst_off:0;
  out

let decrypt_block key cipher =
  check_block cipher;
  let out = Bytes.create block_size in
  decrypt_block_into key ~src:cipher ~src_off:0 ~dst:out ~dst_off:0;
  out

let encrypt_block_reference key plain =
  check_block plain;
  let out = Bytes.create block_size in
  encrypt_block_reference_into key ~src:plain ~src_off:0 ~dst:out ~dst_off:0;
  out

let decrypt_block_reference key cipher =
  check_block cipher;
  let out = Bytes.create block_size in
  decrypt_block_reference_into key ~src:cipher ~src_off:0 ~dst:out ~dst_off:0;
  out

(* Bulk entry points — one C call per run of blocks. The C side trusts the
   caller, so all bounds are validated here. *)

let blocks_into key ~encrypt ~src ~src_off ~dst ~dst_off ~nblocks =
  check_items "src" src src_off ~count:nblocks ~width:block_size;
  check_items "dst" dst dst_off ~count:nblocks ~width:block_size;
  stub_blocks key.rk encrypt src src_off dst dst_off nblocks

let ctr_into key ~nonce ~src ~src_off ~dst ~dst_off ~len =
  check_run "src" src src_off len;
  check_run "dst" dst dst_off len;
  stub_ctr key.rk nonce src src_off dst dst_off len

let xex_span_into key ~encrypt ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len =
  if len mod block_size <> 0 then
    invalid_arg "Aes.xex_span_into: len must be a multiple of 16";
  check_run "src" src src_off len;
  check_run "dst" dst dst_off len;
  stub_xex key.rk encrypt tweak0 tweak_step src src_off dst dst_off len

let xex_sectors_into key ~encrypt ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off ~dst
    ~dst_off ~nsectors =
  if sector_bytes <= 0 || sector_bytes mod block_size <> 0 then
    invalid_arg "Aes.xex_sectors_into: sector_bytes must be a positive multiple of 16";
  if nsectors < 0 then invalid_arg "Aes.xex_sectors_into: nsectors must be >= 0";
  check_items "src" src src_off ~count:nsectors ~width:sector_bytes;
  check_items "dst" dst dst_off ~count:nsectors ~width:sector_bytes;
  stub_xex_sectors key.rk encrypt tweak0 sector_stride src src_off dst dst_off sector_bytes
    nsectors
