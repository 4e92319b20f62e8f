(* Unit and property tests for the cryptographic substrate. *)

module Aes = Fidelius_crypto.Aes
module Modes = Fidelius_crypto.Modes
module Sha256 = Fidelius_crypto.Sha256
module Hmac = Fidelius_crypto.Hmac
module Dh = Fidelius_crypto.Dh
module Keywrap = Fidelius_crypto.Keywrap
module Rng = Fidelius_crypto.Rng

let unhex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let hex = Sha256.hex

let check_hex name expected actual = Alcotest.(check string) name expected (hex actual)

(* --- AES (FIPS-197 appendix C.1 and appendix B) ------------------------- *)

let test_aes_fips_c1 () =
  let key = Aes.expand (unhex "000102030405060708090a0b0c0d0e0f") in
  let ct = Aes.encrypt_block key (unhex "00112233445566778899aabbccddeeff") in
  check_hex "FIPS C.1 ciphertext" "69c4e0d86a7b0430d8cdb78070b4c55a" ct;
  let pt = Aes.decrypt_block key ct in
  check_hex "FIPS C.1 decrypt" "00112233445566778899aabbccddeeff" pt

let test_aes_appendix_b () =
  let key = Aes.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Aes.encrypt_block key (unhex "3243f6a8885a308d313198a2e0370734") in
  check_hex "FIPS appendix B" "3925841d02dc09fbdc118597196a0b32" ct

let test_aes_wrong_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand: key must be 16 bytes")
    (fun () -> ignore (Aes.expand (Bytes.create 8)));
  let key = Aes.expand (Bytes.create 16) in
  Alcotest.check_raises "short block" (Invalid_argument "Aes: block must be 16 bytes")
    (fun () -> ignore (Aes.encrypt_block key (Bytes.create 15)))

let test_aes_roundtrip_prop =
  QCheck.Test.make ~name:"aes encrypt/decrypt roundtrip" ~count:200
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.return 16))
       (QCheck.string_of_size (QCheck.Gen.return 16)))
    (fun (k, p) ->
      let key = Aes.expand (Bytes.of_string k) in
      let pt = Bytes.of_string p in
      Bytes.equal (Aes.decrypt_block key (Aes.encrypt_block key pt)) pt)

let test_aes_key_sensitivity =
  QCheck.Test.make ~name:"different keys give different ciphertext" ~count:100
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.return 16))
       (QCheck.string_of_size (QCheck.Gen.return 16)))
    (fun (k1, k2) ->
      QCheck.assume (k1 <> k2);
      let pt = Bytes.make 16 'A' in
      let c1 = Aes.encrypt_block (Aes.expand (Bytes.of_string k1)) pt in
      let c2 = Aes.encrypt_block (Aes.expand (Bytes.of_string k2)) pt in
      not (Bytes.equal c1 c2))

let test_aes_into_matches_alloc () =
  let rng = Rng.create 5L in
  let key = Aes.expand (Rng.bytes rng 16) in
  let pt = Rng.bytes rng 16 in
  let dst = Bytes.create 16 in
  Aes.encrypt_block_into key ~src:pt ~src_off:0 ~dst ~dst_off:0;
  Alcotest.(check bool) "into = alloc" true (Bytes.equal dst (Aes.encrypt_block key pt))

(* FIPS-197 Appendix A.1: key-expansion words for 2b7e1516...4f3c. Pins the
   T-table schedule to the standard, not just to ciphertext test vectors. *)
let test_aes_key_expansion_fips_a1 () =
  let key = Aes.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
  let w = Aes.schedule_words key in
  Alcotest.(check int) "44 words" 44 (Array.length w);
  let expect = [ (0, 0x2b7e1516); (1, 0x28aed2a6); (2, 0xabf71588); (3, 0x09cf4f3c);
                 (4, 0xa0fafe17); (5, 0x88542cb1); (6, 0x23a33939); (7, 0x2a6c7605);
                 (8, 0xf2c295f2); (20, 0xd4d1c6f8); (32, 0xead27321); (36, 0xac7766f3);
                 (40, 0xd014f9a8); (41, 0xc9ee2589); (42, 0xe13f0cc8); (43, 0xb6630ca6) ] in
  List.iter
    (fun (i, v) ->
      Alcotest.(check int) (Printf.sprintf "w[%d]" i) v w.(i))
    expect

(* FIPS-197 Appendix C.1 equivalent-inverse-cipher sanity: decrypting at an
   offset inside a larger buffer (the memory-controller usage pattern). *)
let test_aes_into_at_offset =
  QCheck.Test.make ~name:"into variants honour offsets" ~count:200
    (QCheck.triple
       (QCheck.string_of_size (QCheck.Gen.return 16))
       (QCheck.int_bound 40) (QCheck.int_bound 40))
    (fun (k, src_off, dst_off) ->
      let key = Aes.expand (Bytes.of_string k) in
      let rng = Rng.create (Int64.of_int (src_off + (64 * dst_off))) in
      let buf = Rng.bytes rng 64 in
      let enc = Bytes.make 64 '\000' in
      Aes.encrypt_block_into key ~src:buf ~src_off ~dst:enc ~dst_off;
      let dec = Bytes.make 64 '\000' in
      Aes.decrypt_block_into key ~src:enc ~src_off:dst_off ~dst:dec ~dst_off:src_off;
      Bytes.equal (Bytes.sub dec src_off 16) (Bytes.sub buf src_off 16)
      && Bytes.equal (Aes.decrypt_block key (Bytes.sub enc dst_off 16)) (Bytes.sub buf src_off 16))

let test_aes_inplace () =
  let rng = Rng.create 6L in
  let key = Aes.expand (Rng.bytes rng 16) in
  let pt = Rng.bytes rng 16 in
  let buf = Bytes.copy pt in
  Aes.encrypt_block_into key ~src:buf ~src_off:0 ~dst:buf ~dst_off:0;
  Alcotest.(check bool) "in-place = out-of-place" true
    (Bytes.equal buf (Aes.encrypt_block key pt));
  Aes.decrypt_block_into key ~src:buf ~src_off:0 ~dst:buf ~dst_off:0;
  Alcotest.(check bool) "in-place roundtrip" true (Bytes.equal buf pt)

let test_aes_bad_range () =
  let key = Aes.expand (Bytes.create 16) in
  Alcotest.check_raises "src overrun" (Invalid_argument "Aes: src range out of bounds")
    (fun () ->
      Aes.encrypt_block_into key ~src:(Bytes.create 20) ~src_off:8 ~dst:(Bytes.create 16)
        ~dst_off:0);
  Alcotest.check_raises "dst overrun" (Invalid_argument "Aes: dst range out of bounds")
    (fun () ->
      Aes.encrypt_block_into key ~src:(Bytes.create 16) ~src_off:0 ~dst:(Bytes.create 20)
        ~dst_off:8)

(* --- SHA-256 (FIPS 180-4 vectors) --------------------------------------- *)

let test_sha_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "448-bit" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

let test_sha_streaming_equals_oneshot =
  QCheck.Test.make ~name:"streaming = one-shot for arbitrary chunking" ~count:100
    (QCheck.pair QCheck.string (QCheck.small_int))
    (fun (s, cut) ->
      let data = Bytes.of_string s in
      let n = Bytes.length data in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (Bytes.sub data 0 cut);
      Sha256.feed ctx (Bytes.sub data cut (n - cut));
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest data))

let test_sha_backend_known () =
  Alcotest.(check bool)
    (Printf.sprintf "backend %S is a known dispatch target" Sha256.backend)
    true
    (List.mem Sha256.backend [ "sha-ni"; "c-scalar" ])

(* The accelerated backend (SHA-NI or the C scalar core) against the
   pure-OCaml executable specification, under arbitrary multi-way
   chunking across all three feed variants. This is the test that makes
   the C stub trustworthy: any divergence in the schedule recurrence,
   padding, or partial-block handling shows up here. *)
let test_sha_chunked_matches_reference =
  QCheck.Test.make ~name:"accelerated backend = OCaml reference (random chunking)" ~count:200
    (QCheck.pair QCheck.string (QCheck.list QCheck.small_nat))
    (fun (s, cuts) ->
      let data = Bytes.of_string s in
      let n = Bytes.length data in
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun c ->
          let len = min c (n - !pos) in
          if len > 0 then begin
            (* Rotate through the feed variants so each sees odd offsets. *)
            (match len mod 3 with
            | 0 -> Sha256.feed ctx (Bytes.sub data !pos len)
            | 1 -> Sha256.feed_sub ctx data ~off:!pos ~len
            | _ -> Sha256.feed_string ctx (Bytes.sub_string data !pos len));
            pos := !pos + len
          end)
        cuts;
      Sha256.feed_sub ctx data ~off:!pos ~len:(n - !pos);
      let ref_digest = Sha256.digest_reference data in
      Bytes.equal (Sha256.finalize ctx) ref_digest
      && Bytes.equal (Sha256.digest data) ref_digest)

let test_sha_into_matches_alloc () =
  let rng = Rng.create 31L in
  let a = Rng.bytes rng 100 and b = Rng.bytes rng 37 in
  let dst = Bytes.make 80 '\xff' in
  Sha256.digest_into a ~dst ~dst_off:5;
  Alcotest.(check bool) "digest_into = digest" true
    (Bytes.equal (Bytes.sub dst 5 32) (Sha256.digest a));
  let ctx = Sha256.init () in
  Sha256.feed ctx a;
  Sha256.feed ctx b;
  Sha256.finalize_into ctx ~dst ~dst_off:48;
  Alcotest.(check bool) "finalize_into = digest (cat)" true
    (Bytes.equal (Bytes.sub dst 48 32) (Sha256.digest (Bytes.cat a b)));
  Alcotest.(check char) "guard byte untouched" '\xff' (Bytes.get dst 4)

let test_sha_pair_matches_cat =
  QCheck.Test.make ~name:"digest_pair a b = digest (cat a b)" ~count:100
    (QCheck.pair QCheck.string QCheck.string)
    (fun (sa, sb) ->
      let a = Bytes.of_string sa and b = Bytes.of_string sb in
      let cat = Sha256.digest (Bytes.cat a b) in
      let dst = Bytes.create 32 in
      Sha256.digest_pair_into a b ~dst ~dst_off:0;
      Bytes.equal (Sha256.digest_pair a b) cat && Bytes.equal dst cat)

let test_sha_pair_into_aliases () =
  (* The BMT verify walk hashes (walk, sibling) back into walk itself. *)
  let rng = Rng.create 33L in
  let a = Rng.bytes rng 32 and b = Rng.bytes rng 32 in
  let expect = Sha256.digest (Bytes.cat a b) in
  let walk = Bytes.copy a in
  Sha256.digest_pair_into walk b ~dst:walk ~dst_off:0;
  Alcotest.(check bool) "dst aliasing left input" true (Bytes.equal walk expect)

let test_sha_feed_u64_be =
  QCheck.Test.make ~name:"feed_u64_be = feeding 8 BE bytes" ~count:200
    (QCheck.pair QCheck.int64 QCheck.string)
    (fun (v, prefix) ->
      let eight = Bytes.create 8 in
      Bytes.set_int64_be eight 0 v;
      let d1 =
        Sha256.digest_build (fun ctx ->
            Sha256.feed_string ctx prefix;
            Sha256.feed_u64_be ctx v)
      in
      let d2 =
        Sha256.digest_build (fun ctx ->
            Sha256.feed_string ctx prefix;
            Sha256.feed ctx eight)
      in
      Bytes.equal d1 d2)

let test_sha_reset_reuse () =
  let rng = Rng.create 35L in
  let msgs = List.init 5 (fun i -> Rng.bytes rng (17 * (i + 1))) in
  let ctx = Sha256.init () in
  List.iter
    (fun m ->
      Sha256.reset ctx;
      Sha256.feed ctx m;
      Alcotest.(check bool) "reset context rehashes cleanly" true
        (Bytes.equal (Sha256.finalize ctx) (Sha256.digest m)))
    msgs

(* --- HMAC (RFC 4231) ----------------------------------------------------- *)

let test_hmac_rfc4231 () =
  let tag1 =
    Hmac.mac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There")
  in
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" tag1;
  let tag2 =
    Hmac.mac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?")
  in
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" tag2;
  let tag3 = Hmac.mac ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd') in
  check_hex "case 3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" tag3

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed down (RFC 4231 case 6). *)
  let key = Bytes.make 131 '\xaa' in
  let tag = Hmac.mac ~key (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First") in
  check_hex "case 6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" tag

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let data = Bytes.of_string "payload" in
  let tag = Hmac.mac ~key data in
  Alcotest.(check bool) "verifies" true (Hmac.verify ~key ~tag data);
  let bad = Bytes.copy tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "tampered tag rejected" false (Hmac.verify ~key ~tag:bad data);
  Alcotest.(check bool) "wrong length rejected" false
    (Hmac.verify ~key ~tag:(Bytes.create 4) data)

(* The prepared-key fast path against the legacy one-shot entry points:
   same tags, same verdicts, for keys of every length class (short,
   block-size, longer-than-block). *)
let test_hmac_prepared_matches_oneshot =
  QCheck.Test.make ~name:"prepared key = one-shot mac/verify" ~count:200
    (QCheck.pair QCheck.string QCheck.string)
    (fun (k, d) ->
      let raw = Bytes.of_string k and data = Bytes.of_string d in
      let prepared = Hmac.key raw in
      let tag = Hmac.mac ~key:raw data in
      Bytes.equal (Hmac.mac_with prepared data) tag
      && Bytes.equal (Hmac.mac_build prepared (fun ctx -> Sha256.feed ctx data)) tag
      && Hmac.verify_with prepared ~tag data
      && Hmac.verify_build prepared (fun ctx -> Sha256.feed ctx data) ~tag ~tag_off:0)

let test_hmac_build_into_in_place () =
  (* The secure-channel record shape: message and tag share one buffer. *)
  let key = Hmac.key (Bytes.of_string "record key") in
  let record = Bytes.make 52 '\000' in
  Bytes.blit_string "some sealed payload!" 0 record 0 20;
  Hmac.mac_build_into key (fun ctx -> Sha256.feed_sub ctx record ~off:0 ~len:20)
    ~dst:record ~dst_off:20;
  let expect = Hmac.mac_with key (Bytes.sub record 0 20) in
  Alcotest.(check bool) "in-place tag = sliced mac" true
    (Bytes.equal (Bytes.sub record 20 32) expect);
  Alcotest.(check bool) "verify_build in place" true
    (Hmac.verify_build key (fun ctx -> Sha256.feed_sub ctx record ~off:0 ~len:20)
       ~tag:record ~tag_off:20);
  Bytes.set record 3 'X';
  Alcotest.(check bool) "tampered message rejected" false
    (Hmac.verify_build key (fun ctx -> Sha256.feed_sub ctx record ~off:0 ~len:20)
       ~tag:record ~tag_off:20);
  Alcotest.(check bool) "tag range off the end rejected" false
    (Hmac.verify_build key (fun ctx -> Sha256.feed_sub ctx record ~off:0 ~len:20)
       ~tag:record ~tag_off:40)

let test_hmac_distinct_keys =
  QCheck.Test.make ~name:"hmac differs under different keys" ~count:100
    (QCheck.pair QCheck.string QCheck.string)
    (fun (k1, k2) ->
      QCheck.assume (k1 <> k2);
      let d = Bytes.of_string "same data" in
      not (Bytes.equal (Hmac.mac ~key:(Bytes.of_string k1) d) (Hmac.mac ~key:(Bytes.of_string k2) d)))

(* --- Modes --------------------------------------------------------------- *)

let sized_string n = QCheck.string_of_size (QCheck.Gen.return n)

let test_ecb_roundtrip =
  QCheck.Test.make ~name:"ECB roundtrip (multiple of 16)" ~count:100
    (QCheck.pair (sized_string 16) (sized_string 64))
    (fun (k, p) ->
      let key = Aes.expand (Bytes.of_string k) in
      let pt = Bytes.of_string p in
      Bytes.equal (Modes.ecb_decrypt key (Modes.ecb_encrypt key pt)) pt)

let test_ctr_involution =
  QCheck.Test.make ~name:"CTR transform is an involution (any length)" ~count:100
    (QCheck.pair (sized_string 16) QCheck.string)
    (fun (k, p) ->
      let key = Aes.expand (Bytes.of_string k) in
      let pt = Bytes.of_string p in
      Bytes.equal (Modes.ctr_transform key ~nonce:42L (Modes.ctr_transform key ~nonce:42L pt)) pt)

let test_ctr_nonce_matters () =
  let key = Aes.expand (Bytes.make 16 'k') in
  let pt = Bytes.make 32 'p' in
  let c1 = Modes.ctr_transform key ~nonce:1L pt in
  let c2 = Modes.ctr_transform key ~nonce:2L pt in
  Alcotest.(check bool) "different nonces differ" false (Bytes.equal c1 c2)

let test_xex_roundtrip =
  QCheck.Test.make ~name:"XEX roundtrip" ~count:100
    (QCheck.triple (sized_string 16) (sized_string 48) QCheck.int64)
    (fun (k, p, tweak) ->
      let key = Aes.expand (Bytes.of_string k) in
      let pt = Bytes.of_string p in
      Bytes.equal (Modes.xex_decrypt key ~tweak (Modes.xex_encrypt key ~tweak pt)) pt)

let test_xex_relocation_garbles () =
  let key = Aes.expand (Bytes.make 16 'x') in
  let pt = Bytes.of_string "sixteen byte msg" in
  let ct = Modes.xex_encrypt key ~tweak:0x1000L pt in
  let moved = Modes.xex_decrypt key ~tweak:0x2000L ct in
  Alcotest.(check bool) "moved ciphertext decrypts to garbage" false (Bytes.equal moved pt)

let test_xex_bad_length () =
  let key = Aes.expand (Bytes.make 16 'x') in
  Alcotest.check_raises "odd length rejected"
    (Invalid_argument "Modes.xex_encrypt: length must be a multiple of 16") (fun () ->
      ignore (Modes.xex_encrypt key ~tweak:0L (Bytes.create 17)))

(* Span calls must be bit-identical to a loop of per-block xex_*_into calls
   with tweak_i = tweak0 + i * tweak_step -- this is the equivalence the
   memory controller relies on when it hands whole spans to the crypto layer. *)
let test_xex_span_equals_blocks =
  QCheck.Test.make ~name:"XEX span = per-block loop (random len/offset/step)" ~count:200
    (QCheck.quad
       (QCheck.string_of_size (QCheck.Gen.return 16))
       (QCheck.int_bound 15) (QCheck.int_bound 31) QCheck.int64)
    (fun (k, nblocks, off, tweak0) ->
      let nblocks = nblocks + 1 in
      let len = nblocks * 16 in
      let key = Aes.expand (Bytes.of_string k) in
      let tweak_step = 16L in
      let rng = Rng.create (Int64.add tweak0 (Int64.of_int off)) in
      let src = Rng.bytes rng (off + len + 7) in
      let span = Bytes.make (Bytes.length src) '\000' in
      Modes.xex_encrypt_span key ~tweak0 ~tweak_step ~src ~src_off:off ~dst:span ~dst_off:off
        ~len;
      let manual = Bytes.copy src in
      for b = 0 to nblocks - 1 do
        let tweak = Int64.add tweak0 (Int64.mul tweak_step (Int64.of_int b)) in
        Modes.xex_encrypt_into key ~tweak ~src ~src_off:(off + (16 * b)) ~dst:manual
          ~dst_off:(off + (16 * b)) ~len:16
      done;
      Bytes.equal (Bytes.sub span off len) (Bytes.sub manual off len)
      &&
      (* and the decrypt span inverts it in place *)
      let back = Bytes.copy span in
      Modes.xex_decrypt_span key ~tweak0 ~tweak_step ~src:back ~src_off:off ~dst:back
        ~dst_off:off ~len;
      Bytes.equal (Bytes.sub back off len) (Bytes.sub src off len))

let test_xex_span_step_one_matches_into =
  QCheck.Test.make ~name:"XEX span with step 1 = xex_*_into" ~count:100
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.return 16)) QCheck.int64)
    (fun (k, tweak) ->
      let key = Aes.expand (Bytes.of_string k) in
      let rng = Rng.create tweak in
      let src = Rng.bytes rng 64 in
      let a = Bytes.make 64 '\000' and b = Bytes.make 64 '\000' in
      Modes.xex_encrypt_span key ~tweak0:tweak ~tweak_step:1L ~src ~src_off:0 ~dst:a
        ~dst_off:0 ~len:64;
      Modes.xex_encrypt_into key ~tweak ~src ~src_off:0 ~dst:b ~dst_off:0 ~len:64;
      Bytes.equal a b)

let test_ctr_random_lengths =
  QCheck.Test.make ~name:"CTR roundtrip over random lengths" ~count:100
    (QCheck.pair (QCheck.string_of_size QCheck.Gen.small_nat) QCheck.int64)
    (fun (p, nonce) ->
      let key = Aes.expand (Bytes.make 16 'c') in
      let pt = Bytes.of_string p in
      Bytes.equal (Modes.ctr_transform key ~nonce (Modes.ctr_transform key ~nonce pt)) pt)

let golden_key () = Aes.expand (unhex "000102030405060708090a0b0c0d0e0f")

let golden_page () = Bytes.init 4096 (fun i -> Char.chr ((i * 7 + 3) land 0xff))

(* --- AES backend dispatch ------------------------------------------------ *)

(* The C backends (VAES / AES-NI / portable C) against the OCaml executable
   specification. Every tier this CPU can run is forced in turn and checked
   for byte-identical output; the selection is restored to auto afterwards.
   This is what makes the hardware path trustworthy: tweak-stride
   arithmetic, pipelining tails, partial CTR blocks and the equivalent
   inverse cipher all diverge here if the stubs are wrong. *)

let backend_tiers =
  let tiers =
    List.filter
      (fun (_, t) -> Aes.set_backend t)
      [ ("vaes", `Vaes); ("aes-ni", `Aesni); ("c-portable", `Portable) ]
  in
  ignore (Aes.set_backend `Auto);
  tiers

let with_tier tier f =
  ignore (Aes.set_backend tier);
  Fun.protect ~finally:(fun () -> ignore (Aes.set_backend `Auto)) f

let for_all_tiers f =
  List.for_all (fun (name, tier) -> with_tier tier (fun () -> f name)) backend_tiers

let test_aes_backend_known () =
  Alcotest.(check bool)
    (Printf.sprintf "backend %S is a known dispatch target" (Aes.backend ()))
    true
    (List.mem (Aes.backend ()) [ "vaes"; "aes-ni"; "c-portable" ]);
  (* The portable tier exists everywhere, so the sweep below is never empty. *)
  Alcotest.(check bool) "portable tier always available" true
    (List.mem_assoc "c-portable" backend_tiers)

(* The C key expansion (aeskeygenassist on hardware tiers) must serialize to
   exactly the OCaml ek schedule; the dk half is exercised by every decrypt
   equivalence test below. *)
let test_schedule_bytes_match_reference =
  QCheck.Test.make ~name:"C key schedule = OCaml ek words" ~count:100
    (sized_string 16)
    (fun k ->
      let key = Aes.expand (Bytes.of_string k) in
      let rk = Aes.schedule_bytes key in
      let w = Aes.schedule_words key in
      Bytes.length rk = 352
      && Array.for_all
           (fun i -> Int32.to_int (Bytes.get_int32_be rk (4 * i)) land 0xFFFFFFFF = w.(i))
           (Array.init 44 Fun.id))

let test_backend_fips_kats () =
  List.iter
    (fun (name, tier) ->
      with_tier tier (fun () ->
          let key = Aes.expand (unhex "000102030405060708090a0b0c0d0e0f") in
          let ct = Aes.encrypt_block key (unhex "00112233445566778899aabbccddeeff") in
          check_hex (name ^ ": FIPS C.1") "69c4e0d86a7b0430d8cdb78070b4c55a" ct;
          Alcotest.(check bool) (name ^ ": FIPS C.1 decrypt") true
            (Bytes.equal (Aes.decrypt_block key ct)
               (unhex "00112233445566778899aabbccddeeff"));
          let key = Aes.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
          check_hex (name ^ ": FIPS appendix B") "3925841d02dc09fbdc118597196a0b32"
            (Aes.encrypt_block key (unhex "3243f6a8885a308d313198a2e0370734"))))
    backend_tiers

let test_backend_block_equivalence =
  QCheck.Test.make ~name:"every backend: block = reference" ~count:200
    (QCheck.pair (sized_string 16) (sized_string 16))
    (fun (k, p) ->
      let key = Aes.expand (Bytes.of_string k) in
      let pt = Bytes.of_string p in
      let ect = Aes.encrypt_block_reference key pt in
      let dct = Aes.decrypt_block_reference key pt in
      for_all_tiers (fun _ ->
          Bytes.equal (Aes.encrypt_block key pt) ect
          && Bytes.equal (Aes.decrypt_block key pt) dct))

let test_backend_ecb_equivalence =
  QCheck.Test.make ~name:"every backend: ECB = reference (random nblocks)" ~count:100
    (QCheck.pair (sized_string 16) (QCheck.int_bound 20))
    (fun (k, nblocks) ->
      let key = Aes.expand (Bytes.of_string k) in
      let rng = Rng.create (Int64.of_int (nblocks + 1)) in
      let pt = Rng.bytes rng (nblocks * 16) in
      let ect = Modes.ecb_encrypt_reference key pt in
      let dct = Modes.ecb_decrypt_reference key pt in
      for_all_tiers (fun _ ->
          Bytes.equal (Modes.ecb_encrypt key pt) ect
          && Bytes.equal (Modes.ecb_decrypt key pt) dct))

let test_backend_ctr_equivalence =
  QCheck.Test.make ~name:"every backend: CTR = reference (random length/nonce)" ~count:100
    (QCheck.triple (sized_string 16) (QCheck.int_bound 300) QCheck.int64)
    (fun (k, n, nonce) ->
      let key = Aes.expand (Bytes.of_string k) in
      let rng = Rng.create (Int64.add nonce (Int64.of_int n)) in
      let pt = Rng.bytes rng n in
      let expect = Modes.ctr_transform_reference key ~nonce pt in
      for_all_tiers (fun _ -> Bytes.equal (Modes.ctr_transform key ~nonce pt) expect))

let test_backend_xex_span_equivalence =
  QCheck.Test.make
    ~name:"every backend: XEX span = reference (random tweak/stride/offset/len)" ~count:100
    (QCheck.quad (sized_string 16) (QCheck.pair QCheck.int64 QCheck.int64)
       (QCheck.pair (QCheck.int_bound 31) (QCheck.int_bound 31))
       (QCheck.int_bound 20))
    (fun (k, (tweak0, tweak_step), (src_off, dst_off), nblocks) ->
      let nblocks = nblocks + 1 in
      let len = nblocks * 16 in
      let key = Aes.expand (Bytes.of_string k) in
      let rng = Rng.create (Int64.logxor tweak0 tweak_step) in
      let src = Rng.bytes rng (src_off + len + 5) in
      let expect = Bytes.make (dst_off + len + 3) '\000' in
      Modes.xex_encrypt_span_reference key ~tweak0 ~tweak_step ~src ~src_off ~dst:expect
        ~dst_off ~len;
      for_all_tiers (fun _ ->
          let dst = Bytes.make (dst_off + len + 3) '\000' in
          Modes.xex_encrypt_span key ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len;
          let back = Bytes.make (src_off + len + 5) '\000' in
          Modes.xex_decrypt_span key ~tweak0 ~tweak_step ~src:dst ~src_off:dst_off
            ~dst:back ~dst_off:src_off ~len;
          Bytes.equal (Bytes.sub dst dst_off len) (Bytes.sub expect dst_off len)
          && Bytes.equal (Bytes.sub back src_off len) (Bytes.sub src src_off len)))

(* The disk-codec tweak layout: per-sector tweak lanes (stride between
   sectors, step 1 inside) in one bulk call. Reference is the per-sector
   span loop, so this also pins sectors = N independent span calls. *)
let test_backend_xex_sectors_equivalence =
  QCheck.Test.make
    ~name:"every backend: XEX sectors = per-sector span loop (random stride/offsets)"
    ~count:100
    (QCheck.quad (sized_string 16) (QCheck.pair QCheck.int64 QCheck.int64)
       (QCheck.pair (QCheck.int_bound 31) (QCheck.int_bound 31))
       (QCheck.pair (QCheck.int_bound 7) (QCheck.int_bound 5)))
    (fun (k, (tweak0, sector_stride), (src_off, dst_off), (nsectors, sblocks)) ->
      let sector_bytes = (sblocks + 1) * 16 in
      let len = nsectors * sector_bytes in
      let key = Aes.expand (Bytes.of_string k) in
      let rng = Rng.create (Int64.logxor tweak0 sector_stride) in
      let src = Rng.bytes rng (src_off + len + 5) in
      let expect = Bytes.make (dst_off + len + 3) '\000' in
      Modes.xex_encrypt_sectors_reference key ~tweak0 ~sector_stride ~sector_bytes ~src
        ~src_off ~dst:expect ~dst_off ~nsectors;
      for_all_tiers (fun _ ->
          let dst = Bytes.make (dst_off + len + 3) '\000' in
          Modes.xex_encrypt_sectors key ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off
            ~dst ~dst_off ~nsectors;
          let back = Bytes.make (src_off + len + 5) '\000' in
          Modes.xex_decrypt_sectors key ~tweak0 ~sector_stride ~sector_bytes ~src:dst
            ~src_off:dst_off ~dst:back ~dst_off:src_off ~nsectors;
          Bytes.equal (Bytes.sub dst dst_off len) (Bytes.sub expect dst_off len)
          && Bytes.equal (Bytes.sub back src_off len) (Bytes.sub src src_off len)))

(* The mli permits src == dst at the same offset; the SIMD cores load a
   whole 8-block group before storing it, so this pins that contract. The
   disk codecs encode and decode the frame buffer in place through the
   sectors call, so it is checked too, with a random stride and a sector
   size of 1-32 blocks: the codec's 512 B sectors fill whole 8-block
   groups. *)
let test_backend_inplace_aliasing =
  QCheck.Test.make ~name:"every backend: in-place (src == dst) = out-of-place" ~count:100
    (QCheck.quad (sized_string 16) QCheck.int64 (QCheck.int_bound 20)
       (QCheck.triple QCheck.int64 (QCheck.int_bound 7) (QCheck.int_bound 31)))
    (fun (k, tweak0, nblocks, (sector_stride, nsectors, sblocks)) ->
      let nblocks = nblocks + 1 in
      let len = nblocks * 16 in
      let key = Aes.expand (Bytes.of_string k) in
      let rng = Rng.create tweak0 in
      let pt = Rng.bytes rng len in
      let sector_bytes = (sblocks + 1) * 16 in
      let spt = Rng.bytes rng (nsectors * sector_bytes) in
      let sectors encrypt ~src ~dst =
        (if encrypt then Modes.xex_encrypt_sectors else Modes.xex_decrypt_sectors)
          key ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off:0 ~dst ~dst_off:0 ~nsectors
      in
      for_all_tiers (fun _ ->
          let sout = Bytes.make (Bytes.length spt) '\000' in
          sectors true ~src:spt ~dst:sout;
          let sbuf = Bytes.copy spt in
          sectors true ~src:sbuf ~dst:sbuf;
          let dbuf = Bytes.copy sout in
          sectors false ~src:dbuf ~dst:dbuf;
          let out = Bytes.make len '\000' in
          Modes.xex_encrypt_span key ~tweak0 ~tweak_step:16L ~src:pt ~src_off:0 ~dst:out
            ~dst_off:0 ~len;
          let buf = Bytes.copy pt in
          Modes.xex_encrypt_span key ~tweak0 ~tweak_step:16L ~src:buf ~src_off:0 ~dst:buf
            ~dst_off:0 ~len;
          let ecb = Modes.ecb_encrypt key pt in
          let ebuf = Bytes.copy pt in
          Aes.blocks_into key ~encrypt:true ~src:ebuf ~src_off:0 ~dst:ebuf ~dst_off:0
            ~nblocks;
          Bytes.equal buf out && Bytes.equal ebuf ecb && Bytes.equal sbuf sout
          && Bytes.equal dbuf spt))

let test_backend_golden_sweep () =
  (* The DESIGN.md 4c invariant, per backend: ciphertext bits never depend
     on which core computed them. *)
  List.iter
    (fun (name, tier) ->
      with_tier tier (fun () ->
          let ct = Modes.xex_encrypt (golden_key ()) ~tweak:0x40L (golden_page ()) in
          check_hex (name ^ ": XEX page digest")
            "1e91d6ec9633bfbe5eeaebdd40436a81156eca32ea8ca50945602ee573f3fb60"
            (Sha256.digest ct)))
    backend_tiers

let test_bulk_validation () =
  let key = Aes.expand (Bytes.create 16) in
  Alcotest.check_raises "blocks_into src overrun"
    (Invalid_argument "Aes: src range out of bounds") (fun () ->
      Aes.blocks_into key ~encrypt:true ~src:(Bytes.create 31) ~src_off:0
        ~dst:(Bytes.create 32) ~dst_off:0 ~nblocks:2);
  Alcotest.check_raises "blocks_into negative offset"
    (Invalid_argument "Aes: dst range out of bounds") (fun () ->
      Aes.blocks_into key ~encrypt:false ~src:(Bytes.create 32) ~src_off:0
        ~dst:(Bytes.create 32) ~dst_off:(-1) ~nblocks:2);
  Alcotest.check_raises "xex_span_into ragged len"
    (Invalid_argument "Aes.xex_span_into: len must be a multiple of 16") (fun () ->
      Aes.xex_span_into key ~encrypt:true ~tweak0:0L ~tweak_step:1L
        ~src:(Bytes.create 32) ~src_off:0 ~dst:(Bytes.create 32) ~dst_off:0 ~len:24);
  Alcotest.check_raises "ctr_into short dst"
    (Invalid_argument "Aes: dst range out of bounds") (fun () ->
      Aes.ctr_into key ~nonce:0L ~src:(Bytes.create 32) ~src_off:0 ~dst:(Bytes.create 16)
        ~dst_off:0 ~len:32)

(* --- range checks at the bounds ------------------------------------------- *)

(* Every range check in front of the C stubs (and in front of the
   reference's [unsafe_get]) gets offsets, lengths and counts drawn where
   sums and products wrap: 0, +-1 around the buffer ends, [max_int - k],
   [min_int] and [2^k + 1] counts, mixed with values in range. The model decides "in range" in small
   integers only, so it cannot wrap itself. A call in range must match
   the reference and leave the rest of [dst] untouched; any other call
   must raise [Invalid_argument] (HMAC's verify returns [false] instead,
   as documented). Each case runs under every AES tier the CPU has. *)

type bounds_case = {
  entry : int;
  enc : bool;
  src_len : int;
  dst_len : int;
  sector_bytes : int;
  a : int;
  b : int;
  c : int;
}

let bounds_entries =
  [| "Aes.encrypt_block_into"; "Aes.encrypt_block_reference_into"; "Aes.blocks_into";
     "Aes.ctr_into"; "Aes.xex_span_into"; "Modes.xex_encrypt_span"; "Aes.xex_sectors_into";
     "Modes.xex_encrypt_sectors"; "Sha256.feed_sub"; "Sha256.finalize_into";
     "Hmac.verify_build" |]

(* Each field is drawn in range three times in four and at a bound
   otherwise, so both sides of the model see many cases per entry. *)
let gen_bounds_case =
  let open QCheck.Gen in
  let lens = [ 0; 1; 15; 16; 17; 32; 33; 64; 100; 512; 513; 1024; 1040 ] in
  let* entry = int_bound (Array.length bounds_entries - 1) in
  let* enc = bool in
  let* src_len = oneofl lens in
  let* dst_len = oneofl lens in
  let* sector_bytes = oneofl [ 16; 64; 512; 0; 24 ] in
  let per w l = if w > 0 then l / w else l in
  let edges =
    [ 0; 16; 32; src_len; dst_len; per 16 src_len; per 16 dst_len; per sector_bytes src_len;
      per sector_bytes dst_len ]
  in
  let bound =
    frequency
      [ (5, map2 ( + ) (oneofl edges) (int_range (-1) 1));
        (1, oneofl [ min_int; min_int + 1; max_int ]);
        (2, map (fun k -> max_int - k) (int_bound 64));
        (2, map (fun k -> (1 lsl k) + 1) (int_range 1 62)) ]
  in
  let field ?(step = 1) hi = frequency [ (3, map (fun k -> k * step) (int_bound (hi / step))); (1, bound) ] in
  let small = min src_len dst_len in
  (* CTR's offsets are drawn after its length [c], in range three times
     in five and otherwise at the edges that length makes: 0, [len - 1],
     the buffer's length less [len] and its neighbours, [max_int] and
     negatives. *)
  let offset buf_len len =
    frequency
      [ (3, int_bound (max 0 (buf_len - len)));
        (2,
          oneofl
            [ 0; len - 1; buf_len - len - 1; buf_len - len; buf_len - len + 1; max_int; -1;
              -len; min_int ]) ]
  in
  if bounds_entries.(entry) = "Aes.ctr_into" then
    let* c = field small in
    let* a = offset src_len c in
    let+ b = offset dst_len c in
    { entry; enc; src_len; dst_len; sector_bytes; a; b; c }
  else
    let* a = field (if entry = 9 || entry = 10 then dst_len else src_len) in
    let* b = field (if entry = 8 then src_len else dst_len) in
    let+ c =
      match bounds_entries.(entry) with
      | "Aes.blocks_into" -> field (small / 16)
      | "Aes.xex_span_into" | "Modes.xex_encrypt_span" -> field ~step:16 small
      | _ -> field (per sector_bytes small)
    in
    { entry; enc; src_len; dst_len; sector_bytes; a; b; c }

let print_bounds_case k =
  Printf.sprintf "%s enc=%b src_len=%d dst_len=%d sector_bytes=%d a=%d b=%d c=%d"
    bounds_entries.(k.entry) k.enc k.src_len k.dst_len k.sector_bytes k.a k.b k.c

(* [count] items of [width] bytes at [off] fit a buffer of [len] bytes.
   Every product and sum here stays below a few MiB. *)
let fits len off ~count ~width =
  off >= 0 && count >= 0 && off <= len && count <= len && off + (count * width) <= len

let bounds_key = Aes.expand (Bytes.init 16 (fun i -> Char.chr (((i * 17) + 3) land 0xff)))

(* [run] either raises [Invalid_argument] or yields the whole destination
   buffer; [expected] builds it from the reference. *)
let raises_or_matches ~in_range ~run ~expected =
  match run () with
  | exception Invalid_argument _ -> not in_range
  | got -> in_range && Bytes.equal got (expected ())

let check_bounds_case k =
  let key = bounds_key in
  let src = Bytes.init k.src_len (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
  let dst0 = Bytes.init k.dst_len (fun i -> Char.chr (((i * 13) + 1) land 0xff)) in
  (* [dst0] with [len] bytes of [part] at [off]. *)
  let patched off part =
    let d = Bytes.copy dst0 in
    Bytes.blit part 0 d off (Bytes.length part);
    d
  in
  let into f =
    let d = Bytes.copy dst0 in
    f d;
    d
  in
  let nonce = 0xF0E1D2C3B4A59687L in
  let span_ref =
    if k.enc then Modes.xex_encrypt_span_reference else Modes.xex_decrypt_span_reference
  in
  let sectors_ref =
    if k.enc then Modes.xex_encrypt_sectors_reference else Modes.xex_decrypt_sectors_reference
  in
  match bounds_entries.(k.entry) with
  | "Aes.encrypt_block_into" | "Aes.encrypt_block_reference_into" ->
      let reference = k.entry = 1 in
      let f, g =
        match (reference, k.enc) with
        | false, true -> (Aes.encrypt_block_into, Aes.encrypt_block_reference)
        | false, false -> (Aes.decrypt_block_into, Aes.decrypt_block_reference)
        | true, true -> (Aes.encrypt_block_reference_into, Aes.encrypt_block)
        | true, false -> (Aes.decrypt_block_reference_into, Aes.decrypt_block)
      in
      raises_or_matches
        ~in_range:(fits k.src_len k.a ~count:1 ~width:16 && fits k.dst_len k.b ~count:1 ~width:16)
        ~run:(fun () -> into (fun dst -> f key ~src ~src_off:k.a ~dst ~dst_off:k.b))
        ~expected:(fun () -> patched k.b (g key (Bytes.sub src k.a 16)))
  | "Aes.blocks_into" ->
      let nblocks = k.c in
      raises_or_matches
        ~in_range:
          (fits k.src_len k.a ~count:nblocks ~width:16
          && fits k.dst_len k.b ~count:nblocks ~width:16)
        ~run:(fun () ->
          into (fun dst ->
              Aes.blocks_into key ~encrypt:k.enc ~src ~src_off:k.a ~dst ~dst_off:k.b ~nblocks))
        ~expected:(fun () ->
          let run = Bytes.sub src k.a (nblocks * 16) in
          patched k.b
            ((if k.enc then Modes.ecb_encrypt_reference else Modes.ecb_decrypt_reference)
               key run))
  | "Aes.ctr_into" ->
      let len = k.c in
      raises_or_matches
        ~in_range:
          (fits k.src_len k.a ~count:len ~width:1 && fits k.dst_len k.b ~count:len ~width:1)
        ~run:(fun () ->
          into (fun dst -> Aes.ctr_into key ~nonce ~src ~src_off:k.a ~dst ~dst_off:k.b ~len))
        ~expected:(fun () ->
          patched k.b (Modes.ctr_transform_reference key ~nonce (Bytes.sub src k.a len)))
  | "Aes.xex_span_into" | "Modes.xex_encrypt_span" ->
      let len = k.c in
      let f ~src ~src_off ~dst ~dst_off ~len =
        if k.entry = 4 then
          Aes.xex_span_into key ~encrypt:k.enc ~tweak0:5L ~tweak_step:16L ~src ~src_off ~dst
            ~dst_off ~len
        else
          (if k.enc then Modes.xex_encrypt_span else Modes.xex_decrypt_span)
            key ~tweak0:5L ~tweak_step:16L ~src ~src_off ~dst ~dst_off ~len
      in
      raises_or_matches
        ~in_range:
          (len mod 16 = 0
          && fits k.src_len k.a ~count:len ~width:1
          && fits k.dst_len k.b ~count:len ~width:1)
        ~run:(fun () -> into (fun dst -> f ~src ~src_off:k.a ~dst ~dst_off:k.b ~len))
        ~expected:(fun () ->
          into (fun dst ->
              span_ref key ~tweak0:5L ~tweak_step:16L ~src ~src_off:k.a ~dst ~dst_off:k.b ~len))
  | "Aes.xex_sectors_into" | "Modes.xex_encrypt_sectors" ->
      let nsectors = k.c and sector_bytes = k.sector_bytes in
      let f ~src ~src_off ~dst ~dst_off =
        if k.entry = 6 then
          Aes.xex_sectors_into key ~encrypt:k.enc ~tweak0:9L ~sector_stride:64L ~sector_bytes
            ~src ~src_off ~dst ~dst_off ~nsectors
        else
          (if k.enc then Modes.xex_encrypt_sectors else Modes.xex_decrypt_sectors)
            key ~tweak0:9L ~sector_stride:64L ~sector_bytes ~src ~src_off ~dst ~dst_off
            ~nsectors
      in
      raises_or_matches
        ~in_range:
          (sector_bytes > 0
          && sector_bytes mod 16 = 0
          && fits k.src_len k.a ~count:nsectors ~width:sector_bytes
          && fits k.dst_len k.b ~count:nsectors ~width:sector_bytes)
        ~run:(fun () -> into (fun dst -> f ~src ~src_off:k.a ~dst ~dst_off:k.b))
        ~expected:(fun () ->
          into (fun dst ->
              sectors_ref key ~tweak0:9L ~sector_stride:64L ~sector_bytes ~src ~src_off:k.a
                ~dst ~dst_off:k.b ~nsectors))
  | "Sha256.feed_sub" ->
      raises_or_matches
        ~in_range:(fits k.src_len k.a ~count:k.b ~width:1)
        ~run:(fun () ->
          let ctx = Sha256.init () in
          Sha256.feed_sub ctx src ~off:k.a ~len:k.b;
          Sha256.finalize ctx)
        ~expected:(fun () -> Sha256.digest_reference (Bytes.sub src k.a k.b))
  | "Sha256.finalize_into" ->
      raises_or_matches
        ~in_range:(fits k.dst_len k.a ~count:1 ~width:32)
        ~run:(fun () ->
          into (fun dst ->
              let ctx = Sha256.init () in
              Sha256.feed ctx src;
              Sha256.finalize_into ctx ~dst ~dst_off:k.a))
        ~expected:(fun () -> patched k.a (Sha256.digest_reference src))
  | _ -> (
      let mkey = Hmac.key (Bytes.of_string "bounds") in
      let msg ctx = Sha256.feed ctx src in
      let in_range = fits k.dst_len k.a ~count:1 ~width:32 in
      let tag = if in_range then patched k.a (Hmac.mac_build mkey msg) else dst0 in
      match Hmac.verify_build mkey msg ~tag ~tag_off:k.a with
      | exception _ -> false
      | verdict -> verdict = in_range)

let test_range_checks_at_bounds =
  QCheck.Test.make ~name:"range checks at the bounds raise or match the reference" ~count:3000
    (QCheck.make ~print:print_bounds_case gen_bounds_case)
    (fun k -> for_all_tiers (fun _ -> check_bounds_case k))

(* Golden digests captured from the seed (pre-T-table) implementation: any
   drift in ciphertext bits across the rewrite fails these. *)
let test_golden_xex_page () =
  let ct = Modes.xex_encrypt (golden_key ()) ~tweak:0x40L (golden_page ()) in
  check_hex "XEX page digest" "1e91d6ec9633bfbe5eeaebdd40436a81156eca32ea8ca50945602ee573f3fb60"
    (Sha256.digest ct)

let test_golden_ctr () =
  let ct =
    Modes.ctr_transform (golden_key ()) ~nonce:0x1234L (Bytes.sub (golden_page ()) 0 1000)
  in
  check_hex "CTR digest" "06e7cd77daad655e9ea415a5ba08e0621f7829ce9befd92c8a046dc0b8cbe277"
    (Sha256.digest ct)

(* --- DH ------------------------------------------------------------------ *)

let test_dh_agreement =
  QCheck.Test.make ~name:"both sides derive the same secret" ~count:100 QCheck.int64
    (fun seed ->
      let rng = Rng.create seed in
      let sa, pa = Dh.generate rng in
      let sb, pb = Dh.generate rng in
      Bytes.equal (Dh.shared_secret sa pb) (Dh.shared_secret sb pa))

let test_dh_public_in_group =
  QCheck.Test.make ~name:"public values lie in the group" ~count:100 QCheck.int64
    (fun seed ->
      let rng = Rng.create seed in
      let _, pub = Dh.generate rng in
      Int64.compare pub 1L > 0 && Int64.compare pub Dh.p < 0)

let test_dh_third_party_differs () =
  let rng = Rng.create 9L in
  let sa, _pa = Dh.generate rng in
  let _sb, pb = Dh.generate rng in
  let sm, _pm = Dh.generate rng in
  (* The man in the middle with its own secret does not derive the pair's key. *)
  Alcotest.(check bool) "mitm differs" false
    (Bytes.equal (Dh.shared_secret sa pb) (Dh.shared_secret sm pb))

let test_dh_rejects_out_of_group () =
  let rng = Rng.create 10L in
  let s, _ = Dh.generate rng in
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Dh.shared_secret: public value out of group") (fun () ->
      ignore (Dh.shared_secret s 0L))

let test_dh_serialization () =
  let rng = Rng.create 11L in
  let _, pub = Dh.generate rng in
  Alcotest.(check int64) "roundtrip" pub (Dh.public_of_bytes (Dh.public_to_bytes pub))

(* The group multiplication as it was first written, kept as the oracle:
   peasant multiplication over boxed [Int64]s, every intermediate below
   2p < 2^62. *)
let peasant_mulmod a b =
  let p = Dh.p in
  let rec loop a b acc =
    if Int64.equal b 0L then acc
    else
      let acc =
        if Int64.equal (Int64.logand b 1L) 1L then Int64.rem (Int64.add acc a) p else acc
      in
      loop (Int64.rem (Int64.add a a) p) (Int64.shift_right_logical b 1) acc
  in
  loop (Int64.rem a p) b 0L

let test_dh_mulmod_reference =
  let p = Int64.to_int Dh.p in
  let edge =
    [ 0; 1; 2; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1; (1 lsl 31) - 1; 1 lsl 31;
      (1 lsl 31) + 1; p - 2; p - 1 ]
  in
  let operand = QCheck.Gen.(oneof [ oneofl edge; map (fun x -> (x land max_int) mod p) int ]) in
  QCheck.Test.make ~name:"mulmod = peasant multiplication" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair int int) (QCheck.Gen.pair operand operand))
    (fun (a, b) ->
      Dh.mulmod a b = Int64.to_int (peasant_mulmod (Int64.of_int a) (Int64.of_int b)))

(* Recorded from the Int64 implementation this one replaced: the same
   seed still gives the same keypairs and the same shared key. *)
let test_dh_known_answer () =
  let rng = Rng.create 2026L in
  let sa, pa = Dh.generate rng in
  let sb, pb = Dh.generate rng in
  Alcotest.(check int64) "first public" 293686901870310050L pa;
  Alcotest.(check int64) "second public" 153020972433564698L pb;
  let key = "eacbfba2511341f181f1494decf2e6671d634adff187af5357eca55b4c4f6e8c" in
  check_hex "shared secret, one side" key (Dh.shared_secret sa pb);
  check_hex "shared secret, other side" key (Dh.shared_secret sb pa)

(* A modexp in native ints allocates nothing; what a keypair still costs
   is its result pair, the boxed public value and the generator's step.
   The boxed peasant loop took 43-46k minor words per keypair. *)
let test_dh_generate_minor_words () =
  let rng = Rng.create 7L in
  ignore (Dh.generate rng);
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Dh.generate rng))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_call > 16. then
    Alcotest.failf "Dh.generate allocated %.1f minor words per keypair (at most 16)" per_call

(* --- Keywrap ------------------------------------------------------------- *)

let test_wrap_roundtrip =
  QCheck.Test.make ~name:"wrap/unwrap roundtrip" ~count:100 QCheck.string
    (fun s ->
      let kek = Sha256.digest_string "kek" in
      let w = Keywrap.wrap ~kek (Bytes.of_string s) in
      match Keywrap.unwrap ~kek w with
      | Some k -> Bytes.to_string k = s
      | None -> false)

let test_wrap_wrong_kek () =
  let w = Keywrap.wrap ~kek:(Sha256.digest_string "a") (Bytes.of_string "key material") in
  Alcotest.(check bool) "wrong kek fails" true
    (Keywrap.unwrap ~kek:(Sha256.digest_string "b") w = None)

let test_wrap_tamper () =
  let kek = Sha256.digest_string "kek" in
  let w = Keywrap.wrap ~kek (Bytes.of_string "key material") in
  let b = Keywrap.to_bytes w in
  Bytes.set b 13 (Char.chr (Char.code (Bytes.get b 13) lxor 0x40));
  match Keywrap.of_bytes b with
  | None -> Alcotest.(check bool) "parse may fail" true true
  | Some w' -> Alcotest.(check bool) "tampered unwrap fails" true (Keywrap.unwrap ~kek w' = None)

let test_wrap_serialization =
  QCheck.Test.make ~name:"serialized wrap parses back and unwraps" ~count:100 QCheck.string
    (fun s ->
      let kek = Sha256.digest_string "serialize" in
      let w = Keywrap.wrap ~kek (Bytes.of_string s) in
      match Keywrap.of_bytes (Keywrap.to_bytes w) with
      | None -> false
      | Some w' -> (
          match Keywrap.unwrap ~kek w' with
          | Some k -> Bytes.to_string k = s
          | None -> false))

let test_wrap_nonces_differ () =
  let kek = Sha256.digest_string "kek" in
  let w1 = Keywrap.wrap ~kek (Bytes.of_string "same") in
  let w2 = Keywrap.wrap ~kek (Bytes.of_string "same") in
  Alcotest.(check bool) "two wraps of same key differ" false
    (Bytes.equal (Keywrap.to_bytes w1) (Keywrap.to_bytes w2))

(* --- RNG ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 123L and b = Rng.create 123L in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    (QCheck.pair QCheck.int64 QCheck.small_int)
    (fun (seed, bound) ->
      let bound = max 1 bound in
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" false
    (Int64.equal (Rng.next64 a) (Rng.next64 b))

let prop t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "crypto"
    [ ( "aes",
        [ Alcotest.test_case "FIPS C.1" `Quick test_aes_fips_c1;
          Alcotest.test_case "FIPS appendix B" `Quick test_aes_appendix_b;
          Alcotest.test_case "size validation" `Quick test_aes_wrong_sizes;
          Alcotest.test_case "into variant" `Quick test_aes_into_matches_alloc;
          Alcotest.test_case "FIPS A.1 key expansion" `Quick test_aes_key_expansion_fips_a1;
          Alcotest.test_case "in-place block ops" `Quick test_aes_inplace;
          Alcotest.test_case "range validation" `Quick test_aes_bad_range;
          prop test_aes_into_at_offset;
          prop test_aes_roundtrip_prop;
          prop test_aes_key_sensitivity ] );
      ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
          Alcotest.test_case "backend dispatch" `Quick test_sha_backend_known;
          Alcotest.test_case "into variants" `Quick test_sha_into_matches_alloc;
          Alcotest.test_case "pair_into dst aliasing" `Quick test_sha_pair_into_aliases;
          Alcotest.test_case "reset reuse" `Quick test_sha_reset_reuse;
          prop test_sha_streaming_equals_oneshot;
          prop test_sha_chunked_matches_reference;
          prop test_sha_pair_matches_cat;
          prop test_sha_feed_u64_be ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231 cases 1-3" `Quick test_hmac_rfc4231;
          Alcotest.test_case "RFC 4231 long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "build_into in place" `Quick test_hmac_build_into_in_place;
          prop test_hmac_prepared_matches_oneshot;
          prop test_hmac_distinct_keys ] );
      ( "modes",
        [ prop test_ecb_roundtrip;
          prop test_ctr_involution;
          Alcotest.test_case "CTR nonce sensitivity" `Quick test_ctr_nonce_matters;
          prop test_xex_roundtrip;
          Alcotest.test_case "XEX relocation garbles" `Quick test_xex_relocation_garbles;
          Alcotest.test_case "XEX length check" `Quick test_xex_bad_length;
          prop test_xex_span_equals_blocks;
          prop test_xex_span_step_one_matches_into;
          prop test_ctr_random_lengths ] );
      ( "aes-backend",
        [ Alcotest.test_case "backend dispatch" `Quick test_aes_backend_known;
          Alcotest.test_case "FIPS KATs per tier" `Quick test_backend_fips_kats;
          Alcotest.test_case "golden digest per tier" `Quick test_backend_golden_sweep;
          Alcotest.test_case "bulk bounds validation" `Quick test_bulk_validation;
          prop test_schedule_bytes_match_reference;
          prop test_backend_block_equivalence;
          prop test_backend_ecb_equivalence;
          prop test_backend_ctr_equivalence;
          prop test_backend_xex_span_equivalence;
          prop test_backend_xex_sectors_equivalence;
          prop test_backend_inplace_aliasing ] );
      ("bounds", [ prop test_range_checks_at_bounds ]);
      ( "golden",
        [ Alcotest.test_case "XEX page ciphertext" `Quick test_golden_xex_page;
          Alcotest.test_case "CTR keystream" `Quick test_golden_ctr ] );
      ( "dh",
        [ prop test_dh_agreement;
          prop test_dh_public_in_group;
          Alcotest.test_case "man-in-the-middle differs" `Quick test_dh_third_party_differs;
          Alcotest.test_case "out-of-group rejected" `Quick test_dh_rejects_out_of_group;
          Alcotest.test_case "serialization" `Quick test_dh_serialization;
          prop test_dh_mulmod_reference;
          Alcotest.test_case "known answer" `Quick test_dh_known_answer;
          Alcotest.test_case "generate allocates a few words" `Quick
            test_dh_generate_minor_words ] );
      ( "keywrap",
        [ prop test_wrap_roundtrip;
          Alcotest.test_case "wrong kek" `Quick test_wrap_wrong_kek;
          Alcotest.test_case "tamper detection" `Quick test_wrap_tamper;
          prop test_wrap_serialization;
          Alcotest.test_case "nonce freshness" `Quick test_wrap_nonces_differ ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          prop test_rng_int_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent ] ) ]
