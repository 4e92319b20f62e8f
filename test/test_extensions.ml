(* Tests for the Section 8 hardware-suggestion extensions: the Bonsai
   Merkle Tree integrity engine and the customized-key (GEK) API. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Bmt = Hw.Bmt
module Rng = Fidelius_crypto.Rng

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- BMT (hardware layer) -------------------------------------------------- *)

let bmt_env n =
  let m = Hw.Machine.create ~nr_frames:(max 128 (n + 1)) ~seed:13L () in
  let frames = Hw.Machine.alloc_frames m n in
  List.iteri
    (fun i pfn ->
      Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:0
        (Bytes.make Hw.Addr.page_size (Char.chr ((65 + i) land 0xff))))
    frames;
  (m, frames, Bmt.create m ~frames)

let test_bmt_clean_verifies () =
  let _, frames, bmt = bmt_env 5 in
  Alcotest.(check bool) "all frames verify" true (Result.is_ok (Bmt.verify_all bmt));
  List.iter
    (fun pfn -> Alcotest.(check bool) "single verify" true (Result.is_ok (Bmt.verify bmt pfn)))
    frames

let test_bmt_detects_any_flip =
  QCheck.Test.make ~name:"BMT detects any single-bit flip in any frame" ~count:60
    (QCheck.triple (QCheck.int_bound 4) (QCheck.int_bound (Hw.Addr.page_size - 1))
       (QCheck.int_bound 7))
    (fun (which, off, bit) ->
      let m, frames, bmt = bmt_env 5 in
      let victim = List.nth frames which in
      Hw.Physmem.flip_bit m.Hw.Machine.mem victim ~off ~bit;
      Result.is_error (Bmt.verify bmt victim)
      && Result.is_error (Bmt.verify_all bmt)
      (* ...and the other frames still verify individually *)
      && List.for_all
           (fun pfn -> pfn = victim || Result.is_ok (Bmt.verify bmt pfn))
           frames)

let test_bmt_update_rebinds () =
  let m, frames, bmt = bmt_env 3 in
  let pfn = List.nth frames 1 in
  let old_root = Bmt.root bmt in
  Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:10 (Bytes.of_string "legit update");
  Alcotest.(check bool) "stale tree flags the write" true (Result.is_error (Bmt.verify bmt pfn));
  Bmt.update bmt pfn;
  Alcotest.(check bool) "verifies after update" true (Result.is_ok (Bmt.verify bmt pfn));
  Alcotest.(check bool) "root changed" false (Bytes.equal old_root (Bmt.root bmt));
  Alcotest.(check bool) "whole tree consistent" true (Result.is_ok (Bmt.verify_all bmt))

let test_bmt_uncovered_fails_closed () =
  let _, _, bmt = bmt_env 3 in
  Alcotest.(check bool) "uncovered frame" true (Result.is_error (Bmt.verify bmt 99));
  Alcotest.(check bool) "covered query" true (not (Bmt.covered bmt 99))

let test_bmt_single_frame_tree () =
  let m, frames, bmt = bmt_env 1 in
  Alcotest.(check bool) "one-leaf tree verifies" true (Result.is_ok (Bmt.verify_all bmt));
  Hw.Physmem.flip_bit m.Hw.Machine.mem (List.hd frames) ~off:0 ~bit:0;
  Alcotest.(check bool) "and detects" true (Result.is_error (Bmt.verify_all bmt))

let test_bmt_odd_width_levels () =
  (* 7 leaves exercises the self-paired odd nodes at every level. *)
  let m, frames, bmt = bmt_env 7 in
  Alcotest.(check bool) "odd tree verifies" true (Result.is_ok (Bmt.verify_all bmt));
  let last = List.nth frames 6 in
  Hw.Physmem.flip_bit m.Hw.Machine.mem last ~off:100 ~bit:5;
  Alcotest.(check bool) "last leaf detected" true (Result.is_error (Bmt.verify bmt last))

let test_bmt_charges_cycles () =
  let m, frames, bmt = bmt_env 4 in
  let before = Hw.Cost.category m.Hw.Machine.ledger "bmt" in
  let hashes_before = Bmt.hashes_performed bmt in
  ignore (Bmt.verify bmt (List.hd frames));
  Alcotest.(check bool) "hash work accounted" true
    (Hw.Cost.category m.Hw.Machine.ledger "bmt" > before
    && Bmt.hashes_performed bmt > hashes_before)

(* --- BMT fast paths: batched updates, O(1) fetch checks --------------------- *)

let test_bmt_update_many_equals_sequential =
  (* Tree widths from 1 to 300 leaves put odd widths (self-paired last
     nodes) at every level, and batches of up to 40 frames share
     ancestors at every height. *)
  let batch =
    QCheck.Gen.(
      int_range 1 300 >>= fun width ->
      pair (return width) (list_size (int_range 1 40) (int_bound (width - 1))))
  in
  QCheck.Test.make
    ~name:"update_many = sequential updates (same tree, strictly fewer hashes)" ~count:40
    (QCheck.make ~print:QCheck.Print.(pair int (list int)) batch)
    (fun (width, picks) ->
      (* Two identical machines and trees; dirty the same frames in both,
         then rebind one with a single batch and the other frame by frame. *)
      let m1, frames1, bmt1 = bmt_env width in
      let m2, frames2, bmt2 = bmt_env width in
      let dirty m frames =
        List.map
          (fun i ->
            let pfn = List.nth frames i in
            Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:7 (Bytes.of_string "dirtied");
            pfn)
          picks
      in
      let dirty1 = dirty m1 frames1 and dirty2 = dirty m2 frames2 in
      let h1 = Bmt.hashes_performed bmt1 and h2 = Bmt.hashes_performed bmt2 in
      Bmt.update_many bmt1 dirty1;
      List.iter (Bmt.update bmt2) dirty2;
      let batch = Bmt.hashes_performed bmt1 - h1 in
      let seq = Bmt.hashes_performed bmt2 - h2 in
      let distinct = List.length (List.sort_uniq compare picks) in
      Bytes.equal (Bmt.root bmt1) (Bmt.root bmt2)
      && Result.is_ok (Bmt.verify_all bmt1)
      && List.for_all (fun pfn -> Result.is_ok (Bmt.verify bmt1 pfn)) dirty1
      (* Shared ancestors (at minimum the root) are hashed once per batch,
         not once per frame — so any batch of >= 2 distinct leaves does
         strictly less hash work than the sequential loop. *)
      && (if distinct >= 2 then batch < seq else batch <= seq))

let test_bmt_update_many_single_frame_cost () =
  (* A one-frame batch charges exactly what the sequential update always
     did: one page hash plus one node hash per interior level
     (16 leaves -> 4 levels). The cost model must not drift. *)
  let m, frames, bmt = bmt_env 16 in
  let before = Hw.Cost.category m.Hw.Machine.ledger "bmt" in
  Bmt.update_many bmt [ List.nth frames 5 ];
  Alcotest.(check int) "single-frame batch cycles"
    (1600 + (4 * 80))
    (Hw.Cost.category m.Hw.Machine.ledger "bmt" - before)

let test_bmt_update_many_multi_frame_pin () =
  (* The bechamel entry's shape: a 256-frame tree, and one batch of the 64
     frames [3 * i]. Neighbouring batch frames share parents and all of
     them share the upper levels, so this pins the per-level dedup: 64
     leaf hashes plus each distinct ancestor once (64 + 48 + 24 + 12 + 6
     + 3 + 2 + 1 = 160 node hashes). Cycles, hash count and root are
     exact. *)
  let m = Hw.Machine.create ~nr_frames:256 ~seed:97L () in
  let frames = List.init 256 (fun i -> i) in
  let bmt = Bmt.create m ~frames in
  let batch = List.init 64 (fun i -> 3 * i) in
  List.iter
    (fun pfn ->
      Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:(pfn * 13)
        (Bytes.of_string (Printf.sprintf "batch write to frame %d" pfn)))
    batch;
  let cycles = Hw.Cost.category m.Hw.Machine.ledger "bmt" in
  let hashes = Bmt.hashes_performed bmt in
  Bmt.update_many bmt batch;
  Alcotest.(check int) "batch cycles" ((64 * 1600) + (160 * 80))
    (Hw.Cost.category m.Hw.Machine.ledger "bmt" - cycles);
  Alcotest.(check int) "batch hashes" 224 (Bmt.hashes_performed bmt - hashes);
  Alcotest.(check string) "root"
    "1dbb485473f2d9ef361c4fa0e1615d3167cb0f55b73f050ae2aab17ac1556a7d"
    (Fidelius_crypto.Sha256.hex (Bmt.root bmt));
  Alcotest.(check bool) "tree verifies" true (Result.is_ok (Bmt.verify_all bmt))

let test_bmt_update_many_ignores_uncovered () =
  let m, frames, bmt = bmt_env 4 in
  let pfn = List.hd frames in
  Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:0 (Bytes.of_string "new bytes");
  (* Duplicates collapse; uncovered frames are ignored, not an error. *)
  Bmt.update_many bmt [ pfn; pfn; 99; pfn ];
  Alcotest.(check bool) "tree consistent after mixed batch" true
    (Result.is_ok (Bmt.verify_all bmt));
  Bmt.update_many bmt [];
  Alcotest.(check bool) "empty batch is a no-op" true (Result.is_ok (Bmt.verify_all bmt))

let test_bmt_fetch_check_o1 () =
  (* The inline fetch check hashes exactly once per call — independent of
     tree size — books no cycles, and never touches the charged walk
     counter. This is the O(1) claim of the fast path, pinned. *)
  let check n =
    let m, frames, bmt = bmt_env n in
    let pfn = List.nth frames (n / 2) in
    let data = Hw.Physmem.dump m.Hw.Machine.mem pfn in
    let charged = Hw.Cost.category m.Hw.Machine.ledger "bmt" in
    let walked = Bmt.hashes_performed bmt in
    let before = Bmt.fetch_hashes_performed bmt in
    Alcotest.(check bool)
      (Printf.sprintf "clean fetch passes (%d leaves)" n)
      true
      (Result.is_ok (Bmt.verify_fetched bmt pfn ~data));
    Alcotest.(check int)
      (Printf.sprintf "exactly one hash per check (%d leaves)" n)
      1
      (Bmt.fetch_hashes_performed bmt - before);
    Alcotest.(check int) "no charged walk hashes" walked (Bmt.hashes_performed bmt);
    Alcotest.(check int) "no cycles booked" charged
      (Hw.Cost.category m.Hw.Machine.ledger "bmt")
  in
  check 2;
  check 8;
  check 64

let test_bmt_fetch_check_detects () =
  let m, frames, bmt = bmt_env 6 in
  let pfn = List.nth frames 2 in
  (* Tampered fill: the bus delivers bytes differing from the bound page. *)
  let data = Hw.Physmem.dump m.Hw.Machine.mem pfn in
  Bytes.set data 40 (Char.chr (Char.code (Bytes.get data 40) lxor 0x20));
  Alcotest.(check bool) "tampered fill detected" true
    (Result.is_error (Bmt.verify_fetched bmt pfn ~data));
  (* Stale leaf: DRAM rewritten behind the tree's back — an honest fill of
     the *new* bytes must still fail until the leaf is rebound. *)
  Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:0 (Bytes.of_string "silent rewrite");
  let fresh = Hw.Physmem.dump m.Hw.Machine.mem pfn in
  Alcotest.(check bool) "stale leaf detected" true
    (Result.is_error (Bmt.verify_fetched bmt pfn ~data:fresh));
  Bmt.update bmt pfn;
  Alcotest.(check bool) "rebinding clears it" true
    (Result.is_ok
       (Bmt.verify_fetched bmt pfn ~data:(Hw.Physmem.dump m.Hw.Machine.mem pfn)));
  Alcotest.(check bool) "uncovered frame fails closed" true
    (Result.is_error (Bmt.verify_fetched bmt 99 ~data:fresh))

let test_bmt_verify_cost_pin () =
  (* The explicit walk keeps its exact pre-fast-path price: one page hash
     plus one node hash per interior level (8 leaves -> 3 levels). *)
  let m, frames, bmt = bmt_env 8 in
  let before = Hw.Cost.category m.Hw.Machine.ledger "bmt" in
  let hashes = Bmt.hashes_performed bmt in
  ignore (Bmt.verify bmt (List.hd frames));
  Alcotest.(check int) "walk cycles" (1600 + (3 * 80))
    (Hw.Cost.category m.Hw.Machine.ledger "bmt" - before);
  Alcotest.(check int) "walk hashes" 4 (Bmt.hashes_performed bmt - hashes)

(* --- Integrity (core layer) ------------------------------------------------- *)

let protected_env () =
  let m = Hw.Machine.create ~seed:14L () in
  let hv = Xen.Hypervisor.boot m in
  let fid = Fid.install hv in
  let rng = Rng.create 15L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  let dom = ok (Fid.boot_protected_vm fid ~name:"ext" ~memory_pages:12 ~prepared) in
  (m, hv, fid, dom)

let test_integrity_flow () =
  let _, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "ledger row");
  (match Core.Integrity.verified_read integ ~addr:0x3000 ~len:10 with
  | Ok b -> Alcotest.(check string) "verified read" "ledger row" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "domain sweep clean" true
    (Result.is_ok (Core.Integrity.verify_domain integ))

let test_integrity_detects_rowhammer () =
  let m, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "ledger row");
  (match Hw.Pagetable.lookup dom.Xen.Domain.npt 3 with
  | Some npte ->
      Hw.Cache.invalidate_page m.Hw.Machine.cache npte.Hw.Pagetable.frame;
      Hw.Physmem.flip_bit m.Hw.Machine.mem npte.Hw.Pagetable.frame ~off:2 ~bit:1
  | None -> Alcotest.fail "frame missing");
  Alcotest.(check bool) "flip detected on read" true
    (Result.is_error (Core.Integrity.verified_read integ ~addr:0x3000 ~len:10));
  Alcotest.(check bool) "flip detected on sweep" true
    (Result.is_error (Core.Integrity.verify_domain integ))

let test_integrity_detects_ciphertext_replay () =
  (* The in-place ciphertext-restore replay that plain Fidelius only blocks
     via mapping permissions: with BMT it is *detected* even if the
     attacker finds a physical write channel. *)
  let m, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "OLD-VALUE");
  let frame =
    match Hw.Pagetable.lookup dom.Xen.Domain.npt 3 with
    | Some npte -> npte.Hw.Pagetable.frame
    | None -> Alcotest.fail "frame"
  in
  let stale = Hw.Physmem.dump m.Hw.Machine.mem frame in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "NEW-VALUE");
  (* Physical replay of the stale ciphertext (e.g. a malicious DIMM). *)
  Hw.Physmem.write_raw m.Hw.Machine.mem frame ~off:0 stale;
  Hw.Cache.invalidate_page m.Hw.Machine.cache frame;
  Alcotest.(check bool) "replay detected" true
    (Result.is_error (Core.Integrity.verified_read integ ~addr:0x3000 ~len:9))

let test_integrity_unmapped_range () =
  let _, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  Alcotest.(check bool) "unmapped gva fails closed" true
    (Result.is_error (Core.Integrity.verified_read integ ~addr:(Hw.Addr.addr_of 500 0) ~len:8))

(* --- GEK / customized keys ---------------------------------------------------- *)

let test_gek_firmware_roundtrip () =
  let m, hv, _, dom = protected_env () in
  let fw = hv.Xen.Hypervisor.fw in
  let handle = Option.get dom.Xen.Domain.sev_handle in
  let gek = ok (Sev.Firmware.setenc_gek fw ~handle) in
  (* Guest stays RUNNING throughout. *)
  Alcotest.(check bool) "still running" true
    (Sev.Firmware.state_of fw ~handle = Some Sev.State.Running);
  let frame =
    match Hw.Pagetable.lookup dom.Xen.Domain.npt 2 with
    | Some npte -> npte.Hw.Pagetable.frame
    | None -> Alcotest.fail "frame"
  in
  Xen.Hypervisor.in_guest hv dom (fun () ->
      Xen.Domain.write m dom ~addr:0x2000 (Bytes.of_string "customized-key!!"));
  let cipher = ok (Sev.Firmware.enc_range fw ~handle ~gek ~nonce:3L ~src_pfn:frame ~len:16) in
  Alcotest.(check bool) "ciphertext" false (Bytes.to_string cipher = "customized-key!!");
  Xen.Hypervisor.in_guest hv dom (fun () ->
      Xen.Domain.write m dom ~addr:0x2000 (Bytes.make 16 '\000'));
  ok (Sev.Firmware.dec_range fw ~handle ~gek ~nonce:3L ~cipher ~dst_pfn:frame);
  let back =
    Xen.Hypervisor.in_guest hv dom (fun () -> Xen.Domain.read m dom ~addr:0x2000 ~len:16)
  in
  Alcotest.(check string) "roundtrip" "customized-key!!" (Bytes.to_string back)

let test_gek_isolation () =
  let _, hv, _, dom = protected_env () in
  let fw = hv.Xen.Hypervisor.fw in
  let handle = Option.get dom.Xen.Domain.sev_handle in
  let gek = ok (Sev.Firmware.setenc_gek fw ~handle) in
  Alcotest.(check bool) "unknown gek id" true
    (Result.is_error (Sev.Firmware.enc_range fw ~handle ~gek:(gek + 77) ~nonce:0L
                        ~src_pfn:1 ~len:16));
  Alcotest.(check bool) "unknown handle" true
    (Result.is_error (Sev.Firmware.setenc_gek fw ~handle:999))

let test_gek_nonce_binding () =
  let m, hv, _, dom = protected_env () in
  let fw = hv.Xen.Hypervisor.fw in
  let handle = Option.get dom.Xen.Domain.sev_handle in
  let gek = ok (Sev.Firmware.setenc_gek fw ~handle) in
  let frame =
    match Hw.Pagetable.lookup dom.Xen.Domain.npt 2 with
    | Some npte -> npte.Hw.Pagetable.frame
    | None -> Alcotest.fail "frame"
  in
  Xen.Hypervisor.in_guest hv dom (fun () ->
      Xen.Domain.write m dom ~addr:0x2000 (Bytes.of_string "sector payload!!"));
  let cipher = ok (Sev.Firmware.enc_range fw ~handle ~gek ~nonce:5L ~src_pfn:frame ~len:16) in
  ok (Sev.Firmware.dec_range fw ~handle ~gek ~nonce:6L ~cipher ~dst_pfn:frame);
  let back =
    Xen.Hypervisor.in_guest hv dom (fun () -> Xen.Domain.read m dom ~addr:0x2000 ~len:16)
  in
  Alcotest.(check bool) "wrong nonce garbles" false (Bytes.to_string back = "sector payload!!")

let test_gek_codec_blkif () =
  let m, hv, fid, dom = protected_env () in
  ignore m;
  let io = ok (Fid.setup_gek_io fid dom ~md_gvfn:310) in
  let disk = Xen.Vdisk.create ~nr_sectors:16 in
  let fe, _ = ok (Xen.Blkif.connect hv dom ~disk ~buffer_gvfn:311) in
  Xen.Blkif.set_codec fe (Fid.gek_codec io);
  ok (Xen.Blkif.write_sectors fe ~sector:2 (Bytes.make 1024 'G'));
  Alcotest.(check bool) "platter ciphertext" false
    (Bytes.for_all (fun c -> c = 'G') (Xen.Vdisk.peek disk ~sector:2 ~count:1));
  let b = ok (Xen.Blkif.read_sectors fe ~sector:2 ~count:2) in
  Alcotest.(check bool) "roundtrip" true (Bytes.for_all (fun c -> c = 'G') b);
  Alcotest.(check bool) "gek id assigned" true (Core.Io_protect.gek_id io > 0)

let test_gek_requires_protection () =
  let _, hv, fid, _ = protected_env () in
  let plain = Xen.Hypervisor.create_domain hv ~name:"plain" ~memory_pages:4 in
  Alcotest.(check bool) "unprotected refused" true
    (Result.is_error (Fid.setup_gek_io fid plain ~md_gvfn:10))

let prop t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "extensions"
    [ ( "bmt",
        [ Alcotest.test_case "clean verifies" `Quick test_bmt_clean_verifies;
          prop test_bmt_detects_any_flip;
          Alcotest.test_case "authorized update" `Quick test_bmt_update_rebinds;
          Alcotest.test_case "fails closed" `Quick test_bmt_uncovered_fails_closed;
          Alcotest.test_case "single-leaf tree" `Quick test_bmt_single_frame_tree;
          Alcotest.test_case "odd-width levels" `Quick test_bmt_odd_width_levels;
          Alcotest.test_case "cycle accounting" `Quick test_bmt_charges_cycles;
          prop test_bmt_update_many_equals_sequential;
          Alcotest.test_case "single-frame batch cost" `Quick
            test_bmt_update_many_single_frame_cost;
          Alcotest.test_case "mixed batch tolerated" `Quick
            test_bmt_update_many_ignores_uncovered;
          Alcotest.test_case "fetch check is O(1)" `Quick test_bmt_fetch_check_o1;
          Alcotest.test_case "fetch check detects" `Quick test_bmt_fetch_check_detects;
          Alcotest.test_case "verify cost pinned" `Quick test_bmt_verify_cost_pin;
          Alcotest.test_case "multi-frame batch pinned" `Quick
            test_bmt_update_many_multi_frame_pin ] );
      ( "integrity",
        [ Alcotest.test_case "verified access" `Quick test_integrity_flow;
          Alcotest.test_case "rowhammer detected" `Quick test_integrity_detects_rowhammer;
          Alcotest.test_case "ciphertext replay detected" `Quick
            test_integrity_detects_ciphertext_replay;
          Alcotest.test_case "unmapped range" `Quick test_integrity_unmapped_range ] );
      ( "gek",
        [ Alcotest.test_case "firmware roundtrip" `Quick test_gek_firmware_roundtrip;
          Alcotest.test_case "isolation" `Quick test_gek_isolation;
          Alcotest.test_case "nonce binding" `Quick test_gek_nonce_binding;
          Alcotest.test_case "blkif codec" `Quick test_gek_codec_blkif;
          Alcotest.test_case "requires protection" `Quick test_gek_requires_protection ] ) ]
