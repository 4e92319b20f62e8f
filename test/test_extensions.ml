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

(* A write that covers part of a 16 B block whose line is resident: the
   MMU reloads that line from DRAM right after the store, before the
   engine refreshes the leaf. The reload is checked against the leaf plus
   that store, so both writes land and the frame stays verifiable; a flip
   on that reload is still refused. *)
let test_integrity_partial_block_write () =
  let _, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "AAAAAAAAAAAAAAAA");
  Core.Integrity.guest_write integ ~addr:0x3004 (Bytes.of_string "BBBB");
  (match Core.Integrity.verified_read integ ~addr:0x3000 ~len:16 with
  | Ok b -> Alcotest.(check string) "both writes read back" "AAAABBBBAAAAAAAA" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "domain verifies" true (Result.is_ok (Core.Integrity.verify_domain integ));
  Core.Integrity.guest_write integ ~addr:0x5000 (Bytes.of_string "CCCCCCCCCCCCCCCC");
  let plan = Fidelius_inject.Plan.make ~seed:5L Fidelius_inject.Site.Dram_flip in
  Fidelius_inject.Plan.install plan;
  let refused =
    Fun.protect ~finally:Fidelius_inject.Plan.uninstall (fun () ->
        match Core.Integrity.guest_write integ ~addr:0x5004 (Bytes.of_string "DDDD") with
        | () -> false
        | exception Hw.Denial.Denied _ -> true)
  in
  Alcotest.(check bool) "a flip landed" true (Fidelius_inject.Plan.fired plan);
  Alcotest.(check bool) "a flip on the reload is refused" true refused

(* Random writes of any length at any offset, through the engine, against
   a plaintext model of four guest pages (gvfn 2..5; a write may run on
   into gvfn 6). Lines are made resident by the reads, so the partly
   covered blocks at each end of a write are reloaded behind the store. *)
type sub_op =
  | Sub_write of int * int * int * char (* page, off, len, fill *)
  | Sub_read of int * int * int (* page, off, len *)
  | Sub_invalidate of int

let show_sub_op = function
  | Sub_write (p, o, l, c) -> Printf.sprintf "Write(%d,%d,%d,%C)" p o l c
  | Sub_read (p, o, l) -> Printf.sprintf "Read(%d,%d,%d)" p o l
  | Sub_invalidate p -> Printf.sprintf "Invalidate %d" p

let test_integrity_sub_block_writes =
  let open QCheck.Gen in
  let page = int_bound 3 and off = int_bound (Hw.Addr.page_size - 1) in
  let op =
    frequency
      [ (4, map3 (fun (p, o) l c -> Sub_write (p, o, l, c)) (pair page off) (int_range 1 40) printable);
        (3, map3 (fun p o l -> Sub_read (p, o, l)) page off (int_range 1 64));
        (1, map (fun p -> Sub_invalidate p) page) ]
  in
  QCheck.Test.make ~name:"sub-block guest writes = plaintext model" ~count:60
    (QCheck.make ~print:(QCheck.Print.list show_sub_op) (list_size (int_range 1 40) op))
    (fun ops ->
      let m, _, fid, dom = protected_env () in
      let integ = Core.Integrity.protect fid dom in
      let span = 5 * Hw.Addr.page_size and base = Hw.Addr.addr_of 2 0 in
      let read addr len =
        match Core.Integrity.verified_read integ ~addr ~len with
        | Ok b -> b
        | Error e -> QCheck.Test.fail_reportf "verified read at 0x%x: %s" addr e
      in
      let model = read base span in
      List.iter
        (function
          | Sub_write (p, o, l, c) ->
              let at = (p * Hw.Addr.page_size) + o in
              Core.Integrity.guest_write integ ~addr:(base + at) (Bytes.make l c);
              Bytes.fill model at l c
          | Sub_read (p, o, l) ->
              let at = (p * Hw.Addr.page_size) + o in
              if not (Bytes.equal (read (base + at) l) (Bytes.sub model at l)) then
                QCheck.Test.fail_reportf "read of %d B at page %d + %d differs" l p o
          | Sub_invalidate p -> (
              match Hw.Pagetable.lookup dom.Xen.Domain.npt (2 + p) with
              | Some npte -> Hw.Cache.invalidate_page m.Hw.Machine.cache npte.Hw.Pagetable.frame
              | None -> ()))
        ops;
      Bytes.equal (read base span) model && Result.is_ok (Core.Integrity.verify_domain integ))

let test_integrity_unmapped_range () =
  let _, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  Alcotest.(check bool) "unmapped gva fails closed" true
    (Result.is_error (Core.Integrity.verified_read integ ~addr:(Hw.Addr.addr_of 500 0) ~len:8))

(* --- The leaf memo, differentially ------------------------------------------- *)

module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

(* Ops on eight consecutive guest pages (gvfn 2..9) of a protected guest
   under [Integrity]. A write may run on into the next page, and covers
   whole 16 B blocks (partly covered blocks have their own property,
   [test_integrity_sub_block_writes]). *)
type mem_op =
  | Write of int * int * int (* page, first block, blocks *)
  | Verified_read of int * int * int (* page, off, len *)
  | Plain_read of int * int * int
  | Invalidate of int
  | Flip of int * int * int (* page, off, bit *)
  | Flip_restore of int * int * int
  | Raw_write of int * int (* page, off *)
  | Snapshot of int
  | Replay of int (* which snapshot *)
  | Dma of int * int
  | Faulted_read of bool * bool * int * int * int (* remap?, verified?, page, off, len *)

let mem_pages = 8

let show_mem_op = function
  | Write (p, b, n) -> Printf.sprintf "Write(%d,%d,%d)" p b n
  | Verified_read (p, o, l) -> Printf.sprintf "Verified_read(%d,%d,%d)" p o l
  | Plain_read (p, o, l) -> Printf.sprintf "Plain_read(%d,%d,%d)" p o l
  | Invalidate p -> Printf.sprintf "Invalidate %d" p
  | Flip (p, o, b) -> Printf.sprintf "Flip(%d,%d,%d)" p o b
  | Flip_restore (p, o, b) -> Printf.sprintf "Flip_restore(%d,%d,%d)" p o b
  | Raw_write (p, o) -> Printf.sprintf "Raw_write(%d,%d)" p o
  | Snapshot p -> Printf.sprintf "Snapshot %d" p
  | Replay i -> Printf.sprintf "Replay %d" i
  | Dma (p, o) -> Printf.sprintf "Dma(%d,%d)" p o
  | Faulted_read (r, v, p, o, l) -> Printf.sprintf "Faulted_read(%b,%b,%d,%d,%d)" r v p o l

let mem_op_gen =
  let open QCheck.Gen in
  let page = int_bound (mem_pages - 1) in
  let range =
    page >>= fun p ->
    int_range 1 256 >>= fun len ->
    int_bound (Hw.Addr.page_size - len) >>= fun off -> return (p, off, len)
  in
  frequency
    [ ( 4,
        page >>= fun p ->
        int_bound 255 >>= fun b ->
        int_range 1 (if p < mem_pages - 1 then 64 else 256 - b) >>= fun n -> return (Write (p, b, n)) );
      (4, map (fun (p, o, l) -> Verified_read (p, o, l)) range);
      (2, map (fun (p, o, l) -> Plain_read (p, o, l)) range);
      (2, map (fun p -> Invalidate p) page);
      (1, map3 (fun p o b -> Flip (p, o, b)) page (int_bound 4095) (int_bound 7));
      (1, map3 (fun p o b -> Flip_restore (p, o, b)) page (int_bound 4095) (int_bound 7));
      (1, map2 (fun p o -> Raw_write (p, o)) page (int_bound 4080));
      (1, map (fun p -> Snapshot p) page);
      (1, map (fun i -> Replay i) (int_bound 7));
      (1, map2 (fun p o -> Dma (p, o)) page (int_bound 4080));
      ( 2,
        map2
          (fun (remap, verified) (p, o, l) -> Faulted_read (remap, verified, p, o, l))
          (pair bool bool) range ) ]

(* Run [ops], checking each against an oracle that knows nothing of the
   memo: [expected] holds each frame's DRAM bytes as of its last
   legitimate update (the tree's build, or a guest write through the
   engine). A verify must pass iff the frame's DRAM equals that copy, and
   a read that fetched from DRAM must be refused iff a page it fetched
   differs from it. [clean] marks the pages nothing but the engine has
   written since; reading one must cost the host no page hash
   ([host_hashes]), as the stored leaves stand in for them. Returns the
   tree for its counters, and whether every check held. *)
let run_mem_ops ~host_hashes ops =
  let m, hv, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  let bmt = Core.Integrity.bmt integ in
  let host_hashes () = host_hashes bmt in
  let mem = m.Hw.Machine.mem in
  let pfn_of page =
    match Hw.Pagetable.lookup dom.Xen.Domain.npt (2 + page) with
    | Some npte -> npte.Hw.Pagetable.frame
    | None -> Alcotest.fail "guest page unbacked"
  in
  let gva page off = Hw.Addr.addr_of (2 + page) off in
  let expected = Hashtbl.create 16 in
  List.iter (fun pfn -> Hashtbl.replace expected pfn (Hw.Physmem.dump mem pfn)) dom.Xen.Domain.frames;
  let intact pfn = Bytes.equal (Hw.Physmem.dump mem pfn) (Hashtbl.find expected pfn) in
  let clean = Array.make mem_pages true and snapshots = ref [] in
  let neighbour pfn = if pfn + 1 < Hw.Physmem.nr_frames mem then pfn + 1 else pfn - 1 in
  (* A read's outcome: [Some true] refused by the fetch check, [Some false]
     returned data, [None] refused by the verify before any fetch. *)
  let read ~verified page off len =
    let addr = gva page off in
    match
      if verified then Result.is_ok (Core.Integrity.verified_read integ ~addr ~len)
      else begin
        ignore (Xen.Hypervisor.in_guest hv dom (fun () -> Xen.Domain.read m dom ~addr ~len));
        true
      end
    with
    | true -> Some false
    | false -> None
    | exception Hw.Denial.Denied _ -> Some true
  in
  (* Check one read of [page], under a plan if [armed]. A read makes one
     fetch check per run of missing lines, [n] in all. Under a remap plan
     the first fetch reads the neighbouring frame's page; every other
     fetch reads the frame's own. The engine must refuse at the first
     check whose page differs from the frame's copy, and only there. *)
  let check_read ~verified ~armed ~remap page off len =
    let pfn = pfn_of page in
    let was_intact = intact pfn and was_clean = clean.(page) in
    let fetches = Bmt.fetch_hashes_performed bmt and hashes = host_hashes () in
    let outcome = read ~verified page off len in
    let n = Bmt.fetch_hashes_performed bmt - fetches in
    let differs f = not (Bytes.equal (Hw.Physmem.dump mem f) (Hashtbl.find expected pfn)) in
    let own_bad = differs pfn in
    let bad k = if k = 1 && remap then differs (neighbour pfn) else own_bad in
    let rec passed k = k >= n || ((not (bad k)) && passed (k + 1)) in
    let verdicts =
      match outcome with
      | None -> verified && (not was_intact) && n = 0
      | Some refused -> ((not verified) || was_intact) && passed 1 && refused = (n > 0 && bad n)
    in
    verdicts && (armed || (not was_clean) || host_hashes () = hashes)
  in
  let step op =
    match op with
    | Write (page, block, n) ->
        let data = Bytes.init (n * 16) (fun i -> Char.chr ((page + block + i) land 0xff)) in
        Core.Integrity.guest_write integ ~addr:(gva page (block * 16)) data;
        let last = (((block + n) * 16) - 1) / Hw.Addr.page_size in
        for p = page to page + last do
          Hashtbl.replace expected (pfn_of p) (Hw.Physmem.dump mem (pfn_of p));
          clean.(p) <- true
        done;
        true
    | Verified_read (page, off, len) -> check_read ~verified:true ~armed:false ~remap:false page off len
    | Plain_read (page, off, len) -> check_read ~verified:false ~armed:false ~remap:false page off len
    | Invalidate page ->
        Hw.Cache.invalidate_page m.Hw.Machine.cache (pfn_of page);
        true
    | Flip (page, off, bit) ->
        Hw.Physmem.flip_bit mem (pfn_of page) ~off ~bit;
        clean.(page) <- false;
        true
    | Flip_restore (page, off, bit) ->
        Hw.Physmem.flip_bit mem (pfn_of page) ~off ~bit;
        Hw.Physmem.flip_bit mem (pfn_of page) ~off ~bit;
        clean.(page) <- false;
        true
    | Raw_write (page, off) ->
        Hw.Physmem.write_raw mem (pfn_of page) ~off (Bytes.make 16 'R');
        clean.(page) <- false;
        true
    | Snapshot page ->
        snapshots := (page, Hw.Physmem.dump mem (pfn_of page)) :: !snapshots;
        true
    | Replay i ->
        (match !snapshots with
        | [] -> ()
        | l ->
            let page, stale = List.nth l (i mod List.length l) in
            Hw.Physmem.write_raw mem (pfn_of page) ~off:0 stale;
            clean.(page) <- false);
        true
    | Dma (page, off) ->
        if Result.is_ok (Hw.Machine.dma_write m (pfn_of page) ~off (Bytes.make 16 'D')) then
          clean.(page) <- false;
        true
    | Faulted_read (remap, verified, page, off, len) ->
        let plan =
          Plan.make ~seed:(Int64.of_int (off + len)) (if remap then Site.Dram_remap else Site.Dram_flip)
        in
        Plan.install plan;
        let ok =
          Fun.protect ~finally:Plan.uninstall (fun () ->
              check_read ~verified ~armed:true ~remap page off len)
        in
        if Plan.fired plan && not remap then clean.(page) <- false;
        ok
  in
  let all_ops = List.for_all step ops in
  let verdicts =
    List.for_all (fun pfn -> Result.is_ok (Bmt.verify bmt pfn) = intact pfn) dom.Xen.Domain.frames
    && Result.is_ok (Core.Integrity.verify_domain integ)
       = List.for_all intact dom.Xen.Domain.frames
  in
  (m, bmt, all_ops && verdicts)

let test_memo_differential =
  QCheck.Test.make ~name:"leaf memo: verify and fetch verdicts = DRAM-copy oracle" ~count:150
    (QCheck.make ~print:(QCheck.Print.list show_mem_op)
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 50) mem_op_gen))
    (fun ops ->
      let _, _, ok = run_mem_ops ~host_hashes:Bmt.page_hashes_computed ops in
      ok)

(* One fixed sequence, its modelled costs pinned at the values the tree
   had before it kept stored leaves: the memo changes what the host
   computes, never a charge or a modelled count. *)
let fixed_mem_ops () =
  QCheck.Gen.generate1 ~rand:(Random.State.make [| 26 |])
    (QCheck.Gen.list_size (QCheck.Gen.return 60) mem_op_gen)

let test_memo_fixed_sequence_pin () =
  let m, bmt, ok = run_mem_ops ~host_hashes:Bmt.page_hashes_computed (fixed_mem_ops ()) in
  Alcotest.(check bool) "oracle holds" true ok;
  Alcotest.(check int) "bmt cycles" 106400 (Hw.Cost.category m.Hw.Machine.ledger "bmt");
  Alcotest.(check int) "charged hashes" 247 (Bmt.hashes_performed bmt);
  Alcotest.(check int) "modelled fetch hashes" 13 (Bmt.fetch_hashes_performed bmt)

(* The host-work counter: a verified read of a frame nothing has written
   since the engine stored its leaf costs the host no page hash — neither
   in the verify nor in the fetch check — while the charged walk and the
   modelled fetch check count as before. A flip moves the frame's stamp,
   so the host hashes it again, and keeps doing so after the flip is
   undone. *)
let test_integrity_host_hashes () =
  let m, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  let bmt = Core.Integrity.bmt integ in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "ledger row");
  let frame =
    match Hw.Pagetable.lookup dom.Xen.Domain.npt 3 with
    | Some npte -> npte.Hw.Pagetable.frame
    | None -> Alcotest.fail "frame"
  in
  (* Each read starts from DRAM, so the fetch check runs too. *)
  let read () =
    Hw.Cache.invalidate_page m.Hw.Machine.cache frame;
    let host = Bmt.page_hashes_computed bmt
    and charged = Bmt.hashes_performed bmt
    and fetches = Bmt.fetch_hashes_performed bmt in
    let ok = Result.is_ok (Core.Integrity.verified_read integ ~addr:0x3000 ~len:10) in
    ( ok,
      Bmt.page_hashes_computed bmt - host,
      Bmt.hashes_performed bmt - charged,
      Bmt.fetch_hashes_performed bmt - fetches )
  in
  let levels = 4 (* 12 leaves *) in
  let first = read () and second = read () in
  Alcotest.(check (list int)) "first read: no host hash" [ 0; 1 + levels; 1 ]
    (let _, h, c, f = first in [ h; c; f ]);
  Alcotest.(check (list int)) "second read: no host hash" [ 0; 1 + levels; 1 ]
    (let ok, h, c, f = second in
     Alcotest.(check bool) "verifies" true ok;
     [ h; c; f ]);
  Hw.Physmem.flip_bit m.Hw.Machine.mem frame ~off:2 ~bit:1;
  let ok, h, c, f = read () in
  Alcotest.(check bool) "flip refused" false ok;
  Alcotest.(check (list int)) "after a flip the verify hashes" [ 1; 1 + levels; 0 ] [ h; c; f ];
  Hw.Physmem.flip_bit m.Hw.Machine.mem frame ~off:2 ~bit:1;
  let ok, h, c, f = read () in
  Alcotest.(check bool) "restored frame verifies" true ok;
  Alcotest.(check (list int)) "and both checks hash it" [ 2; 1 + levels; 1 ] [ h; c; f ]

let words_per_call n f =
  for _ = 1 to 100 do f () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do f () done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Words per 64 B access through the engine, pinned: the frame range is
   resolved through the packed table lookups and the leaf index by a
   search of the tree's frame array, so what is left is the guest-mode
   closure, the result buffer and the MMU's own. *)
let test_integrity_allocation_pins () =
  Alcotest.(check bool) "tracing off" false (Fidelius_obs.Trace.enabled ());
  let _, _, fid, dom = protected_env () in
  let integ = Core.Integrity.protect fid dom in
  let data = Bytes.make 64 'w' and addr = 0x3040 in
  Core.Integrity.guest_write integ ~addr data;
  let read =
    words_per_call 1000 (fun () -> ignore (Core.Integrity.verified_read integ ~addr ~len:64))
  in
  Alcotest.(check (float 0.01)) "verified 64 B read" 18.0 read;
  let write = words_per_call 1000 (fun () -> Core.Integrity.guest_write integ ~addr data) in
  Alcotest.(check (float 0.01)) "64 B guest write" 32.0 write

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
          Alcotest.test_case "unmapped range" `Quick test_integrity_unmapped_range;
          Alcotest.test_case "partial-block write" `Quick test_integrity_partial_block_write;
          prop test_integrity_sub_block_writes;
          Alcotest.test_case "host page hashes" `Quick test_integrity_host_hashes;
          Alcotest.test_case "words per access" `Quick test_integrity_allocation_pins ] );
      ( "memo",
        [ prop test_memo_differential;
          Alcotest.test_case "fixed sequence pinned" `Quick test_memo_fixed_sequence_pin ] );
      ( "gek",
        [ Alcotest.test_case "firmware roundtrip" `Quick test_gek_firmware_roundtrip;
          Alcotest.test_case "isolation" `Quick test_gek_isolation;
          Alcotest.test_case "nonce binding" `Quick test_gek_nonce_binding;
          Alcotest.test_case "blkif codec" `Quick test_gek_codec_blkif;
          Alcotest.test_case "requires protection" `Quick test_gek_requires_protection ] ) ]
