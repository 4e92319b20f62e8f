(* Unit and property tests for the hardware model. *)

module Hw = Fidelius_hw
module Addr = Hw.Addr
module Cost = Hw.Cost
module Physmem = Hw.Physmem
module Memctrl = Hw.Memctrl
module Tlb = Hw.Tlb
module Cache = Hw.Cache
module Pagetable = Hw.Pagetable
module Cpu = Hw.Cpu
module Vmcb = Hw.Vmcb
module Insn = Hw.Insn
module Machine = Hw.Machine
module Mmu = Hw.Mmu
module Aes = Fidelius_crypto.Aes
module Rng = Fidelius_crypto.Rng
module Sha256 = Fidelius_crypto.Sha256

let machine () = Machine.create ~nr_frames:256 ~seed:31L ()

(* --- Addr ----------------------------------------------------------------- *)

let test_addr_roundtrip =
  QCheck.Test.make ~name:"frame/offset split-join" ~count:200
    (QCheck.pair (QCheck.int_bound 0xFFFFF) (QCheck.int_bound (Addr.page_size - 1)))
    (fun (frame, off) ->
      let a = Addr.addr_of frame off in
      Addr.frame_of a = frame && Addr.offset_of a = off)

let test_addr_constants () =
  Alcotest.(check int) "page size" 4096 Addr.page_size;
  Alcotest.(check int) "block size" 16 Addr.block_size;
  Alcotest.(check int) "blocks per page" 256 Addr.blocks_per_page

(* --- Cost ------------------------------------------------------------------ *)

let test_ledger () =
  let l = Cost.ledger () in
  Cost.charge l "a" 10;
  Cost.charge l "b" 5;
  Cost.charge l "a" 7;
  Alcotest.(check int) "total" 22 (Cost.total l);
  Alcotest.(check int) "category a" 17 (Cost.category l "a");
  Alcotest.(check int) "unknown category" 0 (Cost.category l "zzz");
  (match Cost.categories l with
  | (top, v) :: _ ->
      Alcotest.(check string) "sorted desc" "a" top;
      Alcotest.(check int) "top value" 17 v
  | [] -> Alcotest.fail "empty categories");
  Cost.reset l;
  Alcotest.(check int) "reset" 0 (Cost.total l)

let test_cost_paper_constants () =
  let c = Cost.default in
  Alcotest.(check int) "gate1 = 306" 306 c.Cost.gate1;
  Alcotest.(check int) "gate2 = 16" 16 c.Cost.gate2;
  Alcotest.(check int) "gate3 = 339" 339 c.Cost.gate3;
  Alcotest.(check int) "tlb entry flush = 128" 128 c.Cost.tlb_flush_entry;
  Alcotest.(check bool) "cacheline write < 2" true (c.Cost.cacheline_write <= 2);
  Alcotest.(check int) "shadow roundtrip = 661" 661 c.Cost.shadow_roundtrip;
  (* I/O encoder ratios of Section 7.2. *)
  let ratio a b = float_of_int a /. float_of_int b in
  Alcotest.(check bool) "AES-NI ~ +11.5%" true
    (abs_float (ratio c.Cost.aesni_block c.Cost.memcpy_block -. 1.115) < 0.01);
  Alcotest.(check bool) "SEV engine ~ +8.7%" true
    (abs_float (ratio c.Cost.sev_engine_block c.Cost.memcpy_block -. 1.087) < 0.01);
  Alcotest.(check bool) "software AES > 20x" true
    (ratio c.Cost.sw_aes_block c.Cost.memcpy_block > 20.0)

(* --- Physmem ---------------------------------------------------------------- *)

let test_physmem_rw () =
  let mem = Physmem.create ~nr_frames:4 in
  Physmem.write_raw mem 2 ~off:100 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Physmem.read_raw mem 2 ~off:100 ~len:5));
  Alcotest.(check string) "other frame untouched" "\000\000\000\000\000"
    (Bytes.to_string (Physmem.read_raw mem 1 ~off:100 ~len:5))

let test_physmem_bounds () =
  let mem = Physmem.create ~nr_frames:2 in
  Alcotest.check_raises "frame oob" (Invalid_argument "Physmem: frame 0x5 out of bounds")
    (fun () -> ignore (Physmem.read_raw mem 5 ~off:0 ~len:1));
  Alcotest.check_raises "range oob" (Invalid_argument "Physmem: range 4090+10 leaves the page")
    (fun () -> ignore (Physmem.read_raw mem 1 ~off:4090 ~len:10))

let test_physmem_flip () =
  let mem = Physmem.create ~nr_frames:2 in
  Physmem.write_raw mem 1 ~off:0 (Bytes.of_string "\x0f");
  Physmem.flip_bit mem 1 ~off:0 ~bit:4;
  Alcotest.(check string) "bit flipped" "\x1f"
    (Bytes.to_string (Physmem.read_raw mem 1 ~off:0 ~len:1))

let test_physmem_dump_is_copy () =
  let mem = Physmem.create ~nr_frames:2 in
  let dump = Physmem.dump mem 1 in
  Bytes.set dump 0 'X';
  Alcotest.(check char) "original unchanged" '\000'
    (Bytes.get (Physmem.read_raw mem 1 ~off:0 ~len:1) 0)

(* Every range check at the bounds of [int]: a sum that wraps must not let
   a range through to the stdlib's own bounds checks, whose messages name
   no page. Valid ranges must still succeed. *)
let test_physmem_range_bounds =
  let ps = Addr.page_size in
  let edge = QCheck.oneofl [ 0; 1; ps - 1; ps; ps + 1; max_int; max_int - 1; min_int; -1 ] in
  QCheck.Test.make ~name:"range checks never wrap" ~count:300
    (QCheck.triple edge edge (QCheck.oneofl [ 0; 1; ps - 1; ps; ps + 1 ]))
    (fun (off, len, data_len) ->
      let mem = Physmem.create ~nr_frames:2 in
      let valid off len = off >= 0 && len >= 0 && off <= ps && len <= ps - off in
      let expect valid f =
        match f () with
        | () -> valid
        | exception Invalid_argument msg ->
            (not valid) && String.starts_with ~prefix:"Physmem: range" msg
      in
      expect (valid off len) (fun () -> ignore (Physmem.read_raw mem 1 ~off ~len))
      && expect (valid off len) (fun () ->
             Physmem.read_raw_into mem 1 ~off ~len ~dst:(Bytes.create ps) ~dst_off:0)
      && expect (valid off data_len) (fun () ->
             Physmem.write_raw mem 1 ~off (Bytes.make data_len 'w'))
      && expect (valid off 1) (fun () -> Physmem.flip_bit mem 1 ~off ~bit:0))

(* The arena reset: dirty a backing through every path that can change a
   frame's bytes, recycle it with [Machine.create ~mem], and every frame
   must dump as zeros — also after the frames an earlier round stored to
   through [page_for_write] are stored to again between two resets. *)
type dirty_op =
  | Write_raw of int * int
  | Page_write of int * int
  | Flip of int * int
  | Ctrl_plain of int * int
  | Ctrl_enc of int * int
  | Dma of int * int
  | Pte of int * int

let dirty_op_gen nr_frames =
  let open QCheck.Gen in
  let pfn = int_range 1 (nr_frames - 1) and off = int_bound (Addr.page_size - 16) in
  map3
    (fun k pfn off ->
      match k with
      | 0 -> Write_raw (pfn, off)
      | 1 -> Page_write (pfn, off)
      | 2 -> Flip (pfn, off)
      | 3 -> Ctrl_plain (pfn, off)
      | 4 -> Ctrl_enc (pfn, off)
      | 5 -> Dma (pfn, off)
      | _ -> Pte (off, pfn))
    (int_bound 6) pfn off

(* Apply one dirtying op; [stale] collects each (frame, offset) stored to
   through [page_for_write]. *)
let dirty (m : Machine.t) table stale op =
  let data = Bytes.of_string "dirty" in
  match op with
  | Write_raw (pfn, off) -> Physmem.write_raw m.Machine.mem pfn ~off data
  | Page_write (pfn, off) ->
      Bytes.set
        (Physmem.page_for_write m.Machine.mem pfn ~off ~len:1)
        (Physmem.base pfn + off) 'p';
      stale := (pfn, off) :: !stale
  | Flip (pfn, off) -> Physmem.flip_bit m.Machine.mem pfn ~off ~bit:(off mod 8)
  | Ctrl_plain (pfn, off) -> Memctrl.write m.Machine.ctrl Memctrl.Plain pfn ~off data
  | Ctrl_enc (pfn, off) -> Memctrl.write m.Machine.ctrl Memctrl.Smek pfn ~off data
  | Dma (pfn, off) -> ignore (Machine.dma_write m pfn ~off data)
  | Pte (vfn, frame) ->
      if Machine.frames_free m > 0 then
        Pagetable.hw_set table vfn
          (Some { Pagetable.frame; writable = true; executable = false; c_bit = false })

let test_arena_reset_zeroes =
  let nr_frames = 64 in
  let ops = QCheck.Gen.(list_size (int_range 1 40) (dirty_op_gen nr_frames)) in
  QCheck.Test.make ~name:"Machine.create ~mem zeroes every dirtied frame" ~count:60
    (QCheck.make (QCheck.Gen.pair ops ops))
    (fun (round1, round2) ->
      let zeros = Bytes.make Addr.page_size '\000' in
      let all_zero (m : Machine.t) =
        List.for_all
          (fun pfn -> Bytes.equal zeros (Physmem.dump m.Machine.mem pfn))
          (List.init nr_frames Fun.id)
      in
      let mem = Physmem.create ~nr_frames in
      let m1 = Machine.create ~nr_frames ~mem ~seed:5L () in
      let stale = ref [] in
      List.iter (dirty m1 (Machine.new_table m1) stale) round1;
      let m2 = Machine.create ~nr_frames ~mem ~seed:5L () in
      let clean1 = all_zero m2 in
      List.iter
        (fun (pfn, off) ->
          Bytes.set
            (Physmem.page_for_write m2.Machine.mem pfn ~off ~len:1)
            (Physmem.base pfn + off) 's')
        !stale;
      List.iter (dirty m2 (Machine.new_table m2) (ref [])) round2;
      let m3 = Machine.create ~nr_frames ~mem ~seed:5L () in
      clean1 && all_zero m3)

(* A reset marks the dirtied frames blank and leaves their stale bytes in
   the backing until each frame's first touch. So every frame is first
   touched by one of the read paths, in rotation, and must read as zeros;
   or first by a flip, which must land on the zeroed frame and read back as
   exactly that one set bit. *)
let test_reset_reads_zero =
  let nr_frames = 32 and ps = Addr.page_size in
  let ops = QCheck.Gen.(list_size (int_range 0 40) (dirty_op_gen nr_frames)) in
  QCheck.Test.make ~name:"after a reset every read path sees zeros and a flip one bit"
    ~count:60
    (QCheck.make (QCheck.Gen.pair ops (QCheck.Gen.int_bound 6)))
    (fun (ops, shift) ->
      let mem = Physmem.create ~nr_frames in
      let m1 = Machine.create ~nr_frames ~mem ~seed:5L () in
      for pfn = 1 to nr_frames - 1 do
        Physmem.write_raw mem pfn ~off:(pfn * 97 mod (ps - 8)) (Bytes.of_string "stale!!!")
      done;
      List.iter (dirty m1 (Machine.new_table m1) (ref [])) ops;
      let m = Machine.create ~nr_frames ~mem ~seed:5L () in
      let dst = Bytes.create ps in
      let read k pfn =
        match k with
        | 0 -> Physmem.read_raw mem pfn ~off:0 ~len:ps
        | 1 -> Physmem.read_raw_into mem pfn ~off:0 ~len:ps ~dst ~dst_off:0; Bytes.copy dst
        | 2 -> Physmem.dump mem pfn
        | 3 -> Bytes.sub (Physmem.view mem pfn ~off:0 ~len:ps) (Physmem.base pfn) ps
        | 4 ->
            Memctrl.read_into m.Machine.ctrl Memctrl.Plain pfn ~off:0 ~len:ps ~dst ~dst_off:0;
            Bytes.copy dst
        | _ -> Result.get_ok (Machine.dma_read m pfn ~off:0 ~len:ps)
      in
      List.for_all
        (fun pfn ->
          let k = (pfn + shift) mod 7 and expect = Bytes.make ps '\000' in
          if k < 6 then Bytes.equal expect (read k pfn)
          else begin
            let off = pfn * 31 mod ps and bit = pfn mod 8 in
            Physmem.flip_bit mem pfn ~off ~bit;
            Bytes.set expect off (Char.chr (1 lsl bit));
            Bytes.equal expect (read (pfn mod 6) pfn)
          end)
        (List.init nr_frames Fun.id))

(* The write stamp the integrity engine keys its stored leaves on: each
   path that can change a frame's bytes moves that frame's stamp and no
   other, and no read path moves any. Steps a measured op depends on
   (allocating a table group, walking a PIT path into existence) run
   before the snapshot, so each op's own stores are all that is seen. The
   machine hands out frames from the top down, so the fixtures' frames
   stay clear of the low half the ops write to. *)
let test_stamps_track_writes =
  let nr_frames = 64 in
  QCheck.Test.make ~name:"a frame's write stamp moves on each of its writes and on no read"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (triple (int_bound 20) (int_bound ((nr_frames / 2) - 1)) (int_bound (Addr.page_size - 16))))
    (fun ops ->
      let module Pit = Fidelius_core.Pit in
      let module Shadow = Fidelius_core.Shadow in
      let m = Machine.create ~nr_frames ~seed:9L () in
      let mem = m.Machine.mem and ctrl = m.Machine.ctrl in
      let table = Machine.new_table m in
      let pit = Pit.create m in
      let shadow_frame = Machine.alloc_frame m in
      let shadow = Shadow.create ~backing:shadow_frame in
      let vmcb = Vmcb.create () in
      let bmt = Hw.Bmt.create m ~frames:[ 1; 2; 3 ] in
      let key = Aes.expand (Bytes.make 16 'k') in
      let data = Bytes.of_string "stamped" and dst = Bytes.create Addr.page_size in
      let stamps () = Array.init nr_frames (Physmem.stamp mem) in
      let info = { Pit.owner = Pit.Xen; usage = Pit.Xen_data; asid = 0; valid = true } in
      let exactly frames moved = List.sort_uniq compare frames = moved in
      List.for_all
        (fun (kind, pfn, off) ->
          let pfn = pfn + 1 and vfn = off mod 1024 in
          (match kind with
          | 8 -> ignore (Pagetable.backing_frame_of table vfn)
          | 9 -> Pit.set pit pfn info
          | _ -> ());
          let before = stamps () in
          let expect =
            match kind with
            | 0 -> Physmem.write_raw mem pfn ~off data; exactly [ pfn ]
            | 1 -> Physmem.flip_bit mem pfn ~off ~bit:(off mod 8); exactly [ pfn ]
            | 2 -> Physmem.scrub mem pfn; exactly [ pfn ]
            | 3 ->
                let dirtied = List.filter (fun f -> before.(f) <> 0) (List.init nr_frames Fun.id) in
                Physmem.reset mem;
                exactly dirtied
            | 4 -> ignore (Machine.dma_write m pfn ~off data); exactly [ pfn ]
            | 5 -> Memctrl.write ctrl Memctrl.Plain pfn ~off data; exactly [ pfn ]
            | 6 -> Memctrl.write ctrl Memctrl.Smek pfn ~off data; exactly [ pfn ]
            | 7 -> Memctrl.fw_write_page ctrl ~key pfn (Bytes.make Addr.page_size 'f'); exactly [ pfn ]
            | 8 ->
                Pagetable.hw_set_packed table vfn
                  (Pagetable.packed_make ~frame:pfn ~writable:true ~executable:false ~c_bit:false);
                exactly [ Pagetable.backing_frame_of table vfn ]
            | 9 ->
                (* The path exists, so only the leaf page holding the entry
                   is stored to. *)
                Pit.set pit pfn { info with Pit.asid = off };
                (function [ f ] -> List.mem f (Pit.tree_frames pit) | _ -> false)
            | 10 -> Shadow.capture shadow m vmcb Vmcb.Cpuid; exactly [ shadow_frame ]
            | 11 ->
                (* Only a verified restore clears the in-use flag. *)
                let captured = Shadow.has_capture shadow in
                ignore (Shadow.verify_and_restore shadow m vmcb);
                exactly (if captured then [ shadow_frame ] else [])
            | 12 -> ignore (Physmem.read_raw mem pfn ~off ~len:16); exactly []
            | 13 -> Physmem.read_raw_into mem pfn ~off ~len:16 ~dst ~dst_off:0; exactly []
            | 14 -> ignore (Physmem.dump mem pfn); exactly []
            | 15 ->
                ignore (Bytes.get (Physmem.view mem pfn ~off ~len:1) (Physmem.base pfn + off));
                exactly []
            | 16 -> Memctrl.read_into ctrl Memctrl.Plain pfn ~off ~len:16 ~dst ~dst_off:0; exactly []
            | 17 -> Memctrl.read_into ctrl Memctrl.Smek pfn ~off ~len:16 ~dst ~dst_off:0; exactly []
            | 18 ->
                let f = 1 + (pfn mod 3) in
                ignore (Hw.Bmt.verify bmt f);
                ignore (Hw.Bmt.verify_fill bmt f ~src:pfn);
                ignore (Hw.Bmt.verify_fetched bmt f ~data:(Physmem.dump mem pfn));
                exactly []
            | 19 ->
                ignore (Pagetable.lookup_packed table vfn);
                ignore (Pagetable.lookup table vfn);
                ignore (Pagetable.mapped_frames table);
                ignore (Pagetable.frame_mapped table pfn);
                exactly []
            | _ -> ignore (Pit.get pit pfn); exactly []
          in
          let after = stamps () in
          expect (List.filter (fun f -> before.(f) <> after.(f)) (List.init nr_frames Fun.id)))
        ops)

(* --- Memctrl ----------------------------------------------------------------- *)

(* Every frame lives in one block, so only the range check keeps an access
   that runs off its page out of the neighbouring frames. *)
let test_memctrl_range_guard () =
  let mem = Physmem.create ~nr_frames:16 in
  let ctrl = Memctrl.create mem (Cost.ledger ()) (Rng.create 3L) in
  let pfn = 5 and ps = Addr.page_size in
  List.iter
    (fun f -> Physmem.write_raw mem f ~off:0 (Bytes.make ps (Char.chr (0x40 + f))))
    [ pfn - 1; pfn; pfn + 1 ];
  let neighbours () =
    List.map (fun f -> (Physmem.dump mem f, Physmem.stamp mem f)) [ pfn - 1; pfn + 1 ]
  in
  let before = neighbours () in
  let dst = Bytes.create 32 in
  List.iter
    (fun (name, sel) ->
      List.iter
        (fun off ->
          let raises what f =
            match f () with
            | () -> Alcotest.failf "%s %s at %d+16 returned" name what off
            | exception Invalid_argument _ -> ()
          in
          raises "read" (fun () -> Memctrl.read_into ctrl sel pfn ~off ~len:16 ~dst ~dst_off:0);
          raises "write" (fun () -> Memctrl.write ctrl sel pfn ~off (Bytes.make 16 'x')))
        [ ps - 6; -16 ])
    [ ("plain", Memctrl.Plain); ("encrypted", Memctrl.Smek) ];
  List.iter2
    (fun (bytes, stamp) (bytes', stamp') ->
      Alcotest.(check bool) "neighbour's bytes kept" true (Bytes.equal bytes bytes');
      Alcotest.(check int) "neighbour's stamp kept" stamp stamp')
    before (neighbours ())

let ctrl_env () =
  let mem = Physmem.create ~nr_frames:16 in
  let ledger = Cost.ledger () in
  let ctrl = Memctrl.create mem ledger (Rng.create 3L) in
  (mem, ledger, ctrl)

let test_memctrl_plain () =
  let _, _, ctrl = ctrl_env () in
  Memctrl.write ctrl Memctrl.Plain 3 ~off:7 (Bytes.of_string "plain data");
  Alcotest.(check string) "plain roundtrip" "plain data"
    (Bytes.to_string (Memctrl.read ctrl Memctrl.Plain 3 ~off:7 ~len:10))

let test_memctrl_encrypted_roundtrip () =
  let mem, _, ctrl = ctrl_env () in
  Memctrl.install_key ctrl ~asid:1 (Aes.expand (Bytes.make 16 'k'));
  Memctrl.write ctrl (Memctrl.Asid 1) 3 ~off:5 (Bytes.of_string "secret-bytes");
  Alcotest.(check string) "decrypting read" "secret-bytes"
    (Bytes.to_string (Memctrl.read ctrl (Memctrl.Asid 1) 3 ~off:5 ~len:12));
  (* The DRAM holds ciphertext. *)
  let raw = Physmem.read_raw mem 3 ~off:5 ~len:12 in
  Alcotest.(check bool) "DRAM is ciphertext" false (Bytes.to_string raw = "secret-bytes")

let test_memctrl_wrong_key_garbage () =
  let _, _, ctrl = ctrl_env () in
  Memctrl.install_key ctrl ~asid:1 (Aes.expand (Bytes.make 16 'a'));
  Memctrl.install_key ctrl ~asid:2 (Aes.expand (Bytes.make 16 'b'));
  Memctrl.write ctrl (Memctrl.Asid 1) 4 ~off:0 (Bytes.of_string "0123456789abcdef");
  let other = Memctrl.read ctrl (Memctrl.Asid 2) 4 ~off:0 ~len:16 in
  Alcotest.(check bool) "wrong ASID sees garbage" false
    (Bytes.to_string other = "0123456789abcdef")

let test_memctrl_uninstall () =
  let _, _, ctrl = ctrl_env () in
  Memctrl.install_key ctrl ~asid:1 (Aes.expand (Bytes.make 16 'k'));
  Alcotest.(check bool) "has key" true (Memctrl.has_key ctrl ~asid:1);
  Memctrl.uninstall_key ctrl ~asid:1;
  Alcotest.(check bool) "key gone" false (Memctrl.has_key ctrl ~asid:1);
  Alcotest.check_raises "traffic without key"
    (Invalid_argument "Memctrl: no key installed for ASID 1") (fun () ->
      ignore (Memctrl.read ctrl (Memctrl.Asid 1) 3 ~off:0 ~len:16))

let test_memctrl_partial_rmw =
  QCheck.Test.make ~name:"unaligned encrypted writes preserve neighbours" ~count:50
    (QCheck.pair (QCheck.int_bound 200) (QCheck.int_bound 40))
    (fun (off, len) ->
      let len = max 1 len in
      let _, _, ctrl = ctrl_env () in
      Memctrl.install_key ctrl ~asid:1 (Aes.expand (Bytes.make 16 'q'));
      let base = Bytes.init 256 (fun i -> Char.chr (i land 0xff)) in
      Memctrl.write ctrl (Memctrl.Asid 1) 5 ~off:0 base;
      Memctrl.write ctrl (Memctrl.Asid 1) 5 ~off (Bytes.make len 'Z');
      let expect = Bytes.copy base in
      Bytes.fill expect off len 'Z';
      Bytes.equal (Memctrl.read ctrl (Memctrl.Asid 1) 5 ~off:0 ~len:256) expect)

let test_memctrl_fw_matches_slot () =
  (* Pages prepared by the firmware decrypt correctly through the slot
     holding the same schedule. *)
  let _, _, ctrl = ctrl_env () in
  let key = Aes.expand (Bytes.make 16 'v') in
  let plain = Bytes.init Addr.page_size (fun i -> Char.chr (i land 0xff)) in
  Memctrl.fw_write_page ctrl ~key 8 plain;
  Memctrl.install_key ctrl ~asid:3 key;
  Alcotest.(check bool) "slot traffic decrypts fw page" true
    (Bytes.equal (Memctrl.read ctrl (Memctrl.Asid 3) 8 ~off:0 ~len:Addr.page_size) plain);
  Alcotest.(check bool) "fw_decrypt agrees" true
    (Bytes.equal (Memctrl.fw_decrypt_page ctrl ~key 8) plain)

let test_memctrl_charges () =
  let _, ledger, ctrl = ctrl_env () in
  let before = Cost.total ledger in
  ignore (Memctrl.read ctrl Memctrl.Plain 1 ~off:0 ~len:16);
  let plain_cost = Cost.total ledger - before in
  Memctrl.install_key ctrl ~asid:1 (Aes.expand (Bytes.make 16 'c'));
  let before = Cost.total ledger in
  ignore (Memctrl.read ctrl (Memctrl.Asid 1) 1 ~off:0 ~len:16);
  let enc_cost = Cost.total ledger - before in
  Alcotest.(check bool) "encrypted access costs more" true (enc_cost > plain_cost)

(* Golden ciphertext regression: digests and ledger total captured from the
   seed (pre-T-table) memory controller. Catches any drift in per-block
   tweak derivation, XEX masking, or cost accounting across crypto rewrites. *)
let test_memctrl_golden () =
  let unhex s =
    let n = String.length s / 2 in
    Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  in
  let plain = Bytes.init Addr.page_size (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
  let key = Aes.expand (unhex "000102030405060708090a0b0c0d0e0f") in
  let mem = Physmem.create ~nr_frames:8 in
  let ledger = Cost.ledger () in
  let ctrl = Memctrl.create mem ledger (Rng.create 42L) in
  Memctrl.fw_write_page ctrl ~key 3 plain;
  Alcotest.(check string) "fw page ciphertext digest"
    "edb5dd45e8f29a2878a68c7093c8e5ed847e85fbdd8464b72cbaf42f7e3ca8d6"
    (Sha256.hex (Sha256.digest (Physmem.dump mem 3)));
  Memctrl.install_key ctrl ~asid:1 key;
  Memctrl.write ctrl (Memctrl.Asid 1) 4 ~off:60 (Bytes.sub plain 0 100);
  Alcotest.(check string) "unaligned slot write digest"
    "4f85a1bca320771b853f6b0360a23a880925194d10ae13a83b14e22465586cf7"
    (Sha256.hex (Sha256.digest (Physmem.dump mem 4)));
  Alcotest.(check bool) "readback matches" true
    (Bytes.equal (Memctrl.read ctrl (Memctrl.Asid 1) 4 ~off:60 ~len:100)
       (Bytes.sub plain 0 100));
  Alcotest.(check int) "ledger total unchanged" 54000 (Cost.total ledger)

(* --- TLB ---------------------------------------------------------------------- *)

let test_tlb () =
  let l = Cost.ledger () in
  let tlb = Tlb.create l in
  Alcotest.(check bool) "first lookup misses" false (Tlb.lookup tlb ~space_id:1 5);
  Alcotest.(check bool) "second hits" true (Tlb.lookup tlb ~space_id:1 5);
  Alcotest.(check bool) "other space misses" false (Tlb.lookup tlb ~space_id:2 5);
  Tlb.flush_entry tlb ~space_id:1 ~record:true 5;
  Alcotest.(check bool) "flushed entry misses" false (Tlb.lookup tlb ~space_id:1 5);
  Tlb.flush_all tlb;
  Alcotest.(check int) "flush_all counted" 1 (Tlb.flushes tlb);
  Alcotest.(check int) "empty after full flush" 0 (Tlb.entries tlb)

(* --- Cache --------------------------------------------------------------------- *)

let test_cache_fill_probe () =
  let cache = Cache.create (Cost.ledger ()) in
  let line = Bytes.make 16 'L' in
  Cache.fill cache 7 ~block:3 line;
  (* A hit lands at [dst_off]; a miss leaves [dst] untouched. *)
  let dst = Bytes.make 24 '.' in
  Alcotest.(check bool) "hit" true (Cache.probe_into cache 7 ~block:3 ~dst ~dst_off:8);
  Alcotest.(check string) "line content at dst_off" ("........" ^ Bytes.to_string line)
    (Bytes.to_string dst);
  let dst = Bytes.make 16 '.' in
  Alcotest.(check bool) "other block misses" false
    (Cache.probe_into cache 7 ~block:4 ~dst ~dst_off:0);
  Alcotest.(check string) "miss writes nothing" (String.make 16 '.') (Bytes.to_string dst)

let hit cache pfn ~block = Cache.probe_into cache pfn ~block ~dst:(Bytes.create 16) ~dst_off:0

let test_cache_eviction () =
  let cache = Cache.create ~nr_lines:4 (Cost.ledger ()) in
  for b = 0 to 5 do
    Cache.fill cache 1 ~block:b (Bytes.make 16 (Char.chr (65 + b)))
  done;
  Alcotest.(check bool) "oldest evicted" false (hit cache 1 ~block:0);
  Alcotest.(check bool) "newest resident" true (hit cache 1 ~block:5);
  Alcotest.(check int) "bounded" 4 (Cache.resident cache)

let test_cache_invalidate () =
  let cache = Cache.create (Cost.ledger ()) in
  Cache.fill cache 2 ~block:0 (Bytes.make 16 'x');
  Cache.invalidate_page cache 2;
  Alcotest.(check bool) "invalidated" false (hit cache 2 ~block:0)

let test_cache_returns_copies () =
  (* Neither the filled source nor a probed copy aliases the line. *)
  let cache = Cache.create (Cost.ledger ()) in
  let src = Bytes.make 16 'a' in
  Cache.fill cache 3 ~block:0 src;
  Bytes.set src 1 'Y';
  let dst = Bytes.create 16 in
  Alcotest.(check bool) "hit" true (Cache.probe_into cache 3 ~block:0 ~dst ~dst_off:0);
  Bytes.set dst 0 'Z';
  Alcotest.(check bool) "hit again" true (Cache.probe_into cache 3 ~block:0 ~dst ~dst_off:0);
  Alcotest.(check string) "line unaffected" (String.make 16 'a') (Bytes.to_string dst)

(* --- Pagetable ------------------------------------------------------------------ *)

let table m = Machine.new_table m

let proto_gen =
  QCheck.map
    (fun (frame, w, x, c) -> { Pagetable.frame; writable = w; executable = x; c_bit = c })
    (QCheck.quad (QCheck.int_bound 0xFFFF) QCheck.bool QCheck.bool QCheck.bool)

let test_pt_roundtrip =
  QCheck.Test.make ~name:"PTE set/lookup roundtrip" ~count:200
    (QCheck.pair (QCheck.int_bound 5000) proto_gen)
    (fun (vfn, proto) ->
      let m = machine () in
      let t = table m in
      Pagetable.hw_set t vfn (Some proto);
      Pagetable.lookup t vfn = Some proto)

let test_pt_clear () =
  let m = machine () in
  let t = table m in
  Pagetable.hw_set t 9 (Some { Pagetable.frame = 3; writable = true; executable = false; c_bit = false });
  Pagetable.hw_set t 9 None;
  Alcotest.(check bool) "cleared" true (Pagetable.lookup t 9 = None)

let test_pt_backing_and_reverse () =
  let m = machine () in
  let t = table m in
  Pagetable.hw_set t 0 (Some { Pagetable.frame = 7; writable = true; executable = false; c_bit = false });
  Pagetable.hw_set t 600 (Some { Pagetable.frame = 7; writable = false; executable = false; c_bit = false });
  Alcotest.(check int) "two groups allocated" 2 (List.length (Pagetable.backing_frames t));
  Alcotest.(check int) "reverse map finds both" 2 (List.length (Pagetable.frame_mapped t 7));
  Pagetable.hw_set t 0 None;
  Alcotest.(check int) "reverse shrinks" 1 (List.length (Pagetable.frame_mapped t 7));
  Alcotest.(check int) "entry count" 1 (Pagetable.entry_count t)

(* The reverse index against a brute-force scan of [mapped_frames], over
   random store sequences: remaps to the same frame, unmaps, one frame at
   several vfns, and gfn-sized frames far above the host's frame count. *)
let test_pt_reverse_index_model =
  let high = 1 lsl 36 in
  let frame_gen = QCheck.Gen.(oneof [ int_range 1 24; map (fun k -> high + k) (int_bound 8) ]) in
  let op_gen =
    QCheck.Gen.(
      triple (int_bound 1100) (opt ~ratio:0.8 frame_gen) bool)
  in
  QCheck.Test.make ~name:"reverse index = scan of mapped_frames" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 300) op_gen))
    (fun ops ->
      let m = machine () in
      let t = table m in
      List.iter
        (fun (vfn, frame, writable) ->
          Pagetable.hw_set t vfn
            (Option.map
               (fun frame -> { Pagetable.frame; writable; executable = false; c_bit = false })
               frame))
        ops;
      let entries = Pagetable.mapped_frames t in
      let frames = List.init 25 Fun.id @ List.init 9 (fun k -> high + k) in
      List.for_all
        (fun f ->
          let at_f =
            List.sort compare (List.filter (fun (_, p) -> p.Pagetable.frame = f) entries)
          in
          Pagetable.frame_is_mapped t f = (at_f <> [])
          && List.sort compare (Pagetable.frame_mapped t f) = at_f
          && Pagetable.frame_mapped_writable t f
             = List.exists (fun (_, p) -> p.Pagetable.writable) at_f)
        frames)

let test_pt_lives_in_physmem () =
  (* A raw physical write to the page-table-page changes the translation. *)
  let m = machine () in
  let t = table m in
  Pagetable.hw_set t 3 (Some { Pagetable.frame = 9; writable = true; executable = false; c_bit = false });
  let pt_page = Pagetable.backing_frame_of t 3 in
  (* Zero the 8 entry bytes: the mapping disappears from the hardware walk. *)
  Physmem.write_raw m.Machine.mem pt_page ~off:(3 * 8) (Bytes.make 8 '\000');
  Alcotest.(check bool) "raw store cleared the PTE" true (Pagetable.lookup t 3 = None)

(* --- Cpu / Vmcb ------------------------------------------------------------------- *)

let test_cpu_regs () =
  let cpu = Cpu.create () in
  Cpu.set_reg cpu Cpu.Rax 42L;
  Cpu.set_reg cpu Cpu.R15 7L;
  Alcotest.(check int64) "rax" 42L (Cpu.get_reg cpu Cpu.Rax);
  Alcotest.(check int64) "r15" 7L (Cpu.get_reg cpu Cpu.R15);
  Alcotest.(check int) "16 regs" 16 (List.length (Cpu.all_regs cpu))

let test_cpu_defaults () =
  let cpu = Cpu.create () in
  Alcotest.(check bool) "WP on" true (Cpu.wp cpu);
  Alcotest.(check bool) "paging on" true (Cpu.paging cpu);
  Alcotest.(check bool) "SMEP on" true (Cpu.smep cpu);
  Alcotest.(check bool) "NXE on" true (Cpu.nxe cpu);
  Alcotest.(check bool) "host mode" true (Cpu.mode cpu = Cpu.Host);
  Alcotest.(check bool) "not in fidelius" false (Cpu.in_fidelius cpu)

let test_reg_names () =
  List.iter
    (fun r ->
      match Cpu.reg_of_string (Cpu.reg_to_string r) with
      | Some r' -> Alcotest.(check bool) "name roundtrip" true (r = r')
      | None -> Alcotest.fail "name roundtrip")
    Cpu.regs

let test_exit_reason_codes () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "code roundtrip" true
        (Vmcb.exit_reason_of_int64 (Vmcb.exit_reason_to_int64 r) = Some r))
    [ Vmcb.Cpuid; Vmcb.Hlt; Vmcb.Vmmcall; Vmcb.Npf; Vmcb.Ioio; Vmcb.Msr; Vmcb.Intr; Vmcb.Shutdown ];
  Alcotest.(check bool) "unknown code" true (Vmcb.exit_reason_of_int64 0xdeadL = None)

(* --- Insn ------------------------------------------------------------------------- *)

let test_insn_encoders () =
  Alcotest.(check int64) "CR0 PG|WP" 0x8001_0000L (Insn.cr0 ~pg:true ~wp:true);
  Alcotest.(check int64) "CR0 PG" 0x8000_0000L (Insn.cr0 ~pg:true ~wp:false);
  Alcotest.(check int64) "CR4 SMEP" 0x10_0000L (Insn.cr4 ~smep:true);
  Alcotest.(check int64) "EFER NXE" 0x800L (Insn.efer ~nxe:true);
  List.iter
    (fun (a, b) ->
      let cr0 = Insn.cr0 ~pg:a ~wp:b in
      Alcotest.(check (pair bool bool)) "CR0 decodes" (a, b) (Insn.cr0_pg cr0, Insn.cr0_wp cr0);
      Alcotest.(check bool) "CR4 decodes" a (Insn.cr4_smep (Insn.cr4 ~smep:a));
      Alcotest.(check bool) "EFER decodes" b (Insn.efer_nxe (Insn.efer ~nxe:b)))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_insn_registry () =
  let reg = Insn.create (Cost.ledger ()) in
  let hits = ref 0 in
  Insn.place reg Insn.Mov_cr0 ~page:10 ~handler:(fun _ -> incr hits; Ok ());
  Insn.place reg Insn.Mov_cr0 ~page:11 ~handler:(fun _ -> incr hits; Ok ());
  Alcotest.(check bool) "not monopolized" false (Insn.monopolized reg Insn.Mov_cr0);
  Insn.scrub reg Insn.Mov_cr0 ~keep:10;
  Alcotest.(check bool) "monopolized after scrub" true (Insn.monopolized reg Insn.Mov_cr0);
  Alcotest.(check (list int)) "only page 10" [ 10 ] (Insn.instances reg Insn.Mov_cr0)

let test_insn_execute_fetch_check () =
  let reg = Insn.create (Cost.ledger ()) in
  Insn.place reg Insn.Vmrun ~page:20 ~handler:(fun _ -> Ok ());
  Alcotest.(check bool) "unmapped page faults" true
    (Result.is_error (Insn.execute reg ~exec_ok:(fun _ -> false) Insn.Vmrun 0L));
  Alcotest.(check bool) "mapped page executes" true
    (Result.is_ok (Insn.execute reg ~exec_ok:(fun p -> p = 20) Insn.Vmrun 0L));
  Alcotest.(check bool) "missing op is #UD" true
    (Result.is_error (Insn.execute reg ~exec_ok:(fun _ -> true) Insn.Lgdt 0L))

let test_insn_inject () =
  let reg = Insn.create (Cost.ledger ()) in
  Alcotest.(check bool) "no W^X no injection" true
    (Result.is_error (Insn.inject reg ~wx_ok:(fun _ -> false) Insn.Mov_cr3 ~page:5 ~handler:(fun _ -> Ok ())));
  Alcotest.(check bool) "W^X page allows injection" true
    (Result.is_ok (Insn.inject reg ~wx_ok:(fun _ -> true) Insn.Mov_cr3 ~page:5 ~handler:(fun _ -> Ok ())))

(* --- Machine ------------------------------------------------------------------------ *)

let test_machine_alloc_scrub () =
  let m = machine () in
  let pfn = Machine.alloc_frame m in
  Physmem.write_raw m.Machine.mem pfn ~off:0 (Bytes.of_string "stale secret");
  Machine.free_frame m pfn;
  (* The freed frame is scrubbed before reuse. *)
  Alcotest.(check string) "scrubbed" "\000\000\000\000"
    (Bytes.to_string (Physmem.read_raw m.Machine.mem pfn ~off:0 ~len:4))

let test_machine_alloc_unique () =
  let m = machine () in
  let frames = Machine.alloc_frames m 50 in
  Alcotest.(check int) "all distinct" 50 (List.length (List.sort_uniq compare frames));
  Alcotest.(check bool) "frame 0 reserved" false (List.mem 0 frames)

let test_machine_exhaustion () =
  let m = Machine.create ~nr_frames:4 ~seed:1L () in
  ignore (Machine.alloc_frames m 3);
  Alcotest.check_raises "exhausted" (Failure "Machine.alloc_frame: out of physical memory")
    (fun () -> ignore (Machine.alloc_frame m))

(* The frame allocator as it was first written, kept as the model: one
   free list, descending from the highest frame, each freed frame pushed
   on its head. *)
module Alloc_model = struct
  type t = { mutable free : int list }

  let create nr_frames = { free = List.init (nr_frames - 1) (fun i -> nr_frames - 1 - i) }

  let alloc t =
    match t.free with
    | [] -> None
    | pfn :: rest ->
        t.free <- rest;
        Some pfn

  let free t pfn = t.free <- pfn :: t.free
  let frames_free t = List.length t.free
end

(* Random allocs, multi-frame allocs and frees of held frames, down to
   exhaustion and back: the same frames in the same order, the same
   [frames_free] after every op, and the same failure once memory runs
   out (a multi-frame alloc that runs out keeps the frames it took, in
   both). *)
let test_machine_alloc_model =
  QCheck.Test.make ~name:"allocator = descending free list with LIFO frees" ~count:300
    QCheck.(
      pair (int_range 1 40)
        (list_of_size (Gen.int_range 0 120) (pair (int_bound 2) (int_bound 50))))
    (fun (nr_frames, ops) ->
      let m = Machine.create ~nr_frames ~seed:3L () in
      let model = Alloc_model.create nr_frames in
      let held = ref [] in
      let alloc () =
        let got =
          match Machine.alloc_frame m with
          | pfn -> Some pfn
          | exception Failure msg ->
              if msg <> "Machine.alloc_frame: out of physical memory" then
                QCheck.Test.fail_reportf "unexpected failure %S" msg;
              None
        in
        let expected = Alloc_model.alloc model in
        Option.iter (fun pfn -> held := pfn :: !held) got;
        got = expected
      in
      Machine.frames_free m = Alloc_model.frames_free model
      && List.for_all
           (fun (op, k) ->
             let same =
               match op with
               | 0 -> alloc ()
               | 1 ->
                   let rec take n = n = 0 || (alloc () && take (n - 1)) in
                   take (k mod 5)
               | _ -> (
                   match !held with
                   | [] -> true
                   | l ->
                       let pfn = List.nth l (k mod List.length l) in
                       held := List.filter (( <> ) pfn) l;
                       Machine.free_frame m pfn;
                       Alloc_model.free model pfn;
                       true)
             in
             same && Machine.frames_free m = Alloc_model.frames_free model)
           ops)

(* A machine over a recycled backing builds nothing per frame: the
   allocator is a counter and a stack. The free list it replaced took
   about 25k minor words at 8,192 frames. *)
let test_machine_create_minor_words () =
  let mem = Physmem.create ~nr_frames:Machine.default_nr_frames in
  ignore (Machine.create ~mem ~seed:1L ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Machine.create ~mem ~seed:1L ()));
  let words = Gc.minor_words () -. w0 in
  if words > 1024. then
    Alcotest.failf "Machine.create ~mem allocated %.0f minor words (at most 1024)" words

let test_machine_dma_iommu () =
  let m = machine () in
  Alcotest.(check bool) "no IOMMU: allowed" true
    (Result.is_ok (Machine.dma_write m 5 ~off:0 (Bytes.of_string "dev")));
  Machine.set_iommu m (Some (fun pfn -> pfn <> 5));
  Alcotest.(check bool) "filtered frame denied" true
    (Result.is_error (Machine.dma_write m 5 ~off:0 (Bytes.of_string "dev")));
  Alcotest.(check bool) "other frame allowed" true
    (Result.is_ok (Machine.dma_read m 6 ~off:0 ~len:4))

(* --- Mmu --------------------------------------------------------------------------- *)

let mmu_env () =
  let m = machine () in
  let space = Machine.new_table m in
  (* Identity-map a few frames with varied permissions. *)
  let map vfn ~w ~x =
    Pagetable.hw_set space vfn (Some { Pagetable.frame = vfn; writable = w; executable = x; c_bit = false })
  in
  map 2 ~w:true ~x:false;
  map 3 ~w:false ~x:false;
  map 4 ~w:false ~x:true;
  (m, space)

let test_mmu_rw () =
  let m, space = mmu_env () in
  Mmu.write m space ~addr:(Addr.addr_of 2 10) (Bytes.of_string "host data");
  Alcotest.(check string) "host rw" "host data"
    (Bytes.to_string (Mmu.read m space ~addr:(Addr.addr_of 2 10) ~len:9))

let test_mmu_not_present () =
  let m, space = mmu_env () in
  (try
     ignore (Mmu.read m space ~addr:(Addr.addr_of 50 0) ~len:1);
     Alcotest.fail "expected fault"
   with Mmu.Fault { reason; _ } -> Alcotest.(check string) "reason" "not present" reason)

let test_mmu_wp_semantics () =
  let m, space = mmu_env () in
  (* Read-only page: write faults with WP set... *)
  (try
     Mmu.write m space ~addr:(Addr.addr_of 3 0) (Bytes.of_string "x");
     Alcotest.fail "expected fault"
   with Mmu.Fault _ -> ());
  (* ...and succeeds with WP clear (supervisor override). *)
  Cpu.priv_set_wp m.Machine.cpu false;
  Mmu.write m space ~addr:(Addr.addr_of 3 0) (Bytes.of_string "y");
  Cpu.priv_set_wp m.Machine.cpu true;
  Alcotest.(check string) "written under WP=0" "y"
    (Bytes.to_string (Mmu.read m space ~addr:(Addr.addr_of 3 0) ~len:1))

let test_mmu_exec_nx () =
  let m, space = mmu_env () in
  Alcotest.(check bool) "exec page ok" true (Mmu.exec_ok m space 4);
  Alcotest.(check bool) "nx page blocked" false (Mmu.exec_ok m space 3);
  Cpu.priv_set_nxe m.Machine.cpu false;
  Alcotest.(check bool) "NXE off: everything executable" true (Mmu.exec_ok m space 3);
  Cpu.priv_set_nxe m.Machine.cpu true

let test_mmu_wx () =
  let m, space = mmu_env () in
  Alcotest.(check bool) "rw page is not wx" false (Mmu.wx_ok m space 2);
  Pagetable.hw_set space 6
    (Some { Pagetable.frame = 6; writable = true; executable = true; c_bit = false });
  Alcotest.(check bool) "w+x page detected" true (Mmu.wx_ok m space 6)

let test_mmu_set_pte_mediation () =
  let m = machine () in
  m.Machine.enforce_paging <- false;
  let space = Machine.new_table m in
  let target = Machine.new_table m in
  (* Build the acting space: it maps the target's page-table-page RO. *)
  let backing = Pagetable.backing_frame_of target 0 in
  Pagetable.hw_set space backing
    (Some { Pagetable.frame = backing; writable = false; executable = false; c_bit = false });
  m.Machine.enforce_paging <- true;
  (* Write-protected: update faults... *)
  (try
     Mmu.set_pte m ~space ~table:target 0
       (Some { Pagetable.frame = 9; writable = true; executable = false; c_bit = false });
     Alcotest.fail "expected fault"
   with Mmu.Fault _ -> ());
  (* ...but goes through when WP is clear (the type-1 gate lever). *)
  Cpu.priv_set_wp m.Machine.cpu false;
  Mmu.set_pte m ~space ~table:target 0
    (Some { Pagetable.frame = 9; writable = true; executable = false; c_bit = false });
  Cpu.priv_set_wp m.Machine.cpu true;
  Alcotest.(check bool) "entry landed" true (Pagetable.lookup target 0 <> None);
  (* A page-table-page with no mapping at all in the acting space also
     faults, WP or not. *)
  m.Machine.enforce_paging <- true;
  let orphan = Machine.new_table m in
  try
    Mmu.set_pte m ~space ~table:orphan 0
      (Some { Pagetable.frame = 9; writable = true; executable = false; c_bit = false });
    Alcotest.fail "expected fault"
  with Mmu.Fault _ -> ()

(* --- the early-boot run store -------------------------------------------------- *)

(* [Mmu.set_pte_run] against the stores it stands for, [set_pte_packed]
   entry by entry, on twin machines set up the same way. *)
type run_case = {
  pre : (int * int * bool) list; (* entries already in the table: vfn, frame, writable *)
  cached : int list; (* vfns the TLB caches before the run, the last one most recent *)
  first : int;
  count : int;
  text : int list; (* vfns stored RX, the rest RW/NX, as boot stores its text *)
  hole_every : int; (* every [hole_every]th vfn is cleared instead; 0 = none *)
  armed : bool; (* a Tlb_omit_flush plan is armed across the run *)
  scoped : bool; (* the run is charged inside a ledger scope *)
}

let run_nr_frames = 1536
let run_vfns = 1800

let run_entry c v =
  if c.hole_every > 0 && v mod c.hole_every = 0 then Pagetable.packed_absent
  else
    let is_text = List.mem v c.text in
    Pagetable.packed_make ~frame:v ~writable:(not is_text) ~executable:is_text ~c_bit:false

let run_case_arb =
  let open QCheck.Gen in
  let gen =
    let* first = int_bound 1500 in
    let* count = oneof [ int_bound 4; int_bound (run_vfns - first) ] in
    let any = int_bound (run_vfns - 1) in
    let in_run = if count = 0 then any else int_range first (first + count - 1) in
    let edge = map (Int.max 0) (oneofl [ first - 1; first; first + count - 1; first + count ]) in
    let near = oneof [ in_run; any; edge ] in
    let* pre = list_size (int_bound 60) (triple near any bool) in
    let* cached = list_size (int_bound 12) near in
    let* text = list_size (int_bound 16) near in
    let* hole_every = oneof [ return 0; int_range 2 50 ] in
    let* armed = map (fun k -> k = 0) (int_bound 3) in
    let* scoped = bool in
    return { pre; cached; first; count; text; hole_every; armed; scoped }
  in
  let print c =
    Printf.sprintf "first=%d count=%d pre=%d cached=[%s] text=[%s] hole_every=%d armed=%b scoped=%b"
      c.first c.count (List.length c.pre)
      (String.concat ";" (List.map string_of_int c.cached))
      (String.concat ";" (List.map string_of_int c.text))
      c.hole_every c.armed c.scoped
  in
  QCheck.make ~print gen

(* One twin: the table's earlier entries and the TLB's cached keys (plus
   one key of another space at the run's first vfn, which no flush of
   this table may touch), then [store] under a recording clocked by the
   ledger. Returns what the twins must agree on; [frame_is_mapped] also
   sees a reverse-index pair the run left stale, which [frame_mapped]
   filters out. *)
let run_twin c store =
  let m = Machine.create ~nr_frames:run_nr_frames ~seed:5L () in
  let t = Machine.new_table m in
  let id = Pagetable.id t in
  List.iter
    (fun (vfn, frame, writable) ->
      Mmu.set_pte_packed m ~space:t ~table:t vfn
        (Pagetable.packed_make ~frame ~writable ~executable:false ~c_bit:false))
    c.pre;
  ignore (Tlb.lookup m.Machine.tlb ~space_id:(id + 1) c.first);
  List.iter (fun vfn -> ignore (Tlb.lookup m.Machine.tlb ~space_id:id vfn)) c.cached;
  let stamps = Array.init run_nr_frames (Physmem.stamp m.Machine.mem) in
  let plan = Fidelius_inject.Plan.make Fidelius_inject.Site.Tlb_omit_flush in
  if c.armed then Fidelius_inject.Plan.install plan;
  let ring = Fidelius_obs.Trace.ring () in
  let clock () = Cost.total m.Machine.ledger in
  let go () = store m t in
  Fun.protect ~finally:Fidelius_inject.Plan.uninstall (fun () ->
      Fidelius_obs.Trace.record_into ring ~clock (fun () ->
          if c.scoped then Cost.with_scope m.Machine.ledger "boot" go else go ()));
  let moved = Array.mapi (fun pfn s -> Physmem.stamp m.Machine.mem pfn <> s) stamps in
  let backing = Pagetable.backing_frames t in
  let pages = List.map (Physmem.dump m.Machine.mem) backing in
  let mapped =
    List.init run_vfns (fun f ->
        ( Pagetable.frame_mapped t f,
          Pagetable.frame_is_mapped t f,
          Pagetable.frame_mapped_writable t f ))
  in
  let categories = Cost.categories m.Machine.ledger and scopes = Cost.scopes m.Machine.ledger in
  let trace = Fidelius_obs.Trace.ring_entries ring in
  let tlb_entries = Tlb.entries m.Machine.tlb in
  (* Lookups last: they fill the TLB and charge the ledger read above.
     The most recent key first, before a lookup moves the TLB's front
     entry off it. *)
  let keys =
    List.rev_map (fun v -> (id, v)) c.cached
    @ ((id + 1, c.first) :: List.init run_vfns (fun v -> (id, v)))
  in
  let cached = List.map (fun (space_id, v) -> Tlb.lookup m.Machine.tlb ~space_id v) keys in
  ( (moved, backing, pages, mapped),
    (categories, scopes, trace),
    (tlb_entries, cached, Machine.frames_free m, Fidelius_inject.Plan.fired plan) )

let store_run c m t = Mmu.set_pte_run m ~space:t ~table:t c.first c.count (run_entry c)

let store_each c m t =
  for v = c.first to c.first + c.count - 1 do
    Mmu.set_pte_packed m ~space:t ~table:t v (run_entry c v)
  done

let test_set_pte_run_matches_entry_stores =
  QCheck.Test.make ~name:"set_pte_run = set_pte_packed entry by entry" ~count:200 run_case_arb
    (fun c -> run_twin c (store_run c) = run_twin c (store_each c))

(* The armed case spelled out: the plan fires on the run's first flush in
   both twins, so the first vfn's cached key survives in both. *)
let test_set_pte_run_armed () =
  let c =
    { pre = [ (3, 40, true); (700, 3, false) ];
      cached = [ 600; 4; 3 ];
      first = 3;
      count = 600;
      text = [ 5; 6 ];
      hole_every = 0;
      armed = true;
      scoped = false }
  in
  let ((_, _, (_, cached, _, fired)) as twin) = run_twin c (store_run c) in
  Alcotest.(check bool) "plan fired" true fired;
  (* Looked up most recent first: 3, 4, 600. *)
  Alcotest.(check (list bool)) "only the first vfn's key survives the run"
    [ true; false; false ] (List.filteri (fun i _ -> i < 3) cached);
  Alcotest.(check bool) "twins agree" true (twin = run_twin c (store_each c))

let test_set_pte_run_after_paging () =
  let m = machine () in
  let t = Machine.new_table m in
  m.Machine.enforce_paging <- true;
  Alcotest.check_raises "refused once paging is enforced"
    (Invalid_argument "Mmu.set_pte_run: paging is enforced") (fun () ->
      Mmu.set_pte_run m ~space:t ~table:t 1 4 (fun v ->
          Pagetable.packed_make ~frame:v ~writable:true ~executable:false ~c_bit:false))

let guest_env () =
  let m = machine () in
  let gpt = Machine.new_table m and npt = Machine.new_table m in
  Memctrl.install_key m.Machine.ctrl ~asid:7 (Aes.expand (Bytes.make 16 'g'));
  (* gva 1 -> gfn 1 (encrypted), gva 2 -> gfn 2 (plain); gfn n -> pfn 10+n *)
  Pagetable.hw_set gpt 1 (Some { Pagetable.frame = 1; writable = true; executable = false; c_bit = true });
  Pagetable.hw_set gpt 2 (Some { Pagetable.frame = 2; writable = true; executable = false; c_bit = false });
  Pagetable.hw_set gpt 3 (Some { Pagetable.frame = 3; writable = false; executable = false; c_bit = false });
  Pagetable.hw_set npt 1 (Some { Pagetable.frame = 11; writable = true; executable = false; c_bit = false });
  Pagetable.hw_set npt 2 (Some { Pagetable.frame = 12; writable = true; executable = false; c_bit = false });
  Pagetable.hw_set npt 3 (Some { Pagetable.frame = 13; writable = true; executable = false; c_bit = false });
  (m, gpt, npt)

let test_guest_walk_selectors () =
  let m, gpt, npt = guest_env () in
  let _, sel1 = Mmu.guest_translate m ~domid:1 ~gpt ~npt ~asid:7 Mmu.Read (Addr.addr_of 1 0) in
  let _, sel2 = Mmu.guest_translate m ~domid:1 ~gpt ~npt ~asid:7 Mmu.Read (Addr.addr_of 2 0) in
  Alcotest.(check bool) "c-bit selects guest key" true (sel1 = Memctrl.Asid 7);
  Alcotest.(check bool) "no c-bit is plain" true (sel2 = Memctrl.Plain)

let test_guest_sme_priority () =
  let m, gpt, npt = guest_env () in
  (* Nested C-bit alone -> SME host key; guest C-bit takes priority. *)
  Pagetable.hw_set npt 2 (Some { Pagetable.frame = 12; writable = true; executable = false; c_bit = true });
  Pagetable.hw_set npt 1 (Some { Pagetable.frame = 11; writable = true; executable = false; c_bit = true });
  let _, sel2 = Mmu.guest_translate m ~domid:1 ~gpt ~npt ~asid:7 Mmu.Read (Addr.addr_of 2 0) in
  let _, sel1 = Mmu.guest_translate m ~domid:1 ~gpt ~npt ~asid:7 Mmu.Read (Addr.addr_of 1 0) in
  Alcotest.(check bool) "nested c-bit is SME" true (sel2 = Memctrl.Smek);
  Alcotest.(check bool) "guest c-bit wins" true (sel1 = Memctrl.Asid 7)

let test_guest_rw_encrypted () =
  let m, gpt, npt = guest_env () in
  Mmu.guest_write_sel m ~domid:1 ~gpt ~npt ~asid_sel:(Memctrl.Asid 7)
    ~addr:(Addr.addr_of 1 0) (Bytes.of_string "enc guest data");
  Alcotest.(check string) "guest reads own data" "enc guest data"
    (Bytes.to_string
       (Mmu.guest_read_sel m ~domid:1 ~gpt ~npt ~asid_sel:(Memctrl.Asid 7)
          ~addr:(Addr.addr_of 1 0) ~len:14));
  let raw = Physmem.read_raw m.Machine.mem 11 ~off:0 ~len:14 in
  Alcotest.(check bool) "DRAM ciphertext" false (Bytes.to_string raw = "enc guest data")

let test_guest_npt_fault () =
  let m, gpt, npt = guest_env () in
  Pagetable.hw_set gpt 5 (Some { Pagetable.frame = 9; writable = true; executable = false; c_bit = false });
  try
    ignore
      (Mmu.guest_read_sel m ~domid:1 ~gpt ~npt ~asid_sel:(Memctrl.Asid 7)
         ~addr:(Addr.addr_of 5 0) ~len:1);
    Alcotest.fail "expected NPT fault"
  with Mmu.Npt_fault { gfn; domid; _ } ->
    Alcotest.(check int) "faulting gfn" 9 gfn;
    Alcotest.(check int) "domid" 1 domid

let test_guest_gpt_protections () =
  let m, gpt, npt = guest_env () in
  (try
     ignore
       (Mmu.guest_read_sel m ~domid:1 ~gpt ~npt ~asid_sel:(Memctrl.Asid 7)
          ~addr:(Addr.addr_of 9 0) ~len:1);
     Alcotest.fail "expected guest PT fault"
   with Mmu.Fault { reason; _ } ->
     Alcotest.(check string) "gpt miss" "guest page table: not present" reason);
  try
    Mmu.guest_write_sel m ~domid:1 ~gpt ~npt ~asid_sel:(Memctrl.Asid 7)
      ~addr:(Addr.addr_of 3 0) (Bytes.of_string "x");
    Alcotest.fail "expected guest RO fault"
  with Mmu.Fault { reason; _ } ->
    Alcotest.(check string) "gpt ro" "guest page table: read-only" reason

let test_cache_leak_channel () =
  (* The plaintext-cache remap channel the paper describes: after a guest
     encrypted access, a Plain read of the same frame hits the cache. *)
  let m, gpt, npt = guest_env () in
  Mmu.guest_write_sel m ~domid:1 ~gpt ~npt ~asid_sel:(Memctrl.Asid 7)
    ~addr:(Addr.addr_of 1 0) (Bytes.of_string "0123456789abcdef");
  let snoop = Mmu.read_frame_as m ~sel:Memctrl.Plain 11 ~off:0 ~len:16 in
  Alcotest.(check string) "resident line leaks" "0123456789abcdef" (Bytes.to_string snoop);
  Cache.invalidate_page m.Machine.cache 11;
  let snoop2 = Mmu.read_frame_as m ~sel:Memctrl.Plain 11 ~off:0 ~len:16 in
  Alcotest.(check bool) "after eviction only ciphertext" false
    (Bytes.to_string snoop2 = "0123456789abcdef")

(* --- Cache FIFO bookkeeping ------------------------------------------------ *)

(* The blocks a cache property fills and probes: one to eight of them,
   drawn from the page's ends and middle (where an off-by-one in the
   resident span or a 7-bit span would show) and from the whole page. *)
let palette_arb () =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 1 8) (oneof [ oneofl [ 0; 1; 127; 128; 254; 255 ]; int_bound 255 ]))

(* The eviction queue may carry ghost keys (lines removed by
   [invalidate_page], purged lazily), but the bookkeeping must never drift:
   the live-key count seen by the eviction scan equals the resident-line
   count, residency never exceeds capacity, and compaction bounds the raw
   queue length. A regression here silently shrinks effective capacity —
   the bug class this pins down.

   [invalidate_page] trusts the per-frame resident count to stop early,
   so after every op the count must also agree with what probes see, and
   an invalidation must empty exactly its own frame. Blocks come from a
   palette across the whole page, since [invalidate_page] scans only the
   span a frame's lines were filled in. *)
let test_cache_fifo_invariants =
  QCheck.Test.make ~name:"FIFO queue tracks live lines under fill/invalidate"
    ~count:100
    QCheck.(
      pair (palette_arb ())
        (list_of_size (Gen.int_range 1 400)
           (triple (int_bound 2) (int_bound 30) (int_bound 7))))
    (fun (palette, ops) ->
      let nr_lines = 8 in
      let cache = Cache.create ~nr_lines (Cost.ledger ()) in
      let line = Bytes.make Addr.block_size 'x' in
      let dst = Bytes.create Addr.block_size in
      (* Fills touch only frames 0-30 and the palette's blocks, so probing
         those blocks sees every resident line. *)
      let frames = List.init 31 Fun.id and blocks = List.sort_uniq Int.compare palette in
      let hits pfn =
        List.filter (fun block -> Cache.probe_into cache pfn ~block ~dst ~dst_off:0) blocks
      in
      let lines () = List.map hits frames in
      List.for_all
        (fun (op, pfn, k) ->
          let block = List.nth palette (k mod List.length palette) in
          let op_ok =
            match op with
            | 0 | 1 ->
                Cache.fill cache pfn ~block line;
                true
            | _ ->
                let before = lines () in
                Cache.invalidate_page cache pfn;
                let after = lines () in
                List.for_all2
                  (fun (f, b) a -> if f = pfn then a = [] else a = b)
                  (List.combine frames before) after
          in
          op_ok
          && List.for_all (fun f -> Cache.frame_resident cache f = (hits f <> [])) frames
          && Cache.order_live cache = Cache.resident cache
          && Cache.resident cache <= nr_lines
          && Cache.order_length cache <= (4 * nr_lines) + 1)
        ops)

(* A list-based reference for the cache's FIFO-with-ghosts discipline,
   written from the rules rather than the store: a miss fill on a full
   cache first pops the FIFO until it evicts a live line (dropping the
   ghosts on the way), the FIFO is compacted to its live keys once it
   holds more than 4x the capacity, and a refilled key whose ghost is
   still queued keeps the ghost's place. [lines] is keyed by (pfn, block);
   [order] runs oldest first. *)
module Cache_model = struct
  type t = {
    nr_lines : int;
    mutable lines : ((int * int) * string) list;
    mutable order : (int * int) list;
    mutable fills : int;
    mutable hits : int;
  }

  let create nr_lines = { nr_lines; lines = []; order = []; fills = 0; hits = 0 }
  let live t k = List.mem_assoc k t.lines

  let rec evict_one t =
    match t.order with
    | [] -> assert false
    | k :: rest ->
        t.order <- rest;
        if live t k then t.lines <- List.remove_assoc k t.lines else evict_one t

  let fill t k line =
    t.fills <- t.fills + 1;
    if live t k then t.lines <- (k, line) :: List.remove_assoc k t.lines
    else begin
      if List.length t.lines >= t.nr_lines then evict_one t;
      if List.length t.order > 4 * t.nr_lines then t.order <- List.filter (live t) t.order;
      t.lines <- (k, line) :: t.lines;
      if not (List.mem k t.order) then t.order <- t.order @ [ k ]
    end

  let probe t k =
    match List.assoc_opt k t.lines with
    | Some line ->
        t.hits <- t.hits + 1;
        Some line
    | None -> None

  let invalidate t pfn = t.lines <- List.filter (fun ((p, _), _) -> p <> pfn) t.lines
  let frame_resident t pfn = List.exists (fun ((p, _), _) -> p = pfn) t.lines
  let order_live t = List.length (List.filter (live t) t.order)
end

(* After every op, every drawn block of every frame probes as in the
   model, so a line an invalidation left behind anywhere in the page
   shows. *)
let test_cache_matches_model =
  QCheck.Test.make ~name:"cache store = list-based FIFO-with-ghosts model" ~count:200
    QCheck.(
      triple (int_range 1 8) (palette_arb ())
        (list_of_size (Gen.int_range 1 300)
           (quad (int_bound 5) (int_bound 4) (int_bound 7) (int_bound 255))))
    (fun (nr_lines, palette, ops) ->
      let ledger = Cost.ledger () in
      let cache = Cache.create ~nr_lines ledger in
      let model = Cache_model.create nr_lines in
      let costs = Cost.default in
      let dst = Bytes.make (3 * Addr.block_size) '.' in
      let blocks = List.sort_uniq Int.compare palette in
      let probes_agree pfn block =
        let hit = Cache.probe_into cache pfn ~block ~dst ~dst_off:0 in
        match Cache_model.probe model (pfn, block) with
        | Some expected -> hit && Bytes.sub_string dst 0 Addr.block_size = expected
        | None -> not hit
      in
      List.for_all
        (fun (op, pfn, i, byte) ->
          let block = List.nth palette (i mod List.length palette) in
          let k = (pfn, block) in
          let line = String.init Addr.block_size (fun i -> Char.chr ((byte + i) land 0xff)) in
          let probe_ok =
            match op with
            | 0 | 1 ->
                Cache.fill cache pfn ~block (Bytes.of_string line);
                Cache_model.fill model k line;
                true
            | 2 ->
                (* [fill_from] reads the block out of a larger span. *)
                let span = Bytes.make (3 * Addr.block_size) '#' in
                Bytes.blit_string line 0 span (byte mod 33) Addr.block_size;
                Cache.fill_from cache pfn ~block span ~src_off:(byte mod 33);
                Cache_model.fill model k line;
                true
            | 3 | 4 -> (
                let off = byte mod (2 * Addr.block_size + 1) in
                Bytes.fill dst 0 (Bytes.length dst) '.';
                let hit = Cache.probe_into cache pfn ~block ~dst ~dst_off:off in
                match Cache_model.probe model k with
                | Some expected ->
                    hit && Bytes.sub_string dst off Addr.block_size = expected
                | None -> (not hit) && Bytes.for_all (fun c -> c = '.') dst)
            | _ ->
                Cache.invalidate_page cache pfn;
                Cache_model.invalidate model pfn;
                true
          in
          probe_ok
          && List.for_all (fun f -> List.for_all (probes_agree f) blocks) (List.init 5 Fun.id)
          && Cache.resident cache = List.length model.Cache_model.lines
          && Cache.order_live cache = Cache_model.order_live model
          && Cache.order_length cache = List.length model.Cache_model.order
          && List.for_all
               (fun f -> Cache.frame_resident cache f = Cache_model.frame_resident model f)
               (List.init 6 Fun.id)
          && Cost.category ledger "cache-fill" = model.Cache_model.fills * costs.Cost.cacheline_write
          && Cost.category ledger "cache-hit" = model.Cache_model.hits * costs.Cost.cache_hit)
        ops)

(* A steady-state miss fill that evicts allocates nothing: the store has
   grown to capacity, the evicted line's slot takes the new line, and the
   FIFO and table reuse their cells. *)
let test_cache_fill_allocation_free () =
  let cache = Cache.create ~nr_lines:4096 (Cost.ledger ()) in
  let span = Bytes.make (2 * Addr.block_size) 'c' in
  let k = ref 0 in
  let fill_next () =
    Cache.fill_from cache (1 + (!k / Addr.blocks_per_page)) ~block:(!k mod Addr.blocks_per_page)
      span ~src_off:Addr.block_size;
    incr k
  in
  for _ = 1 to 3 * 4096 do fill_next () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do fill_next () done;
  let words = (Gc.minor_words () -. w0) /. 10_000. in
  Alcotest.(check int) "full" 4096 (Cache.resident cache);
  Alcotest.(check (float 0.01)) "miss fill that evicts allocates nothing" 0.0 words

(* --- interned charge sites -------------------------------------------------- *)

(* The interned fast path must be observationally identical to the
   string-keyed ledger: same totals, same category rows, same scope
   attribution, for any interleaving of charges inside and outside
   scopes. *)
let test_ledger_interned_equivalence =
  QCheck.Test.make ~name:"charge_id = charge (string-keyed reference ledger)"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 0 100) (pair (int_bound 4) (int_bound 50)))
    (fun ops ->
      let labels = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon" |] in
      let ids = Array.map Cost.intern labels in
      let by_string = Cost.ledger () and by_id = Cost.ledger () in
      List.iteri
        (fun i (k, amt) ->
          if i mod 3 = 0 then begin
            Cost.with_scope by_string "s" (fun () -> Cost.charge by_string labels.(k) amt);
            Cost.with_scope by_id "s" (fun () -> Cost.charge_id by_id ids.(k) amt)
          end
          else begin
            Cost.charge by_string labels.(k) amt;
            Cost.charge_id by_id ids.(k) amt
          end)
        ops;
      Array.for_all (fun i -> Cost.id_label ids.(i) = labels.(i))
        [| 0; 1; 2; 3; 4 |]
      && Cost.total by_string = Cost.total by_id
      && Cost.categories by_string = Cost.categories by_id
      && Cost.scopes by_string = Cost.scopes by_id
      && Cost.scope_categories by_string "s" = Cost.scope_categories by_id "s")

let prop t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "hw"
    [ ( "addr",
        [ prop test_addr_roundtrip; Alcotest.test_case "constants" `Quick test_addr_constants ] );
      ( "cost",
        [ Alcotest.test_case "ledger" `Quick test_ledger;
          Alcotest.test_case "paper constants" `Quick test_cost_paper_constants;
          prop test_ledger_interned_equivalence ] );
      ( "physmem",
        [ Alcotest.test_case "rw" `Quick test_physmem_rw;
          Alcotest.test_case "bounds" `Quick test_physmem_bounds;
          Alcotest.test_case "bit flip" `Quick test_physmem_flip;
          Alcotest.test_case "dump is a copy" `Quick test_physmem_dump_is_copy;
          prop test_physmem_range_bounds;
          prop test_arena_reset_zeroes;
          prop test_reset_reads_zero;
          prop test_stamps_track_writes ] );
      ( "memctrl",
        [ Alcotest.test_case "plain" `Quick test_memctrl_plain;
          Alcotest.test_case "encrypted roundtrip" `Quick test_memctrl_encrypted_roundtrip;
          Alcotest.test_case "wrong key garbage" `Quick test_memctrl_wrong_key_garbage;
          Alcotest.test_case "uninstall" `Quick test_memctrl_uninstall;
          prop test_memctrl_partial_rmw;
          Alcotest.test_case "an access off its page raises" `Quick test_memctrl_range_guard;
          Alcotest.test_case "fw/slot agreement" `Quick test_memctrl_fw_matches_slot;
          Alcotest.test_case "cost charging" `Quick test_memctrl_charges;
          Alcotest.test_case "golden page digests" `Quick test_memctrl_golden ] );
      ("tlb", [ Alcotest.test_case "lookup/flush" `Quick test_tlb ]);
      ( "cache",
        [ Alcotest.test_case "fill/probe" `Quick test_cache_fill_probe;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "copies" `Quick test_cache_returns_copies;
          prop test_cache_fifo_invariants;
          prop test_cache_matches_model;
          Alcotest.test_case "fill allocates nothing" `Quick test_cache_fill_allocation_free ] );
      ( "pagetable",
        [ prop test_pt_roundtrip;
          Alcotest.test_case "clear" `Quick test_pt_clear;
          Alcotest.test_case "backing/reverse" `Quick test_pt_backing_and_reverse;
          prop test_pt_reverse_index_model;
          Alcotest.test_case "entries live in physmem" `Quick test_pt_lives_in_physmem ] );
      ( "cpu-vmcb",
        [ Alcotest.test_case "registers" `Quick test_cpu_regs;
          Alcotest.test_case "defaults" `Quick test_cpu_defaults;
          Alcotest.test_case "reg names" `Quick test_reg_names;
          Alcotest.test_case "exit reason codes" `Quick test_exit_reason_codes ] );
      ( "insn",
        [ Alcotest.test_case "registry/scrub" `Quick test_insn_registry;
          Alcotest.test_case "control-register encoders" `Quick test_insn_encoders;
          Alcotest.test_case "fetch check" `Quick test_insn_execute_fetch_check;
          Alcotest.test_case "inject" `Quick test_insn_inject ] );
      ( "machine",
        [ Alcotest.test_case "alloc scrub" `Quick test_machine_alloc_scrub;
          Alcotest.test_case "alloc unique" `Quick test_machine_alloc_unique;
          Alcotest.test_case "exhaustion" `Quick test_machine_exhaustion;
          prop test_machine_alloc_model;
          Alcotest.test_case "create ~mem builds no free list" `Quick
            test_machine_create_minor_words;
          Alcotest.test_case "dma/iommu" `Quick test_machine_dma_iommu ] );
      ( "mmu",
        [ Alcotest.test_case "host rw" `Quick test_mmu_rw;
          Alcotest.test_case "not present" `Quick test_mmu_not_present;
          Alcotest.test_case "WP semantics" `Quick test_mmu_wp_semantics;
          Alcotest.test_case "exec/NX" `Quick test_mmu_exec_nx;
          Alcotest.test_case "W^X detection" `Quick test_mmu_wx;
          Alcotest.test_case "set_pte mediation" `Quick test_mmu_set_pte_mediation;
          prop test_set_pte_run_matches_entry_stores;
          Alcotest.test_case "set_pte_run under an armed plan" `Quick test_set_pte_run_armed;
          Alcotest.test_case "set_pte_run after paging" `Quick test_set_pte_run_after_paging;
          Alcotest.test_case "guest selectors" `Quick test_guest_walk_selectors;
          Alcotest.test_case "SME priority" `Quick test_guest_sme_priority;
          Alcotest.test_case "guest encrypted rw" `Quick test_guest_rw_encrypted;
          Alcotest.test_case "NPT fault" `Quick test_guest_npt_fault;
          Alcotest.test_case "guest PT protections" `Quick test_guest_gpt_protections;
          Alcotest.test_case "cache leak channel" `Quick test_cache_leak_channel ] ) ]
