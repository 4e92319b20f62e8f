(* Live migration with attested secret injection: pre-copy convergence
   under a downtime budget, the pages-sent/downtime trade-off, the wire
   format's typed refusals, and — the load-bearing one — the firmware
   rollback ("Insecure Until Proven Updated") being refused with a typed
   error on both the Fidelius and the plain-SEV stack, with the owner's
   disk key provably never released. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Hv = Xen.Hypervisor
module Domain = Xen.Domain
module Rng = Fidelius_crypto.Rng
module Keywrap = Fidelius_crypto.Keywrap
module Site = Fidelius_inject.Site
module Plan = Fidelius_inject.Plan
module Migrate = Core.Migrate
module Attest = Core.Attest
module Migratebench = Fidelius_workloads.Migratebench

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let page c = Bytes.make Hw.Addr.page_size c

let installed ?(seed = 91L) () =
  let m = Hw.Machine.create ~seed () in
  let hv = Hv.boot m in
  let fid = Fid.install hv in
  (m, hv, fid)

let memory_pages = 16

let protected_vm fid name =
  let rng = Rng.create 92L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ page 'A'; page 'B'; page 'C' ]
  in
  ok (Fid.boot_protected_vm fid ~name ~memory_pages ~prepared)

let with_installed plan f =
  Plan.install plan;
  Fun.protect ~finally:Plan.uninstall f

(* Both hosts plus a running guest with a runtime secret beyond the kernel
   image, and a halving-working-set mutator for the pre-copy loop. *)
let live_pair () =
  let m1, hv1, fid1 = installed ~seed:91L () in
  let dom = protected_vm fid1 "traveller" in
  Hv.in_guest hv1 dom (fun () ->
      Domain.write m1 dom ~addr:0xC000 (Bytes.of_string "runtime state"));
  let m2, hv2, fid2 =
    let m = Hw.Machine.create ~seed:92L () in
    let hv = Hv.boot m in
    (m, hv, Fid.install hv)
  in
  let mutate round =
    let w = min (max 1 ((memory_pages / 2) lsr round)) (memory_pages - 1) in
    for p = 1 to w do
      Hv.in_guest hv1 dom (fun () ->
          Domain.write m1 dom ~addr:(Hw.Addr.addr_of p 0)
            (Bytes.of_string (Printf.sprintf "dirty r%d" round)))
    done
  in
  let owner = Migrate.Owner.create (Rng.create 93L) in
  (m1, hv1, fid1, dom, m2, hv2, fid2, mutate, owner)

(* --- live round trip ----------------------------------------------------- *)

let test_live_roundtrip () =
  let _, hv1, fid1, dom, m2, hv2, fid2, mutate, owner = live_pair () in
  let config = { Migrate.downtime_budget_us = 10. } in
  let dom', rep = ok (Result.map_error Migrate.error_to_string
    (Migrate.migrate_live ~config ~owner ~mutate ~src:fid1 ~dst:fid2 dom)) in
  Alcotest.(check bool) "several dirty rounds ran" true (rep.Migrate.rounds > 2);
  Alcotest.(check bool) "resends happened" true
    (rep.Migrate.pages_sent > memory_pages + 3);
  Alcotest.(check bool) "downtime within budget" true
    (rep.Migrate.downtime_us <= config.Migrate.downtime_budget_us);
  Alcotest.(check bool) "source destroyed" true (Hv.find_domain hv1 dom.Domain.domid = None);
  let b = Hv.in_guest hv2 dom' (fun () -> Domain.read m2 dom' ~addr:0xC000 ~len:13) in
  Alcotest.(check string) "runtime state survives" "runtime state" (Bytes.to_string b);
  let k = Hv.in_guest hv2 dom' (fun () -> Domain.read m2 dom' ~addr:0x2100 ~len:4) in
  Alcotest.(check string) "kernel survives" "CCCC" (Bytes.to_string k);
  Alcotest.(check bool) "secret released" true rep.Migrate.secret_released;
  Alcotest.(check int) "released exactly once" 1 (Migrate.Owner.release_count owner);
  Alcotest.(check bytes) "disk key delivered to the guest's kblk slot"
    (Migrate.Owner.disk_key owner)
    (Fid.kblk_of_guest fid2 dom')

let test_monotone_budget_tradeoff () =
  let run budget =
    let _, _, fid1, dom, _, _, fid2, mutate, owner = live_pair () in
    let config = { Migrate.downtime_budget_us = budget } in
    let _, rep = ok (Result.map_error Migrate.error_to_string
      (Migrate.migrate_live ~config ~owner ~mutate ~src:fid1 ~dst:fid2 dom)) in
    rep
  in
  let tight = run 2.5 and mid = run 10. and loose = run 40. in
  (* Tighter budget → more pre-copy rounds → more total pages on the wire,
     but less downtime. Strictly monotone for the halving working set. *)
  Alcotest.(check bool) "pages: tight > mid" true
    (tight.Migrate.pages_sent > mid.Migrate.pages_sent);
  Alcotest.(check bool) "pages: mid > loose" true
    (mid.Migrate.pages_sent > loose.Migrate.pages_sent);
  Alcotest.(check bool) "downtime: tight <= mid" true
    (tight.Migrate.downtime_us <= mid.Migrate.downtime_us);
  Alcotest.(check bool) "downtime: mid <= loose" true
    (mid.Migrate.downtime_us <= loose.Migrate.downtime_us)

(* --- ledger guard ---------------------------------------------------------- *)

(* One seed-fixed live migration there and back (A -> B -> A) of a 64-page
   protected guest, with dirty rounds and the attested key release on both
   legs, pins both hosts' whole ledger by category. A change that makes the
   migration path faster must leave every row exactly where it is. *)
let test_round_trip_ledger () =
  let m1, hv1, fid1 = installed ~seed:91L () in
  let m2, hv2, fid2 = installed ~seed:92L () in
  let prepared =
    Sev.Transport.Owner.prepare ~rng:(Rng.create 94L) ~platform_public:(Fid.platform_key fid1)
      ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:[ page 'A'; page 'B' ]
  in
  let dom = ok (Fid.boot_protected_vm fid1 ~name:"ledger" ~memory_pages:64 ~prepared) in
  let leg ~src_m ~src_hv ~src ~dst ~seed dom =
    let mutate round =
      for p = 1 to max 1 (16 lsr round) do
        Hv.in_guest src_hv dom (fun () ->
            Domain.write src_m dom ~addr:(Hw.Addr.addr_of (p * 3) 16)
              (Bytes.of_string (Printf.sprintf "leg %Ld round %d" seed round)))
      done
    in
    let owner = Migrate.Owner.create (Rng.create seed) in
    fst
      (ok
         (Result.map_error Migrate.error_to_string
            (Migrate.migrate_live ~owner ~mutate ~src ~dst dom)))
  in
  let there = leg ~src_m:m1 ~src_hv:hv1 ~src:fid1 ~dst:fid2 ~seed:95L dom in
  let back = leg ~src_m:m2 ~src_hv:hv2 ~src:fid2 ~dst:fid1 ~seed:96L there in
  Alcotest.(check string) "guest state survives the round trip" "leg 96 round 2"
    (Bytes.to_string
       (Hv.in_guest hv1 back (fun () -> Domain.read m1 back ~addr:(Hw.Addr.addr_of 3 16) ~len:14)));
  let ledger = Alcotest.(list (pair string int)) in
  Alcotest.check ledger "host A ledger"
    [ ("enc-engine", 9524400); ("dram", 3855040); ("tlb-flush", 1126144); ("sev-fw", 525000);
      ("gate1", 175032); ("pit", 138192); ("tlb-miss", 8960); ("pte-write", 8798);
      ("world-switch", 1600); ("insn-fetch", 1154); ("gate3", 678); ("shadow", 662);
      ("tlb-hit", 48); ("cache-fill", 2) ]
    (Hw.Cost.categories m1.Hw.Machine.ledger);
  Alcotest.check ledger "host B ledger"
    [ ("enc-engine", 9421960); ("dram", 3772960); ("tlb-flush", 1108736); ("sev-fw", 505000);
      ("gate1", 134640); ("pit", 120792); ("tlb-miss", 8720); ("pte-write", 8662);
      ("insn-fetch", 885); ("world-switch", 800); ("gate3", 339); ("shadow", 331);
      ("tlb-hit", 48); ("cache-fill", 1) ]
    (Hw.Cost.categories m2.Hw.Machine.ledger)

(* --- rollback refusal ---------------------------------------------------- *)

let test_rollback_refused_fidelius () =
  let _, hv1, fid1, dom, _, hv2, fid2, mutate, owner = live_pair () in
  with_installed
    (Plan.make ~seed:5L Site.Stale_firmware)
    (fun () ->
      match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Stale_firmware { got; minimum }) ->
          Alcotest.(check bool) "reported version is below the floor" true
            (Sev.Firmware.version_compare got minimum < 0)
      | Error e -> Alcotest.fail ("expected Stale_firmware, got " ^ Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "rolled-back platform was accepted");
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner);
  Alcotest.(check int) "release count is zero" 0 (Migrate.Owner.release_count owner);
  (* The cut-over was cancelled: the source keeps running, the target
     instance is gone. *)
  Alcotest.(check bool) "source still alive" true (Hv.find_domain hv1 dom.Domain.domid <> None);
  Alcotest.(check bool) "source resumed" true (dom.Domain.state = Domain.Runnable);
  Alcotest.(check bool) "target instance destroyed" true
    (Hv.find_domain hv2 1 = None || not (Fid.is_protected fid2 1))

let test_rollback_refused_plain_sev () =
  (* Stock SEV, no Fidelius layer: the hypervisor reloads a vulnerable
     blob, then quotes. The platform identity survives the downgrade, so
     the MAC is genuine — only the version policy check can refuse. *)
  let m = Hw.Machine.create ~seed:95L () in
  let hv = Hv.boot m in
  let fw = hv.Hv.fw in
  let owner = Migrate.Owner.create (Rng.create 96L) in
  Sev.Firmware.load_blob fw Sev.Firmware.vulnerable_version;
  let xen_measurement = Bytes.make 32 '\000' in
  let q = Attest.quote_fw fw ~xen_measurement ~nonce:17L () in
  (match
     Attest.verify
       ~attestation_key:(Sev.Firmware.attestation_key fw)
       ~expected_xen_measurement:xen_measurement ~nonce:17L q
   with
  | Error (Attest.Stale_firmware { got; minimum }) ->
      Alcotest.(check bool) "typed refusal names the downgrade" true
        (Sev.Firmware.version_compare got minimum < 0)
  | Error e -> Alcotest.fail ("expected Stale_firmware, got " ^ Attest.error_to_string e)
  | Ok () -> Alcotest.fail "rolled-back plain-SEV platform was accepted");
  (* The owner's release gate never opened. *)
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner)

let test_current_firmware_quote_accepted () =
  let m = Hw.Machine.create ~seed:97L () in
  let hv = Hv.boot m in
  let fw = hv.Hv.fw in
  let xen_measurement = Bytes.make 32 '\000' in
  let q = Attest.quote_fw fw ~xen_measurement ~nonce:18L () in
  Alcotest.(check bool) "current firmware verifies" true
    (Result.is_ok
       (Attest.verify
          ~attestation_key:(Sev.Firmware.attestation_key fw)
          ~expected_xen_measurement:xen_measurement ~nonce:18L q))

(* --- wire-format refusals ------------------------------------------------ *)

let test_unknown_wire_version () =
  let wrapped_keys = Keywrap.wrap ~kek:(Bytes.make 32 'k') (Bytes.make 48 's') in
  let frame =
    Migrate.Wire.encode
      (Migrate.Wire.Start
         { name = "v"; memory_pages = 4; policy = 0; nonce = 1L; wrapped_keys;
           origin_public = 2L })
  in
  Bytes.set_uint16_be frame 4 (Migrate.Wire.version + 1);
  (match Migrate.Wire.decode frame with
  | Error (Migrate.Unknown_version { got; expected }) ->
      Alcotest.(check int) "reports the foreign version" (Migrate.Wire.version + 1) got;
      Alcotest.(check int) "reports its own version" Migrate.Wire.version expected
  | Error e -> Alcotest.fail ("expected Unknown_version, got " ^ Migrate.error_to_string e)
  | Ok _ -> Alcotest.fail "foreign wire version was accepted")

let test_wire_roundtrip () =
  let wrapped_keys = Keywrap.wrap ~kek:(Bytes.make 32 'k') (Bytes.make 48 's') in
  let frame =
    Migrate.Wire.Start
      { name = "traveller"; memory_pages = 16; policy = 1; nonce = 99L; wrapped_keys;
        origin_public = 7L }
  in
  (match Migrate.Wire.decode (Migrate.Wire.encode frame) with
  | Ok (Migrate.Wire.Start s) ->
      Alcotest.(check string) "name" "traveller" s.name;
      Alcotest.(check int) "memory_pages" 16 s.memory_pages;
      Alcotest.(check int64) "nonce" 99L s.nonce
  | _ -> Alcotest.fail "START did not round-trip");
  let update =
    Migrate.Wire.Update
      { round = 3;
        pages = [ (Migrate.index_of ~round:3 ~gfn:5, page 'x'); (Migrate.index_of ~round:3 ~gfn:9, page 'y') ] }
  in
  match Migrate.Wire.decode (Migrate.Wire.encode update) with
  | Ok (Migrate.Wire.Update u) ->
      Alcotest.(check int) "round" 3 u.round;
      Alcotest.(check (list int)) "gfns derived from measured indices" [ 5; 9 ]
        (List.map (fun (i, _) -> Migrate.gfn_of_index i) u.pages)
  | _ -> Alcotest.fail "UPDATE did not round-trip"

(* The UPDATE encoder's bytes, pinned: the MD5 below was recorded from
   the Buffer-based encoder this one replaced. *)
let test_update_bytes_pinned () =
  let pages =
    List.init 16 (fun i ->
        ( Migrate.index_of ~round:3 ~gfn:(i * 3),
          Bytes.init Hw.Addr.page_size (fun j -> Char.chr ((i * 131 + j * 7) land 0xff)) ))
  in
  let b = Migrate.Wire.encode (Migrate.Wire.Update { round = 3; pages }) in
  Alcotest.(check int) "frame length" 65683 (Bytes.length b);
  Alcotest.(check string) "frame MD5" "f1ab24599af052d98cfe64b488118b53"
    (Digest.to_hex (Digest.bytes b))

(* Any UPDATE decodes back to itself. Page sizes are free here: the
   encoder does not check them, [rx_deliver] does. *)
let test_update_roundtrip =
  QCheck.Test.make ~name:"UPDATE decode (encode u) = u" ~count:200
    QCheck.(
      pair (int_bound 1000)
        (list_of_size (Gen.int_range 0 40) (pair (int_bound 0x7fff_ffff) (int_bound 5000))))
    (fun (round, recs) ->
      let pages =
        List.mapi
          (fun i (index, len) -> (index, Bytes.init len (fun j -> Char.chr ((i + j) land 0xff))))
          recs
      in
      match Migrate.Wire.decode (Migrate.Wire.encode (Migrate.Wire.Update { round; pages })) with
      | Ok (Migrate.Wire.Update u) ->
          u.round = round
          && List.length u.pages = List.length pages
          && List.for_all2
               (fun (i, c) (i', c') -> i = i' && Bytes.equal c c')
               pages u.pages
      | Ok _ | Error _ -> false)

let test_secret_before_attest_refused () =
  let _, _, fid1, dom, _, _, fid2, mutate, owner = live_pair () in
  with_installed
    (Plan.make ~seed:6L Site.Secret_before_attest)
    (fun () ->
      match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Protocol_violation _) -> ()
      | Error e ->
          Alcotest.fail ("expected Protocol_violation, got " ^ Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "secret-before-attest was accepted");
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner)

let test_round_truncate_rejected () =
  let _, _, fid1, dom, _, _, fid2, mutate, owner = live_pair () in
  with_installed
    (Plan.make ~seed:7L Site.Round_truncate)
    (fun () ->
      (* The frame is re-framed consistently after the drop, so no length
         check can notice — only the keyed measurement at RECEIVE_FINISH. *)
      match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Rejected _) -> ()
      | Error e -> Alcotest.fail ("expected Rejected, got " ^ Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "surgically truncated round was accepted");
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner)

let test_out_of_order_frame_refused () =
  let _, _, _fid1, _dom, _, _, fid2, _mutate, _owner = live_pair () in
  let rx = Migrate.rx_create fid2 in
  let update = Migrate.Wire.encode (Migrate.Wire.Update { round = 0; pages = [] }) in
  match Migrate.rx_deliver rx update with
  | Error (Migrate.Protocol_violation _) -> ()
  | Error e -> Alcotest.fail ("expected Protocol_violation, got " ^ Migrate.error_to_string e)
  | Ok _ -> Alcotest.fail "UPDATE before START was accepted"

(* A START wrapped for host 2 and handed to host 3 fails RECEIVE_START's
   key unwrap: the platform's verdict, so [Rejected]. *)
let test_wrong_target_refused () =
  let m1, hv1, fid1 = installed ~seed:91L () in
  let dom = protected_vm fid1 "traveller" in
  let _, _, fid2 = installed ~seed:92L () in
  let _, _, fid3 = installed ~seed:93L () in
  let nonce = Rng.next64 m1.Hw.Machine.rng in
  let wrapped_keys =
    ok
      (Sev.Firmware.send_start hv1.Hv.fw ~handle:(Option.get dom.Domain.sev_handle)
         ~target_public:(Fid.platform_key fid2) ~nonce)
  in
  let start =
    Migrate.Wire.Start
      { name = "traveller"; memory_pages; policy = Sev.Firmware.policy_nodbg; nonce;
        wrapped_keys; origin_public = Fid.platform_key fid1 }
  in
  match Migrate.rx_deliver (Migrate.rx_create fid3) (Migrate.Wire.encode start) with
  | Error (Migrate.Rejected _) -> ()
  | Error e -> Alcotest.fail ("expected Rejected, got " ^ Migrate.error_to_string e)
  | Ok _ -> Alcotest.fail "START for another platform was accepted"

(* --- hostile START sizes ------------------------------------------------- *)

let start_claiming n =
  let wrapped_keys = Keywrap.wrap ~kek:(Bytes.make 32 'k') (Bytes.make 48 's') in
  Migrate.Wire.encode
    (Migrate.Wire.Start
       { name = "huge"; memory_pages = n; policy = 0; nonce = 1L; wrapped_keys;
         origin_public = 2L })

(* A START is refused by size before the target allocates anything, so a
   relay cannot drain the host's memory with one frame. *)
let test_start_size_refused () =
  let m, _, fid = installed ~seed:94L () in
  let refused n expect =
    let free = Hw.Machine.frames_free m in
    let err =
      match Migrate.rx_deliver (Migrate.rx_create fid) (start_claiming n) with
      | Error e -> e
      | Ok _ -> Alcotest.failf "START claiming %d pages was accepted" n
    in
    Alcotest.(check bool)
      (Printf.sprintf "%d pages: typed refusal (%s)" n (Migrate.error_to_string err))
      true (expect err);
    Alcotest.(check int) (Printf.sprintf "%d pages: no frame taken" n) free
      (Hw.Machine.frames_free m)
  in
  let boot_failed = function Migrate.Boot_failed _ -> true | _ -> false in
  let malformed = function Migrate.Malformed _ -> true | _ -> false in
  refused 100_000 boot_failed;
  (* Exactly the free frames still leaves no room for the page tables. *)
  refused (Hw.Machine.frames_free m) boot_failed;
  refused (-1) malformed;
  refused ((1 lsl 20) + 1) malformed

(* --- retry after a failed migration -------------------------------------- *)

(* SEND_CANCEL on the failure path returns the source's firmware context to
   RUNNING, so the same guest can migrate again to the same target. *)
let test_retry_after_failure () =
  let _, hv1, fid1, dom, m2, hv2, fid2, mutate, owner = live_pair () in
  with_installed
    (Plan.make ~seed:3L Site.Snapshot_flip)
    (fun () ->
      match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Rejected _) -> ()
      | Error e -> Alcotest.fail ("expected Rejected, got " ^ Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "bit-flipped stream was accepted");
  Alcotest.(check bool) "source still alive" true (Hv.find_domain hv1 dom.Domain.domid <> None);
  Alcotest.(check bool) "source firmware back in RUNNING" true
    (Sev.Firmware.state_of hv1.Hv.fw ~handle:(Option.get dom.Domain.sev_handle)
     = Some Sev.State.Running);
  let dom', rep =
    ok
      (Result.map_error Migrate.error_to_string
         (Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom))
  in
  Alcotest.(check bool) "retry released the key" true rep.Migrate.secret_released;
  let b = Hv.in_guest hv2 dom' (fun () -> Domain.read m2 dom' ~addr:0xC000 ~len:13) in
  Alcotest.(check string) "runtime state arrives" "runtime state" (Bytes.to_string b)

(* A refusal on the source after START was delivered, from SEND_UPDATE or
   from SEND_FINISH, aborts the target's receive as well: the target keeps
   no domain, no RECEIVING context and no more frames than a refusal at
   RECEIVE_FINISH leaves it, and the source runs on and migrates again.
   Each refusal comes from a guest step that cancels the send: after
   round 0 with pages still dirty (a SEND_UPDATE follows), or with
   nothing written (the residual is empty, so SEND_FINISH follows). *)
let test_source_refusal_aborts_target () =
  let finish_refused_free =
    let _, _, fid1, dom, m2, _, fid2, mutate, owner = live_pair () in
    with_installed
      (Plan.make ~seed:7L Site.Round_truncate)
      (fun () ->
        match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
        | Error (Migrate.Rejected _) -> ()
        | Error e -> Alcotest.fail ("expected Rejected, got " ^ Migrate.error_to_string e)
        | Ok _ -> Alcotest.fail "surgically truncated round was accepted");
    Hw.Machine.frames_free m2
  in
  List.iter
    (fun (command, writes) ->
      let _, hv1, fid1, dom, m2, hv2, fid2, mutate, owner = live_pair () in
      let handle = Option.get dom.Domain.sev_handle in
      let cancelling round =
        if writes then mutate round;
        if round = 0 then ignore (Sev.Firmware.send_cancel hv1.Hv.fw ~handle)
      in
      (match Migrate.migrate_live ~owner ~mutate:cancelling ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Send_refused e) ->
          Alcotest.(check bool) (command ^ " refused it") true
            (String.starts_with ~prefix:command e)
      | Error e -> Alcotest.failf "%s: expected Send_refused, got %s" command (Migrate.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: a cancelled send completed" command);
      Alcotest.(check (list int)) (command ^ ": target runs dom0 alone") [ 0 ]
        (List.map (fun d -> d.Domain.domid) hv2.Hv.domains);
      Alcotest.(check bool) (command ^ ": no target context left RECEIVING") false
        (List.exists
           (fun h -> Sev.Firmware.state_of hv2.Hv.fw ~handle:h = Some Sev.State.Receiving)
           (List.init 16 Fun.id));
      Alcotest.(check int) (command ^ ": target frames as after a RECEIVE_FINISH refusal")
        finish_refused_free (Hw.Machine.frames_free m2);
      Alcotest.(check bool) (command ^ ": source still runs") true
        (Hv.find_domain hv1 dom.Domain.domid <> None && dom.Domain.state = Domain.Runnable);
      Alcotest.(check bool) (command ^ ": source firmware back in RUNNING") true
        (Sev.Firmware.state_of hv1.Hv.fw ~handle = Some Sev.State.Running);
      let dom', _ =
        ok
          (Result.map_error Migrate.error_to_string
             (Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom))
      in
      Alcotest.(check bool) (command ^ ": the retry migrates") true
        (Fid.is_protected fid2 dom'.Domain.domid))
    [ ("SEND_UPDATE", true); ("SEND_FINISH", false) ]

(* --- allocation budget --------------------------------------------------- *)

(* Each page crosses in one buffer, the UPDATE frame: SEND_UPDATE writes
   its ciphertext into the frame and the receiver loads it from there. So
   what a seed-fixed live migration allocates straight on the major heap
   ([Gc.counters] major less promoted; pages are too large for the minor
   heap) is its frames' own words plus a small fixed slack: the target's
   staging page and the odd table. A second migration is measured, so
   one-off set-up is out of the count. *)
let test_major_words_bounded () =
  let migrate () =
    let _, _, fid1, dom, _, _, fid2, mutate, owner = live_pair () in
    let _, promoted0, major0 = Gc.counters () in
    let _, rep =
      ok
        (Result.map_error Migrate.error_to_string
           (Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom))
    in
    let _, promoted1, major1 = Gc.counters () in
    (rep, Float.to_int (major1 -. major0 -. (promoted1 -. promoted0)))
  in
  ignore (migrate ());
  let rep, direct = migrate () in
  let word = Sys.word_size / 8 in
  (* A frame is its 11-byte header, round and count, and 8 bytes plus one
     page per record, rounded up to words, with one header word. *)
  let frame_bytes = (rep.Migrate.rounds * (11 + 8)) + (rep.Migrate.pages_sent * (8 + Hw.Addr.page_size)) in
  let frame_words = (frame_bytes / word) + (2 * rep.Migrate.rounds) in
  let slack = 2 * Hw.Addr.page_size / word in
  Alcotest.(check bool)
    (Printf.sprintf "%d direct major words within %d frame words + %d" direct frame_words slack)
    true
    (direct <= frame_words + slack)

(* --- receive-path totality ----------------------------------------------- *)

(* The frames of a real 16-page migration from the stock SEND_* sequence:
   START, round 0 with every page, an empty residual round, FINISH. They
   target a host that every property case reuses. *)
let real_stream =
  lazy
    (let m1, hv1, fid1 = installed ~seed:91L () in
     let dom = protected_vm fid1 "traveller" in
     Hv.in_guest hv1 dom (fun () ->
         Domain.write m1 dom ~addr:0xC000 (Bytes.of_string "runtime state"));
     let _, _, fid2 = installed ~seed:92L () in
     let fw = hv1.Hv.fw and handle = Option.get dom.Domain.sev_handle in
     let nonce = Rng.next64 m1.Hw.Machine.rng in
     let wrapped_keys =
       ok (Sev.Firmware.send_start fw ~handle ~target_public:(Fid.platform_key fid2) ~nonce)
     in
     let pages =
       List.sort compare (Hw.Pagetable.mapped_frames dom.Domain.npt)
       |> List.map (fun (gfn, (npte : Hw.Pagetable.proto)) ->
              let index = Migrate.index_of ~round:0 ~gfn in
              let src_pfn = npte.Hw.Pagetable.frame in
              (index, ok (Sev.Firmware.send_update fw ~handle ~index ~src_pfn)))
     in
     let measurement = ok (Sev.Firmware.send_finish fw ~handle) in
     let frames =
       [ Migrate.Wire.Start
           { name = "traveller"; memory_pages; policy = Sev.Firmware.policy_nodbg; nonce;
             wrapped_keys; origin_public = Fid.platform_key fid1 };
         Migrate.Wire.Update { round = 0; pages };
         Migrate.Wire.Update { round = 1; pages = [] };
         Migrate.Wire.Finish
           { measurement; gpt_entries = Hw.Pagetable.mapped_frames dom.Domain.gpt } ]
     in
     (fid2, List.map Migrate.Wire.encode frames))

(* Deliver [frames] to a fresh receiver on [fid]; tear down whatever guest
   it produced. *)
let deliver_all fid frames =
  let rx = Migrate.rx_create fid in
  let results = List.map (Migrate.rx_deliver rx) frames in
  Option.iter (Fid.shutdown_protected_vm fid) (Migrate.rx_domain rx);
  results

(* The real stream with its FINISH frame replaced. *)
let with_finish frames finish = List.mapi (fun i f -> if i = 3 then finish else f) frames

(* Offsets of the u32 fields a relay would aim at, from the frame's own
   decoding: START's memory_pages, the UPDATE count and each record's index
   and length, the FINISH entry count and each entry's gvfn and frame. *)
let u32_fields frame =
  let h = 4 + 2 + 1 + 4 (* magic, version, tag, payload length *) in
  match Migrate.Wire.decode frame with
  | Ok (Migrate.Wire.Start { name; _ }) -> [ h + 2 + String.length name ]
  | Ok (Migrate.Wire.Update { pages; _ }) ->
      let record i = h + 8 + (i * (8 + Hw.Addr.page_size)) in
      (h + 4) :: List.concat (List.mapi (fun i _ -> [ record i; record i + 4 ]) pages)
  | Ok (Migrate.Wire.Finish { measurement; gpt_entries }) ->
      let c = h + 2 + Bytes.length measurement in
      c :: List.concat (List.mapi (fun i _ -> [ c + 4 + (9 * i); c + 8 + (9 * i) ]) gpt_entries)
  | _ -> []

(* Page-table entries index the guest page table directly: a gvfn or gfn
   outside the transport's gfn range is refused before anything is
   written. *)
let test_finish_entry_range_refused () =
  let fid, frames = Lazy.force real_stream in
  let finish = List.nth frames 3 in
  let gvfn, gfn =
    match u32_fields finish with _count :: gvfn :: gfn :: _ -> (gvfn, gfn) | _ -> assert false
  in
  List.iter
    (fun (what, off, v) ->
      let bad = Bytes.copy finish in
      Bytes.set_int32_be bad off v;
      match List.rev (deliver_all fid (with_finish frames bad)) with
      | Error (Migrate.Malformed _) :: _ -> ()
      | Error e :: _ ->
          Alcotest.failf "%s: expected Malformed, got %s" what (Migrate.error_to_string e)
      | _ -> Alcotest.failf "%s: FINISH accepted" what)
    [ ("negative gvfn", gvfn, -1l); ("gfn past 2^20", gfn, Int32.of_int (1 lsl 20)) ]

(* Near the boundary a START either fits or is refused whole: on a host
   with exactly [k] free frames the real 16-page stream is accepted, or its
   START is refused as [Boot_failed] with no frame taken; with room to
   spare it is accepted. *)
let test_tight_host () =
  let _, frames = Lazy.force real_stream in
  List.iter
    (fun k ->
      let m, _, fid = installed ~seed:92L () in
      ignore (Hw.Machine.alloc_frames m (Hw.Machine.frames_free m - k));
      match deliver_all fid frames with
      | exception e -> Alcotest.failf "%d free frames: raised %s" k (Printexc.to_string e)
      | Error (Migrate.Boot_failed _) :: _ when k < 40 ->
          Alcotest.(check int) (Printf.sprintf "%d free frames: none taken" k) k
            (Hw.Machine.frames_free m)
      | results ->
          List.iter
            (function
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%d free frames: %s" k (Migrate.error_to_string e))
            results)
    [ 0; 16; 19; 20; 24; 27; 28; 29; 40 ]

(* FINISH's page-table entries are restored after the guest boots; entries
   scattered over more page-table pages than the host has free frames are
   refused instead of exhausting it. *)
let test_finish_entries_exhaust_refused () =
  let _, frames = Lazy.force real_stream in
  let m, _, fid = installed ~seed:92L () in
  (* Room for the 16-page guest, then about ten frames to spare. *)
  ignore (Hw.Machine.alloc_frames m (Hw.Machine.frames_free m - 30));
  let finish = Bytes.copy (List.nth frames 3) in
  (* Entry i moves to gvfn 512 * (i + 2): one page-table page each. *)
  List.tl (u32_fields finish)
  |> List.filteri (fun i _ -> i mod 2 = 0)
  |> List.iteri (fun i gvfn -> Bytes.set_int32_be finish gvfn (Int32.of_int (512 * (i + 2))));
  match List.rev (deliver_all fid (with_finish frames finish)) with
  | Error (Migrate.Boot_failed _) :: _ -> ()
  | Error e :: _ -> Alcotest.failf "expected Boot_failed, got %s" (Migrate.error_to_string e)
  | _ -> Alcotest.fail "FINISH accepted"
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

type mutation =
  | Flip of int * int  (** frame, bit *)
  | Cut of int * int  (** frame, bytes kept *)
  | Set_u32 of int * int * int32
      (** frame, field (three in four pick a {!u32_fields} offset, the rest
          any offset), value *)
  | Update_bound of int * int * int32
      (** UPDATE frame (1: round 0, 2: the empty residual), field (its
          payload length, its record count or a record's length), value
          near a bound *)
  | Update_gfn of int * int
      (** round 0's record, gfn its index names (at or around the guest's
          last page) *)
  | Short_payload of int * int
      (** UPDATE frame, bytes its payload length falls short of the
          frame's own (1 to 9), so the last record runs past the payload
          that is declared *)

let pp_mutation = function
  | Flip (f, bit) -> Printf.sprintf "flip frame %d bit %d" f bit
  | Cut (f, keep) -> Printf.sprintf "cut frame %d to %d bytes" f keep
  | Set_u32 (f, field, v) -> Printf.sprintf "set frame %d u32 field %d to %ld" f field v
  | Update_bound (f, field, v) -> Printf.sprintf "set UPDATE frame %d bound %d to %ld" f field v
  | Update_gfn (r, gfn) -> Printf.sprintf "point round 0 record %d at gfn %d" r gfn
  | Short_payload (f, k) -> Printf.sprintf "declare UPDATE frame %d's payload %d bytes short" f k

(* Counts and lengths at and around their bounds: empty, one page and its
   neighbours, the largest and smallest u32, negatives, and lengths whose
   sum with any record offset wraps a 32-bit position. *)
let bounds =
  [ 0l; 1l; -1l; -8l; -4096l; 16l; 17l; 4095l; 4096l; 4097l; 100_000l;
    Int32.of_int (1 lsl 20); Int32.of_int ((1 lsl 20) + 1); Int32.max_int; Int32.min_int;
    Int32.sub Int32.max_int 7l; Int32.sub Int32.max_int 4103l; Int32.add Int32.min_int 8l ]

(* Gfns at the guest's last page, at its size and just past it, and the
   largest a transport index can name. *)
let gfns = [ memory_pages - 1; memory_pages; memory_pages + 1; (1 lsl 20) - 1 ]

let gen_mutation =
  let open QCheck.Gen in
  let value = frequency [ (1, oneofl bounds); (1, map Int32.of_int int) ] in
  let frame = int_bound 3 and pos = int_bound 0x3FFF_FFFF in
  frequency
    [ (1, map2 (fun f b -> Flip (f, b)) frame pos);
      (1, map2 (fun f k -> Cut (f, k)) frame pos);
      (3, map3 (fun f i v -> Set_u32 (f, i, v)) frame pos value);
      (2, map3 (fun f i v -> Update_bound (f, i, v)) (int_range 1 2) pos (oneofl bounds));
      (1, map2 (fun r gfn -> Update_gfn (r, gfn)) (int_bound (memory_pages - 1)) (oneofl gfns));
      (1, map2 (fun f k -> Short_payload (f, k)) (int_range 1 2) (int_range 1 9)) ]

(* An UPDATE frame's payload length, record count and record lengths,
   from its own decoding. *)
let update_bound_fields frame =
  let h = 4 + 2 + 1 + 4 in
  match Migrate.Wire.decode frame with
  | Ok (Migrate.Wire.Update { pages; _ }) ->
      7 :: (h + 4) :: List.mapi (fun i _ -> h + 8 + (i * (8 + Hw.Addr.page_size)) + 4) pages
  | _ -> [ 7; h + 4 ]

let apply frames m =
  List.mapi
    (fun i b ->
      match m with
      | Flip (f, bit) when f = i && Bytes.length b > 0 ->
          let b = Bytes.copy b in
          let bit = bit mod (Bytes.length b * 8) in
          Bytes.set_uint8 b (bit / 8) (Bytes.get_uint8 b (bit / 8) lxor (1 lsl (bit mod 8)));
          b
      | Cut (f, keep) when f = i && Bytes.length b > 0 -> Bytes.sub b 0 (keep mod Bytes.length b)
      | Set_u32 (f, field, v) when f = i && Bytes.length b >= 4 ->
          let b = Bytes.copy b in
          let named = u32_fields b in
          let off =
            if named <> [] && field mod 4 <> 0 then
              List.nth named (field / 4 mod List.length named)
            else field mod (Bytes.length b - 3)
          in
          Bytes.set_int32_be b off v;
          b
      | Update_bound (f, field, v) when f = i && Bytes.length b >= 15 ->
          let b = Bytes.copy b in
          (* A cut frame no longer decodes, and its record count may lie
             past its end. *)
          let fields = List.filter (fun off -> off + 4 <= Bytes.length b) (update_bound_fields b) in
          Bytes.set_int32_be b (List.nth fields (field mod List.length fields)) v;
          b
      | Update_gfn (r, gfn) when i = 1 -> (
          match (Migrate.Wire.decode b, u32_fields b) with
          | Ok (Migrate.Wire.Update { round; pages }), _ :: fields when r < List.length pages ->
              let b = Bytes.copy b in
              Bytes.set_int32_be b (List.nth fields (2 * r))
                (Int32.of_int (Migrate.index_of ~round ~gfn));
              b
          | _ -> b)
      | Short_payload (f, k) when f = i && Bytes.length b >= 11 ->
          let b = Bytes.copy b in
          Bytes.set_int32_be b 7 (Int32.sub (Bytes.get_int32_be b 7) (Int32.of_int k));
          b
      | _ -> b)
    frames

(* A round whose last record is one byte short of a page still decodes
   (the byte left over is ignored), so only the receiver's page check
   refuses it, and it does so before the first page is loaded. *)
let test_short_last_page_refused () =
  let fid, frames = Lazy.force real_stream in
  let update = Bytes.copy (List.nth frames 1) in
  let last_len = List.hd (List.rev (update_bound_fields update)) in
  Bytes.set_int32_be update last_len 4095l;
  (match Migrate.Wire.decode update with
  | Ok (Migrate.Wire.Update { pages; _ }) ->
      Alcotest.(check int) "last page is short" 4095 (Bytes.length (snd (List.nth pages 15)))
  | _ -> Alcotest.fail "the frame no longer decodes");
  let frames = List.mapi (fun i f -> if i = 1 then update else f) frames in
  let results, events =
    Fidelius_obs.Trace.capture (fun () -> deliver_all fid frames)
  in
  (match List.nth results 1 with
  | Error (Migrate.Malformed _) -> ()
  | Error e -> Alcotest.failf "expected Malformed, got %s" (Migrate.error_to_string e)
  | Ok _ -> Alcotest.fail "a short page was accepted");
  Alcotest.(check int) "no RECEIVE_UPDATE issued" 0
    (List.length
       (List.filter
          (fun e -> e.Fidelius_obs.Trace.event = Fidelius_obs.Trace.Fw_cmd "RECEIVE_UPDATE")
          events))

(* A round whose 6th record names gfn 100,000 of a 16-page guest is
   refused like a short page: by the receiver's check of every record,
   before the first page is loaded, so no RECEIVE_UPDATE is issued and
   the host is charged what the short page's refusal costs it. *)
let test_out_of_range_gfn_refused () =
  let fid, frames = Lazy.force real_stream in
  let update = Bytes.copy (List.nth frames 1) in
  let sixth_index = List.nth (u32_fields update) (1 + (2 * 5)) in
  Bytes.set_int32_be update sixth_index 100_000l;
  (match Migrate.Wire.decode update with
  | Ok (Migrate.Wire.Update { pages; _ }) ->
      Alcotest.(check int) "6th record names gfn 100,000" 100_000
        (Migrate.gfn_of_index (fst (List.nth pages 5)))
  | _ -> Alcotest.fail "the frame no longer decodes");
  let ledger = fid.Core.Ctx.machine.Hw.Machine.ledger in
  let deliver frames =
    let before = Hw.Cost.total ledger in
    let results, events = Fidelius_obs.Trace.capture (fun () -> deliver_all fid frames) in
    (List.nth results 1, events, Hw.Cost.total ledger - before)
  in
  let r, events, charged = deliver (List.mapi (fun i f -> if i = 1 then update else f) frames) in
  (match r with
  | Error (Migrate.Malformed _) -> ()
  | Error e -> Alcotest.failf "expected Malformed, got %s" (Migrate.error_to_string e)
  | Ok _ -> Alcotest.fail "a gfn past the guest was accepted");
  Alcotest.(check int) "no RECEIVE_UPDATE issued" 0
    (List.length
       (List.filter
          (fun e -> e.Fidelius_obs.Trace.event = Fidelius_obs.Trace.Fw_cmd "RECEIVE_UPDATE")
          events));
  let short = Bytes.copy (List.nth frames 1) in
  Bytes.set_int32_be short (List.hd (List.rev (update_bound_fields short))) 4095l;
  let _, _, short_charged = deliver (List.mapi (fun i f -> if i = 1 then short else f) frames) in
  Alcotest.(check int) "charged as the short page's refusal" short_charged charged

(* A reference reader for UPDATE frames, written apart from [Migrate.Wire]
   so the receiver's one in-place walk has an independent oracle: the
   header checks, a copy of the payload and of each record out of it,
   then the receiver's two record checks in order. Yields the framing
   error, or the round, the records and the first record refusal. *)
let reference_update ~memory_pages b =
  let h = 4 + 2 + 1 + 4 in
  if Bytes.length b < h then Error (Migrate.Malformed "frame shorter than header")
  else if Bytes.sub_string b 0 4 <> "FIDM" then Error (Migrate.Malformed "bad magic")
  else if Bytes.get_uint16_be b 4 <> Migrate.Wire.version then
    Error (Migrate.Unknown_version { got = Bytes.get_uint16_be b 4; expected = Migrate.Wire.version })
  else
    let plen = Int32.to_int (Bytes.get_int32_be b 7) in
    let avail = Bytes.length b - h in
    if plen < 0 then Error (Migrate.Malformed "negative payload length")
    else if avail < plen then Error (Migrate.Truncated { expected = plen; got = avail })
    else
      let p = Bytes.sub b h plen in
      let pos = ref 0 in
      let exception Short in
      let need n = if n < 0 || !pos + n > plen then raise Short in
      let u32 () =
        need 4;
        let v = Int32.to_int (Bytes.get_int32_be p !pos) in
        pos := !pos + 4;
        v
      in
      let raw n =
        need n;
        let v = Bytes.sub p !pos n in
        pos := !pos + n;
        v
      in
      let rec records n acc =
        if n = 0 then List.rev acc
        else
          let index = u32 () in
          let len = u32 () in
          records (n - 1) ((index, raw len) :: acc)
      in
      let rec refusal = function
        | [] -> None
        | (index, c) :: rest ->
            if Bytes.length c <> Hw.Addr.page_size then
              Some
                (Printf.sprintf "page at index 0x%x is %d bytes, want %d" index (Bytes.length c)
                   Hw.Addr.page_size)
            else if Migrate.gfn_of_index index >= memory_pages then
              Some
                (Printf.sprintf "page at index 0x%x names gfn 0x%x, past the guest's %d pages"
                   index (Migrate.gfn_of_index index) memory_pages)
            else refusal rest
      in
      match
        let round = u32 () in
        let count = u32 () in
        if count < 0 || count > plen then Error (Migrate.Malformed "UPDATE: absurd page count")
        else Ok (round, records count [])
      with
      | exception Short -> Error (Migrate.Malformed "payload overruns its declared length")
      | Error e -> Error e
      | Ok (round, pages) -> Ok (round, pages, refusal pages)

(* Room for every event of one delivery: a START may claim thousands of
   pages, and refusing a later frame tears that domain down. *)
let rx_ring = lazy (Fidelius_obs.Trace.ring ~capacity:(1 lsl 17) ())

(* Whatever a relay does to the frames, [rx_deliver] returns. On every
   frame that still carries the UPDATE tag it agrees with the reference
   reader above: a frame the reference refuses is refused with the same
   error; one with a page that is not one page, or a record naming a gfn
   past the START's guest, is refused by its state, its round, or that
   record with the reference's words; any other is refused, if at all,
   by the receive state machine or a failed load, never by its framing.
   A frame refused before loading issues no RECEIVE_UPDATE. *)
let test_rx_deliver_total =
  QCheck.Test.make ~name:"rx_deliver is total over a mutated real stream" ~count:300
    (QCheck.make
       ~print:(fun ms -> String.concat "; " (List.map pp_mutation ms))
       QCheck.Gen.(list_size (frequency [ (3, return 1); (1, return 2) ]) gen_mutation))
    (fun ms ->
      let fid, frames = Lazy.force real_stream in
      let frames = List.fold_left apply frames ms in
      let guest_pages =
        match Migrate.Wire.decode (List.hd frames) with
        | Ok (Migrate.Wire.Start { memory_pages; _ }) -> memory_pages
        | _ -> max_int
      in
      let rx = Migrate.rx_create fid in
      let ring = Lazy.force rx_ring in
      let classify i b =
        let r =
          match Fidelius_obs.Trace.record_into ring (fun () -> Migrate.rx_deliver rx b) with
          | r -> r
          | exception e ->
              QCheck.Test.fail_reportf "frame %d: rx_deliver raised %s" i (Printexc.to_string e)
        in
        let updates = ref 0 in
        Fidelius_obs.Trace.ring_iter ring (fun e ->
            match e.Fidelius_obs.Trace.event with
            | Fidelius_obs.Trace.Fw_cmd "RECEIVE_UPDATE" -> incr updates
            | _ -> ());
        if Fidelius_obs.Trace.ring_dropped ring > 0 then
          QCheck.Test.fail_reportf "frame %d: trace ring overflowed" i;
        if Bytes.length b > 6 && Bytes.get_uint8 b 6 = 2 then begin
          match (reference_update ~memory_pages:guest_pages b, r) with
          | Error d, Error e when d = e -> ()
          | Error d, _ ->
              QCheck.Test.fail_reportf "frame %d: the reference refused (%s), rx_deliver did not"
                i (Migrate.error_to_string d)
          | Ok (_, _, Some why), Error (Migrate.Malformed m) when m = why -> ()
          | Ok (_, _, Some _), Error (Migrate.Protocol_violation _) -> ()
          | Ok (_, _, Some why), _ ->
              QCheck.Test.fail_reportf "frame %d: the reference refused a record (%s); rx_deliver: %s"
                i why
                (match r with Ok _ -> "accepted" | Error e -> Migrate.error_to_string e)
          | Ok _, Error ((Migrate.Truncated _ | Migrate.Unknown_version _ | Migrate.Malformed _) as e)
            ->
              QCheck.Test.fail_reportf "frame %d: the reference accepted, rx_deliver refused: %s" i
                (Migrate.error_to_string e)
          | Ok _, _ -> ()
        end;
        match r with
        | Error (Migrate.Boot_failed _) | Ok _ -> ()
        | Error e ->
            if !updates > 0 then
              QCheck.Test.fail_reportf "frame %d refused (%s) after %d RECEIVE_UPDATEs" i
                (Migrate.error_to_string e) !updates
      in
      List.iteri classify frames;
      Option.iter (Fid.shutdown_protected_vm fid) (Migrate.rx_domain rx);
      true)

(* --- fleet determinism --------------------------------------------------- *)

let test_fleet_determinism () =
  let csv domains = Migratebench.csv (Migratebench.run ~domains ~vms:4 ~budget_us:10. ()) in
  Alcotest.(check string) "d1 and d2 byte-identical" (csv 1) (csv 2)

let test_fleet_keys_delivered () =
  let t = Migratebench.run ~domains:2 ~vms:4 ~budget_us:10. () in
  Alcotest.(check bool) "every migration delivered its disk key" true
    (Migratebench.all_keys_delivered t)

let () =
  Alcotest.run "migrate"
    [ ( "live",
        [ Alcotest.test_case "round trip with dirty rounds" `Quick test_live_roundtrip;
          Alcotest.test_case "pages-vs-downtime monotone" `Quick test_monotone_budget_tradeoff;
          Alcotest.test_case "A->B->A ledger by category" `Quick test_round_trip_ledger
        ] );
      ( "rollback",
        [ Alcotest.test_case "fidelius refusal, key withheld" `Quick
            test_rollback_refused_fidelius;
          Alcotest.test_case "plain-SEV refusal, key withheld" `Quick
            test_rollback_refused_plain_sev;
          Alcotest.test_case "current firmware accepted" `Quick
            test_current_firmware_quote_accepted
        ] );
      ( "wire",
        [ Alcotest.test_case "unknown version refused" `Quick test_unknown_wire_version;
          Alcotest.test_case "frame round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "UPDATE bytes pinned" `Quick test_update_bytes_pinned;
          QCheck_alcotest.to_alcotest test_update_roundtrip;
          Alcotest.test_case "secret before attest refused" `Quick
            test_secret_before_attest_refused;
          Alcotest.test_case "surgical round truncation rejected" `Quick
            test_round_truncate_rejected;
          Alcotest.test_case "out-of-order frame refused" `Quick
            test_out_of_order_frame_refused;
          Alcotest.test_case "wrong target refused" `Quick test_wrong_target_refused;
          Alcotest.test_case "oversized START refused, no frame taken" `Quick
            test_start_size_refused;
          Alcotest.test_case "START on a nearly full host fits or is refused whole" `Quick
            test_tight_host;
          Alcotest.test_case "FINISH entry outside the gfn range refused" `Quick
            test_finish_entry_range_refused;
          Alcotest.test_case "FINISH entries beyond the free frames refused" `Quick
            test_finish_entries_exhaust_refused;
          Alcotest.test_case "short last page refused before loading" `Quick
            test_short_last_page_refused;
          Alcotest.test_case "gfn past the guest refused before loading" `Quick
            test_out_of_range_gfn_refused;
          QCheck_alcotest.to_alcotest test_rx_deliver_total
        ] );
      ( "retry",
        [ Alcotest.test_case "clean retry after a failed migration" `Quick
            test_retry_after_failure;
          Alcotest.test_case "source refusal mid-stream aborts the target" `Quick
            test_source_refusal_aborts_target
        ] );
      ( "alloc",
        [ Alcotest.test_case "major words: the UPDATE frames and a fixed slack" `Quick
            test_major_words_bounded
        ] );
      ( "fleet",
        [ Alcotest.test_case "deterministic at any domain count" `Quick
            test_fleet_determinism;
          Alcotest.test_case "all keys delivered" `Quick test_fleet_keys_delivered
        ] )
    ]
