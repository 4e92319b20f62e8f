(* Tests for the SEV firmware state machine, transport format and the
   owner-side tooling. *)

module Hw = Fidelius_hw
module Sev = Fidelius_sev
module State = Sev.State
module Firmware = Sev.Firmware
module Transport = Sev.Transport
module Measure = Sev.Measure
module Rng = Fidelius_crypto.Rng
module Dh = Fidelius_crypto.Dh
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

let env () =
  let m = Hw.Machine.create ~nr_frames:256 ~seed:21L () in
  let fw = Firmware.create m in
  (match Firmware.init fw with Ok () -> () | Error e -> failwith e);
  (m, fw)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let page c = Bytes.make Hw.Addr.page_size c

(* --- state machine ------------------------------------------------------- *)

let test_state_transitions () =
  let open State in
  let legal = [ (Uninit, Launching); (Launching, Running); (Running, Sending);
                (Sending, Sent); (Uninit, Receiving); (Receiving, Running);
                (Sending, Running); (Sent, Running) (* SEND_CANCEL *);
                (Uninit, Running) (* LAUNCH(shared)'s helper *) ] in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s legal" (to_string a) (to_string b))
        true (can_transition a b))
    legal;
  let illegal = [ (Running, Launching); (Sent, Sending); (Launching, Sending);
                  (Receiving, Sending); (Decommissioned, Running) ] in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s illegal" (to_string a) (to_string b))
        false (can_transition a b))
    illegal;
  Alcotest.(check bool) "anything can decommission" true
    (can_transition Running Decommissioned && can_transition Sending Decommissioned)

(* One launched guest and one received context through every row of the
   state table: after each command, the firmware reports the state the
   row says the command leaves. *)
let test_every_row () =
  let m1, fw1 = env () in
  let m2 = Hw.Machine.create ~nr_frames:256 ~seed:22L () in
  let fw2 = Firmware.create m2 in
  ok (Firmware.init fw2);
  let seen = ref [] in
  let after fw cmd handle =
    seen := cmd :: !seen;
    Alcotest.(check (option string)) cmd
      (Some (State.to_string (State.leaves cmd)))
      (Option.map State.to_string (Firmware.state_of fw ~handle))
  in
  let h = ok (Firmware.launch_start fw1 ~policy:0) in
  after fw1 "LAUNCH_START" h;
  let pfn = Hw.Machine.alloc_frame m1 in
  Hw.Physmem.write_raw m1.Hw.Machine.mem pfn ~off:0 (page 'R');
  ok (Firmware.launch_update fw1 ~handle:h ~pfn);
  after fw1 "LAUNCH_UPDATE" h;
  ignore (ok (Firmware.launch_finish fw1 ~handle:h));
  after fw1 "LAUNCH_FINISH" h;
  let helper = ok (Firmware.launch_shared fw1 ~handle:h) in
  after fw1 "LAUNCH(shared)" helper;
  let gek = ok (Firmware.setenc_gek fw1 ~handle:h) in
  after fw1 "SETENC_GEK" h;
  let c = ok (Firmware.enc_range fw1 ~handle:h ~gek ~nonce:1L ~src_pfn:pfn ~len:64) in
  after fw1 "ENC" h;
  ok (Firmware.dec_range fw1 ~handle:h ~gek ~nonce:1L ~cipher:c ~dst_pfn:pfn);
  after fw1 "DEC" h;
  let wrapped =
    ok (Firmware.send_start fw1 ~handle:h ~target_public:(Firmware.platform_public fw2) ~nonce:9L)
  in
  after fw1 "SEND_START" h;
  let cipher = ok (Firmware.send_update fw1 ~handle:h ~index:0 ~src_pfn:pfn) in
  after fw1 "SEND_UPDATE" h;
  let io = ok (Firmware.send_update_io fw1 ~handle:h ~nonce:2L ~src_pfn:pfn ~len:64) in
  after fw1 "SEND_UPDATE(io)" h;
  let measurement = ok (Firmware.send_finish fw1 ~handle:h) in
  after fw1 "SEND_FINISH" h;
  let r =
    ok (Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
          ~nonce:9L ~policy:0 ())
  in
  after fw2 "RECEIVE_START" r;
  let dst = Hw.Machine.alloc_frame m2 in
  ok (Firmware.receive_update fw2 ~handle:r ~index:0 ~cipher ~dst_pfn:dst);
  after fw2 "RECEIVE_UPDATE" r;
  ok (Firmware.receive_update_io fw2 ~handle:r ~nonce:2L ~cipher:io ~dst_pfn:dst);
  after fw2 "RECEIVE_UPDATE(io)" r;
  ok (Firmware.receive_finish fw2 ~handle:r ~expected:measurement);
  after fw2 "RECEIVE_FINISH" r;
  ok (Firmware.send_cancel fw1 ~handle:h);
  after fw1 "SEND_CANCEL" h;
  ok (Firmware.decommission fw1 ~handle:h);
  after fw1 "DECOMMISSION" h;
  after fw1 "DECOMMISSION" helper;
  ok (Firmware.decommission fw2 ~handle:r);
  after fw2 "DECOMMISSION" r;
  Alcotest.(check (list string)) "every row driven"
    (List.sort compare (List.map fst State.table))
    (List.sort_uniq compare !seen);
  (* Every row's command refused twice, on an unknown handle and on a
     context in a state the row refuses. Each refusal keeps its error
     string and is charged exactly once, before the lookup: a
     [firmware_page] for a per-page command, else a [firmware_cmd]. The
     two Start rows name no context of their own: theirs are refused on
     an uninitialized platform, and RECEIVE_START's [~kvek_of] on an
     unknown handle. *)
  let m3, fw3 = env () in
  let bare = Firmware.create m3 in
  let launching = ok (Firmware.launch_start fw3 ~policy:0) in
  let running = ok (Firmware.launch_start fw3 ~policy:0) in
  ignore (ok (Firmware.launch_finish fw3 ~handle:running));
  let gone = ok (Firmware.launch_start fw3 ~policy:0) in
  ok (Firmware.decommission fw3 ~handle:gone);
  let pfn3 = Hw.Machine.alloc_frame m3 in
  let refused = ref [] in
  let refuse (m : Hw.Machine.t) cmd ~per_page expected f =
    refused := cmd :: !refused;
    let before = Hw.Cost.category m.Hw.Machine.ledger "sev-fw" in
    let r, events = Fidelius_obs.Trace.capture (fun () -> Result.map ignore (f ())) in
    Alcotest.(check (result unit string)) cmd (Error expected) r;
    Alcotest.(check int) (expected ^ ": one charge")
      (if per_page then m.Hw.Machine.costs.Hw.Cost.firmware_page
       else m.Hw.Machine.costs.Hw.Cost.firmware_cmd)
      (Hw.Cost.category m.Hw.Machine.ledger "sev-fw" - before);
    Alcotest.(check (list string)) (expected ^ ": one command traced") [ cmd ]
      (List.filter_map
         (fun (e : Fidelius_obs.Trace.entry) ->
           match e.Fidelius_obs.Trace.event with
           | Fidelius_obs.Trace.Fw_cmd name -> Some name
           | _ -> None)
         events)
  in
  refuse m3 "LAUNCH_START" ~per_page:false "LAUNCH_START: platform not initialized" (fun () ->
      Firmware.launch_start bare ~policy:0);
  refuse m3 "RECEIVE_START" ~per_page:false "RECEIVE_START: platform not initialized" (fun () ->
      Firmware.receive_start bare ~wrapped ~origin_public:(Firmware.platform_public fw1)
        ~nonce:9L ~policy:0 ());
  refuse m2 "RECEIVE_START" ~per_page:false "RECEIVE_START(kvek_of): unknown handle 999"
    (fun () ->
      Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
        ~nonce:9L ~policy:0 ~kvek_of:999 ());
  let u r = Result.map ignore r in
  List.iter
    (fun (cmd, per_page, handle, refusal, call) ->
      refuse m3 cmd ~per_page (Printf.sprintf "%s: unknown handle 999" cmd) (fun () -> call 999);
      refuse m3 cmd ~per_page refusal (fun () -> call handle))
    [ ( "LAUNCH_UPDATE", true, running,
        "LAUNCH_UPDATE: invalid guest state RUNNING (expected LAUNCHING)",
        fun handle -> Firmware.launch_update fw3 ~handle ~pfn:pfn3 );
      ( "LAUNCH_FINISH", false, running,
        "LAUNCH_FINISH: invalid guest state RUNNING (expected LAUNCHING)",
        fun handle -> u (Firmware.launch_finish fw3 ~handle) );
      ( "LAUNCH(shared)", false, launching,
        "LAUNCH(shared): invalid guest state LAUNCHING (expected RUNNING)",
        fun handle -> u (Firmware.launch_shared fw3 ~handle) );
      ( "SEND_START", false, launching,
        "SEND_START: invalid guest state LAUNCHING (expected RUNNING)",
        fun handle ->
          u (Firmware.send_start fw3 ~handle ~target_public:(Firmware.platform_public fw2)
               ~nonce:3L) );
      ( "SEND_UPDATE", true, running,
        "SEND_UPDATE: invalid guest state RUNNING (expected SENDING)",
        fun handle -> u (Firmware.send_update fw3 ~handle ~index:0 ~src_pfn:pfn3) );
      ( "SEND_UPDATE(io)", true, running,
        "SEND_UPDATE(io): invalid guest state RUNNING (expected SENDING)",
        fun handle -> u (Firmware.send_update_io fw3 ~handle ~nonce:2L ~src_pfn:pfn3 ~len:64) );
      ( "SEND_FINISH", false, running,
        "SEND_FINISH: invalid guest state RUNNING (expected SENDING)",
        fun handle -> u (Firmware.send_finish fw3 ~handle) );
      ( "SEND_CANCEL", false, running,
        "SEND_CANCEL: invalid guest state RUNNING (expected SENDING or SENT)",
        fun handle -> Firmware.send_cancel fw3 ~handle );
      ( "RECEIVE_UPDATE", true, running,
        "RECEIVE_UPDATE: invalid guest state RUNNING (expected RECEIVING)",
        fun handle -> Firmware.receive_update fw3 ~handle ~index:0 ~cipher ~dst_pfn:pfn3 );
      ( "RECEIVE_UPDATE(io)", true, running,
        "RECEIVE_UPDATE(io): invalid guest state RUNNING (expected RECEIVING)",
        fun handle -> Firmware.receive_update_io fw3 ~handle ~nonce:2L ~cipher:io ~dst_pfn:pfn3 );
      ( "RECEIVE_FINISH", false, running,
        "RECEIVE_FINISH: invalid guest state RUNNING (expected RECEIVING)",
        fun handle -> Firmware.receive_finish fw3 ~handle ~expected:measurement );
      ( "SETENC_GEK", false, launching,
        "SETENC_GEK: invalid guest state LAUNCHING (expected RUNNING)",
        fun handle -> u (Firmware.setenc_gek fw3 ~handle) );
      ( "ENC", true, launching,
        "ENC: invalid guest state LAUNCHING (expected RUNNING)",
        fun handle -> u (Firmware.enc_range fw3 ~handle ~gek:1 ~nonce:1L ~src_pfn:pfn3 ~len:64) );
      ( "DEC", true, launching,
        "DEC: invalid guest state LAUNCHING (expected RUNNING)",
        fun handle -> Firmware.dec_range fw3 ~handle ~gek:1 ~nonce:1L ~cipher:c ~dst_pfn:pfn3 );
      ( "DECOMMISSION", false, gone,
        Printf.sprintf "DECOMMISSION: handle %d is decommissioned" gone,
        fun handle -> Firmware.decommission fw3 ~handle ) ];
  Alcotest.(check (list string)) "every row refused"
    (List.sort compare (List.map fst State.table))
    (List.sort_uniq compare !refused)

let test_require () =
  Alcotest.(check bool) "matching state ok" true
    (Result.is_ok (State.require State.Running ~expected:[ State.Running ] ~cmd:"X"));
  match State.require State.Sent ~expected:[ State.Running; State.Sending ] ~cmd:"CMD" with
  | Ok () -> Alcotest.fail "expected error"
  | Error msg ->
      Alcotest.(check bool) "names command" true
        (String.length msg > 3 && String.sub msg 0 3 = "CMD")

(* A checked command costs the firmware no words: the row is resolved
   once and the check returns the shared [Ok ()]. The error names the
   command and the states its row accepts. *)
let test_check_allocation_free () =
  let send_update = State.command "SEND_UPDATE" in
  Alcotest.(check string) "resolved by name" "SEND_UPDATE" (State.name send_update);
  Alcotest.(check string) "leaves" "SENDING" (State.to_string (State.next send_update));
  let n = 10_000 in
  for _ = 1 to 100 do ignore (Sys.opaque_identity (State.check State.Sending send_update)) done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do ignore (Sys.opaque_identity (State.check State.Sending send_update)) done;
  Alcotest.(check (float 0.01)) "0 minor words per checked command" 0.0
    ((Gc.minor_words () -. w0) /. float_of_int n);
  Alcotest.(check (result unit string)) "refused state named"
    (Error "SEND_UPDATE: invalid guest state RUNNING (expected SENDING)")
    (State.check State.Running send_update);
  Alcotest.(check (result unit string)) "every accepted state listed"
    (Error "SEND_CANCEL: invalid guest state RUNNING (expected SENDING or SENT)")
    (State.check State.Running (State.command "SEND_CANCEL"));
  Alcotest.check_raises "unknown mnemonic" (Invalid_argument "State: no row for NOPE")
    (fun () -> ignore (State.command "NOPE"))

(* --- init / launch ------------------------------------------------------- *)

let test_double_init () =
  let m = Hw.Machine.create ~nr_frames:64 ~seed:5L () in
  let fw = Firmware.create m in
  Alcotest.(check bool) "not initialized" false (Firmware.initialized fw);
  ok (Firmware.init fw);
  Alcotest.(check bool) "second init fails" true (Result.is_error (Firmware.init fw))

let test_commands_need_init () =
  let m = Hw.Machine.create ~nr_frames:64 ~seed:6L () in
  let fw = Firmware.create m in
  Alcotest.(check bool) "launch before init fails" true
    (Result.is_error (Firmware.launch_start fw ~policy:0))

let test_launch_flow () =
  let m, fw = env () in
  let handle = ok (Firmware.launch_start fw ~policy:0) in
  Alcotest.(check bool) "launching" true (Firmware.state_of fw ~handle = Some State.Launching);
  let pfn = Hw.Machine.alloc_frame m in
  Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:0 (page 'K');
  ok (Firmware.launch_update fw ~handle ~pfn);
  (* the frame is now encrypted in place *)
  let raw = Hw.Physmem.read_raw m.Hw.Machine.mem pfn ~off:0 ~len:16 in
  Alcotest.(check bool) "encrypted in place" false (Bytes.to_string raw = String.make 16 'K');
  let digest = ok (Firmware.launch_finish fw ~handle) in
  Alcotest.(check int) "digest size" 32 (Bytes.length digest);
  Alcotest.(check bool) "running" true (Firmware.state_of fw ~handle = Some State.Running);
  (* activation installs the key; guest traffic decrypts *)
  ok (Firmware.activate fw ~handle ~asid:4);
  Alcotest.(check string) "slot decrypts launch page" (String.make 16 'K')
    (Bytes.to_string (Hw.Memctrl.read m.Hw.Machine.ctrl (Hw.Memctrl.Asid 4) pfn ~off:0 ~len:16))

let test_launch_update_wrong_state () =
  let m, fw = env () in
  let handle = ok (Firmware.launch_start fw ~policy:0) in
  let _ = ok (Firmware.launch_finish fw ~handle) in
  let pfn = Hw.Machine.alloc_frame m in
  Alcotest.(check bool) "update after finish fails" true
    (Result.is_error (Firmware.launch_update fw ~handle ~pfn))

let test_launch_measurement_sensitive () =
  let m, fw = env () in
  let run content =
    let handle = ok (Firmware.launch_start fw ~policy:0) in
    let pfn = Hw.Machine.alloc_frame m in
    Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:0 content;
    ok (Firmware.launch_update fw ~handle ~pfn);
    ok (Firmware.launch_finish fw ~handle)
  in
  Alcotest.(check bool) "content-sensitive" false
    (Bytes.equal (run (page 'A')) (run (page 'B')))

let test_measure_module () =
  let m1 = Measure.create () and m2 = Measure.create () in
  Measure.add_page m1 ~index:0 (page 'x');
  Measure.add_page m2 ~index:0 (page 'x');
  let tik = Bytes.make 32 't' in
  let a = Measure.finalize m1 ~tik in
  Alcotest.(check bool) "verify agrees" true (Measure.verify m2 ~tik ~expected:a);
  let m3 = Measure.create () in
  Measure.add_page m3 ~index:1 (page 'x');
  Alcotest.(check bool) "index-sensitive" false (Measure.verify m3 ~tik ~expected:a)

(* --- activate / deactivate / decommission --------------------------------- *)

let test_activate_lifecycle () =
  let m, fw = env () in
  let handle = ok (Firmware.launch_start fw ~policy:0) in
  let _ = ok (Firmware.launch_finish fw ~handle) in
  Alcotest.(check bool) "asid none" true (Firmware.asid_of fw ~handle = None);
  ok (Firmware.activate fw ~handle ~asid:9);
  Alcotest.(check bool) "asid set" true (Firmware.asid_of fw ~handle = Some 9);
  Alcotest.(check bool) "key installed" true (Hw.Memctrl.has_key m.Hw.Machine.ctrl ~asid:9);
  ok (Firmware.deactivate fw ~handle);
  Alcotest.(check bool) "key uninstalled" false (Hw.Memctrl.has_key m.Hw.Machine.ctrl ~asid:9);
  Alcotest.(check bool) "double deactivate fails" true
    (Result.is_error (Firmware.deactivate fw ~handle));
  ok (Firmware.decommission fw ~handle);
  Alcotest.(check bool) "decommissioned" true
    (Firmware.state_of fw ~handle = Some State.Decommissioned);
  Alcotest.(check bool) "commands on dead handle fail" true
    (Result.is_error (Firmware.activate fw ~handle ~asid:9))

let test_activate_rebinding_is_permitted () =
  (* The faithful insecurity: the hypervisor may rebind any handle to any
     ASID — the surface Fidelius closes at the mapping layer. *)
  let _, fw = env () in
  let h1 = ok (Firmware.launch_start fw ~policy:0) in
  let _ = ok (Firmware.launch_finish fw ~handle:h1) in
  ok (Firmware.activate fw ~handle:h1 ~asid:3);
  ok (Firmware.activate fw ~handle:h1 ~asid:5);
  Alcotest.(check bool) "rebound" true (Firmware.asid_of fw ~handle:h1 = Some 5)

let test_unknown_handle () =
  let _, fw = env () in
  Alcotest.(check bool) "unknown handle" true
    (Result.is_error (Firmware.activate fw ~handle:999 ~asid:1))

(* --- send / receive -------------------------------------------------------- *)

let migration_pair () =
  let m1, fw1 = env () in
  let m2 = Hw.Machine.create ~nr_frames:256 ~seed:22L () in
  let fw2 = Firmware.create m2 in
  (match Firmware.init fw2 with Ok () -> () | Error e -> failwith e);
  (m1, fw1, m2, fw2)

let test_send_receive_roundtrip () =
  let m1, fw1, m2, fw2 = migration_pair () in
  let handle = ok (Firmware.launch_start fw1 ~policy:0) in
  let pfn1 = Hw.Machine.alloc_frame m1 in
  Hw.Physmem.write_raw m1.Hw.Machine.mem pfn1 ~off:0 (page 'M');
  ok (Firmware.launch_update fw1 ~handle ~pfn:pfn1);
  let _ = ok (Firmware.launch_finish fw1 ~handle) in
  let nonce = 777L in
  let wrapped = ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce) in
  Alcotest.(check bool) "sending state" true (Firmware.state_of fw1 ~handle = Some State.Sending);
  let cipher = ok (Firmware.send_update fw1 ~handle ~index:0 ~src_pfn:pfn1) in
  let measurement = ok (Firmware.send_finish fw1 ~handle) in
  Alcotest.(check bool) "sent state" true (Firmware.state_of fw1 ~handle = Some State.Sent);
  let h2 =
    ok (Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
          ~nonce ~policy:0 ())
  in
  let pfn2 = Hw.Machine.alloc_frame m2 in
  ok (Firmware.receive_update fw2 ~handle:h2 ~index:0 ~cipher ~dst_pfn:pfn2);
  ok (Firmware.receive_finish fw2 ~handle:h2 ~expected:measurement);
  ok (Firmware.activate fw2 ~handle:h2 ~asid:6);
  Alcotest.(check string) "content survives migration" (String.make 16 'M')
    (Bytes.to_string (Hw.Memctrl.read m2.Hw.Machine.ctrl (Hw.Memctrl.Asid 6) pfn2 ~off:0 ~len:16))

let test_receive_wrong_platform () =
  let m1, fw1, _m2, fw2 = migration_pair () in
  let m3 = Hw.Machine.create ~nr_frames:64 ~seed:23L () in
  let fw3 = Firmware.create m3 in
  (match Firmware.init fw3 with Ok () -> () | Error e -> failwith e);
  let handle = ok (Firmware.launch_start fw1 ~policy:0) in
  let pfn = Hw.Machine.alloc_frame m1 in
  ok (Firmware.launch_update fw1 ~handle ~pfn);
  let _ = ok (Firmware.launch_finish fw1 ~handle) in
  let wrapped = ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce:1L) in
  Alcotest.(check bool) "wrong platform rejected" true
    (Result.is_error
       (Firmware.receive_start fw3 ~wrapped ~origin_public:(Firmware.platform_public fw1)
          ~nonce:1L ~policy:0 ()))

(* The origin's public value arrives over the wire; one outside the DH
   group is refused instead of reaching the key agreement. *)
let test_receive_bad_origin_key () =
  let m1, fw1, _m2, fw2 = migration_pair () in
  let handle = ok (Firmware.launch_start fw1 ~policy:0) in
  ok (Firmware.launch_update fw1 ~handle ~pfn:(Hw.Machine.alloc_frame m1));
  let _ = ok (Firmware.launch_finish fw1 ~handle) in
  let wrapped =
    ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce:1L)
  in
  List.iter
    (fun origin_public ->
      Alcotest.(check bool) (Printf.sprintf "origin %Ld refused" origin_public) true
        (Result.is_error
           (Firmware.receive_start fw2 ~wrapped ~origin_public ~nonce:1L ~policy:0 ())))
    [ 0L; 1L; Dh.p; -1L ]

let test_receive_tampered_page () =
  let m1, fw1, m2, fw2 = migration_pair () in
  let handle = ok (Firmware.launch_start fw1 ~policy:0) in
  let pfn1 = Hw.Machine.alloc_frame m1 in
  Hw.Physmem.write_raw m1.Hw.Machine.mem pfn1 ~off:0 (page 'T');
  ok (Firmware.launch_update fw1 ~handle ~pfn:pfn1);
  let _ = ok (Firmware.launch_finish fw1 ~handle) in
  let wrapped = ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce:2L) in
  let cipher = ok (Firmware.send_update fw1 ~handle ~index:0 ~src_pfn:pfn1) in
  let measurement = ok (Firmware.send_finish fw1 ~handle) in
  Bytes.set cipher 100 (Char.chr (Char.code (Bytes.get cipher 100) lxor 0xff));
  let h2 =
    ok (Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
          ~nonce:2L ~policy:0 ())
  in
  let pfn2 = Hw.Machine.alloc_frame m2 in
  ok (Firmware.receive_update fw2 ~handle:h2 ~index:0 ~cipher ~dst_pfn:pfn2);
  Alcotest.(check bool) "measurement mismatch detected" true
    (Result.is_error (Firmware.receive_finish fw2 ~handle:h2 ~expected:measurement));
  Alcotest.(check bool) "guest never reaches RUNNING" true
    (Firmware.state_of fw2 ~handle:h2 = Some State.Receiving)

let test_receive_reordered_pages () =
  let m1, fw1, m2, fw2 = migration_pair () in
  let handle = ok (Firmware.launch_start fw1 ~policy:0) in
  let p1 = Hw.Machine.alloc_frame m1 and p2 = Hw.Machine.alloc_frame m1 in
  Hw.Physmem.write_raw m1.Hw.Machine.mem p1 ~off:0 (page '1');
  Hw.Physmem.write_raw m1.Hw.Machine.mem p2 ~off:0 (page '2');
  ok (Firmware.launch_update fw1 ~handle ~pfn:p1);
  ok (Firmware.launch_update fw1 ~handle ~pfn:p2);
  let _ = ok (Firmware.launch_finish fw1 ~handle) in
  let wrapped = ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce:3L) in
  let c1 = ok (Firmware.send_update fw1 ~handle ~index:0 ~src_pfn:p1) in
  let c2 = ok (Firmware.send_update fw1 ~handle ~index:1 ~src_pfn:p2) in
  let measurement = ok (Firmware.send_finish fw1 ~handle) in
  let h2 =
    ok (Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
          ~nonce:3L ~policy:0 ())
  in
  let d1 = Hw.Machine.alloc_frame m2 and d2 = Hw.Machine.alloc_frame m2 in
  (* Hypervisor swaps the page order. *)
  ok (Firmware.receive_update fw2 ~handle:h2 ~index:0 ~cipher:c2 ~dst_pfn:d1);
  ok (Firmware.receive_update fw2 ~handle:h2 ~index:1 ~cipher:c1 ~dst_pfn:d2);
  Alcotest.(check bool) "reordering detected" true
    (Result.is_error (Firmware.receive_finish fw2 ~handle:h2 ~expected:measurement))

let test_send_requires_running () =
  let _, fw = env () in
  let handle = ok (Firmware.launch_start fw ~policy:0) in
  Alcotest.(check bool) "send during launch fails" true
    (Result.is_error (Firmware.send_start fw ~handle ~target_public:(Firmware.platform_public fw) ~nonce:0L))

(* SEND_CANCEL returns an abandoned send to RUNNING with no transport keys
   left, so the old stream cannot be extended and a fresh SEND_START works. *)
let test_send_cancel () =
  let m1, fw1, _m2, fw2 = migration_pair () in
  let handle = ok (Firmware.launch_start fw1 ~policy:0) in
  let pfn = Hw.Machine.alloc_frame m1 in
  ok (Firmware.launch_update fw1 ~handle ~pfn);
  let _ = ok (Firmware.launch_finish fw1 ~handle) in
  Alcotest.(check bool) "cancel needs a send in progress" true
    (Result.is_error (Firmware.send_cancel fw1 ~handle));
  let target_public = Firmware.platform_public fw2 in
  let _ = ok (Firmware.send_start fw1 ~handle ~target_public ~nonce:1L) in
  let _ = ok (Firmware.send_update fw1 ~handle ~index:0 ~src_pfn:pfn) in
  ok (Firmware.send_cancel fw1 ~handle);
  Alcotest.(check bool) "SENDING back to RUNNING" true
    (Firmware.state_of fw1 ~handle = Some State.Running);
  Alcotest.(check bool) "cancelled stream cannot continue" true
    (Result.is_error (Firmware.send_update fw1 ~handle ~index:1 ~src_pfn:pfn));
  let _ = ok (Firmware.send_start fw1 ~handle ~target_public ~nonce:2L) in
  let _ = ok (Firmware.send_finish fw1 ~handle) in
  ok (Firmware.send_cancel fw1 ~handle);
  Alcotest.(check bool) "SENT back to RUNNING" true
    (Firmware.state_of fw1 ~handle = Some State.Running)

(* --- helper contexts and the I/O reuse ------------------------------------- *)

let running_guest m fw content =
  let handle = ok (Firmware.launch_start fw ~policy:Firmware.policy_nodbg) in
  let pfn = Hw.Machine.alloc_frame m in
  Hw.Physmem.write_raw m.Hw.Machine.mem pfn ~off:0 content;
  ok (Firmware.launch_update fw ~handle ~pfn);
  let _ = ok (Firmware.launch_finish fw ~handle) in
  (handle, pfn)

let test_launch_shared_kvek () =
  let m, fw = env () in
  let handle, pfn = running_guest m fw (page 'S') in
  let helper = ok (Firmware.launch_shared fw ~handle) in
  ok (Firmware.activate fw ~handle:helper ~asid:8);
  Alcotest.(check string) "shared kvek" (String.make 16 'S')
    (Bytes.to_string (Hw.Memctrl.read m.Hw.Machine.ctrl (Hw.Memctrl.Asid 8) pfn ~off:0 ~len:16))

let test_sev_io_path () =
  let m, fw = env () in
  let handle, md_pfn = running_guest m fw (page '\000') in
  let s = ok (Firmware.launch_shared fw ~handle) in
  let platform = Firmware.platform_public fw in
  let wrapped = ok (Firmware.send_start fw ~handle:s ~target_public:platform ~nonce:9L) in
  let r = ok (Firmware.receive_start fw ~wrapped ~origin_public:platform ~nonce:9L
                ~policy:0 ~kvek_of:handle ()) in
  ok (Firmware.activate fw ~handle ~asid:2);
  Hw.Memctrl.write m.Hw.Machine.ctrl (Hw.Memctrl.Asid 2) md_pfn ~off:0
    (Bytes.of_string "disk sector data");
  let cipher = ok (Firmware.send_update_io fw ~handle:s ~nonce:42L ~src_pfn:md_pfn ~len:16) in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.to_string cipher = "disk sector data");
  Hw.Memctrl.write m.Hw.Machine.ctrl (Hw.Memctrl.Asid 2) md_pfn ~off:0 (Bytes.make 16 '\000');
  ok (Firmware.receive_update_io fw ~handle:r ~nonce:42L ~cipher ~dst_pfn:md_pfn);
  Alcotest.(check string) "roundtrip through helpers" "disk sector data"
    (Bytes.to_string (Hw.Memctrl.read m.Hw.Machine.ctrl (Hw.Memctrl.Asid 2) md_pfn ~off:0 ~len:16))

let test_io_nonce_mismatch () =
  let m, fw = env () in
  let handle, md_pfn = running_guest m fw (page '\000') in
  let s = ok (Firmware.launch_shared fw ~handle) in
  let platform = Firmware.platform_public fw in
  let wrapped = ok (Firmware.send_start fw ~handle:s ~target_public:platform ~nonce:10L) in
  let r = ok (Firmware.receive_start fw ~wrapped ~origin_public:platform ~nonce:10L
                ~policy:0 ~kvek_of:handle ()) in
  ok (Firmware.activate fw ~handle ~asid:2);
  Hw.Memctrl.write m.Hw.Machine.ctrl (Hw.Memctrl.Asid 2) md_pfn ~off:0
    (Bytes.of_string "sector-0 payload");
  let cipher = ok (Firmware.send_update_io fw ~handle:s ~nonce:5L ~src_pfn:md_pfn ~len:16) in
  ok (Firmware.receive_update_io fw ~handle:r ~nonce:6L ~cipher ~dst_pfn:md_pfn);
  Alcotest.(check bool) "wrong nonce garbles" false
    (Bytes.to_string (Hw.Memctrl.read m.Hw.Machine.ctrl (Hw.Memctrl.Asid 2) md_pfn ~off:0 ~len:16)
     = "sector-0 payload")

(* --- DBG policy -------------------------------------------------------------- *)

let test_dbg_policy () =
  let m, fw = env () in
  let nodbg_handle, pfn = running_guest m fw (page 'D') in
  Alcotest.(check bool) "NODBG refuses" true
    (Result.is_error (Firmware.dbg_decrypt fw ~handle:nodbg_handle ~pfn));
  let h = ok (Firmware.launch_start fw ~policy:0) in
  let p = Hw.Machine.alloc_frame m in
  Hw.Physmem.write_raw m.Hw.Machine.mem p ~off:0 (page 'E');
  ok (Firmware.launch_update fw ~handle:h ~pfn:p);
  let _ = ok (Firmware.launch_finish fw ~handle:h) in
  let plain = ok (Firmware.dbg_decrypt fw ~handle:h ~pfn:p) in
  Alcotest.(check char) "dbg plaintext" 'E' (Bytes.get plain 0)

(* --- owner tooling ------------------------------------------------------------ *)

let test_owner_prepare () =
  let rng = Rng.create 55L in
  let _, platform = Dh.generate rng in
  let prepared =
    Transport.Owner.prepare ~rng ~platform_public:platform ~policy:1
      ~kernel_pages:[ page 'a'; page 'b' ]
  in
  Alcotest.(check int) "two pages" 2 (List.length prepared.Transport.Owner.image.Transport.pages);
  Alcotest.(check int) "kblk length" 16 (Bytes.length prepared.Transport.Owner.kblk);
  let _, cipher0 = List.hd prepared.Transport.Owner.image.Transport.pages in
  Alcotest.(check bool) "page encrypted" false
    (Bytes.get cipher0 200 = 'a' && Bytes.get cipher0 201 = 'a')

let test_owner_page_size_check () =
  let rng = Rng.create 56L in
  let _, platform = Dh.generate rng in
  Alcotest.check_raises "short kernel page"
    (Invalid_argument "Transport.Owner.prepare: kernel pages must be page-sized") (fun () ->
      ignore (Transport.Owner.prepare ~rng ~platform_public:platform ~policy:0
                ~kernel_pages:[ Bytes.create 100 ]))

let test_transport_page_cipher () =
  let tek = Transport.tek_key (Bytes.make 16 'T') in
  let plain = page 'p' in
  let c = Transport.page_cipher ~tek ~index:3 plain in
  Alcotest.(check bool) "encrypts" false (Bytes.equal c plain);
  Alcotest.(check bool) "roundtrip" true (Bytes.equal (Transport.page_plain ~tek ~index:3 c) plain);
  Alcotest.(check bool) "index-bound" false
    (Bytes.equal (Transport.page_plain ~tek ~index:4 c) plain)

let test_master_secret_symmetry () =
  let rng = Rng.create 57L in
  let sa, pa = Dh.generate rng in
  let sb, pb = Dh.generate rng in
  let k1 = Transport.derive_master_secret ~secret:sa ~peer_public:pb ~nonce:5L in
  let k2 = Transport.derive_master_secret ~secret:sb ~peer_public:pa ~nonce:5L in
  Alcotest.(check bool) "symmetric" true (Bytes.equal k1 k2);
  let k3 = Transport.derive_master_secret ~secret:sa ~peer_public:pb ~nonce:6L in
  Alcotest.(check bool) "nonce-bound" false (Bytes.equal k1 k3)

(* --- page-command buffers ------------------------------------------------ *)

(* Page-sized buffers one call creates, in the steady state. A page is too
   large for the minor heap, so [major_words - promoted_words] counts
   exactly the pages allocated directly in the major heap. [Gc.counters],
   not [Gc.quick_stat]: on OCaml 5 the latter's major count lags until the
   domain's next collection. The call runs once first so cached key
   schedules are already in place. *)
let direct_major_pages f =
  f ();
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  let words = major1 -. major0 -. (promoted1 -. promoted0) in
  Float.to_int (Float.round (words /. float_of_int (Hw.Addr.page_size / (Sys.word_size / 8))))

let test_page_command_allocation () =
  let m1, fw1, m2, fw2 = migration_pair () in
  let handle, pfn = running_guest m1 fw1 (page 'A') in
  let wrapped =
    ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce:4L)
  in
  Alcotest.(check int) "SEND_UPDATE: the returned ciphertext only" 1
    (direct_major_pages (fun () ->
         ignore (ok (Firmware.send_update fw1 ~handle ~index:0 ~src_pfn:pfn))));
  let h2 =
    ok (Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
          ~nonce:4L ~policy:0 ())
  in
  let dst = Hw.Machine.alloc_frame m2 in
  Alcotest.(check int) "RECEIVE_UPDATE in place: none" 0
    (direct_major_pages (fun () ->
         ok (Firmware.receive_update_in_place fw2 ~handle:h2 ~index:0 ~pfn:dst)));
  Alcotest.(check int) "free_frame: none" 0
    (direct_major_pages (fun () -> Hw.Machine.free_frame m2 (Hw.Machine.alloc_frame m2)))

(* The ciphertext SEND_UPDATE returns is the caller's: a later command on
   the same firmware must not overwrite it through the page scratch. *)
let test_send_update_results_unaliased () =
  let m1, fw1, m2, fw2 = migration_pair () in
  let handle = ok (Firmware.launch_start fw1 ~policy:0) in
  let frame c =
    let pfn = Hw.Machine.alloc_frame m1 in
    Hw.Physmem.write_raw m1.Hw.Machine.mem pfn ~off:0 (page c);
    ok (Firmware.launch_update fw1 ~handle ~pfn);
    pfn
  in
  let p0 = frame 'P' and p1 = frame 'Q' in
  let _ = ok (Firmware.launch_finish fw1 ~handle) in
  let wrapped =
    ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce:8L)
  in
  let c0 = ok (Firmware.send_update fw1 ~handle ~index:0 ~src_pfn:p0) in
  let snapshot = Bytes.copy c0 in
  let c1 = ok (Firmware.send_update fw1 ~handle ~index:1 ~src_pfn:p1) in
  Alcotest.(check bool) "two results are two buffers" true (c0 != c1);
  Alcotest.(check bool) "first result survives the second command" true
    (Bytes.equal c0 snapshot);
  Alcotest.(check bool) "result is ciphertext, not staged plaintext" false
    (Bytes.equal c0 (page 'P'));
  let measurement = ok (Firmware.send_finish fw1 ~handle) in
  let h2 =
    ok (Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
          ~nonce:8L ~policy:0 ())
  in
  let d0 = Hw.Machine.alloc_frame m2 and d1 = Hw.Machine.alloc_frame m2 in
  ok (Firmware.receive_update fw2 ~handle:h2 ~index:0 ~cipher:c0 ~dst_pfn:d0);
  Hw.Physmem.write_raw m2.Hw.Machine.mem d1 ~off:0 c1;
  ok (Firmware.receive_update_in_place fw2 ~handle:h2 ~index:1 ~pfn:d1);
  ok (Firmware.receive_finish fw2 ~handle:h2 ~expected:measurement);
  ok (Firmware.activate fw2 ~handle:h2 ~asid:6);
  List.iter
    (fun (pfn, c) ->
      Alcotest.(check string) "content arrives" (String.make 16 c)
        (Bytes.to_string (Hw.Memctrl.read m2.Hw.Machine.ctrl (Hw.Memctrl.Asid 6) pfn ~off:0 ~len:16)))
    [ (d0, 'P'); (d1, 'Q') ]

(* A replayed RECEIVE_UPDATE folds the staged plaintext in twice; the
   measurement must still catch it. *)
let test_receive_update_replay_refused () =
  let m1, fw1, m2, fw2 = migration_pair () in
  let handle, pfn = running_guest m1 fw1 (page 'R') in
  let wrapped =
    ok (Firmware.send_start fw1 ~handle ~target_public:(Firmware.platform_public fw2) ~nonce:3L)
  in
  let cipher = ok (Firmware.send_update fw1 ~handle ~index:0 ~src_pfn:pfn) in
  let measurement = ok (Firmware.send_finish fw1 ~handle) in
  let receive ~replay =
    let h =
      ok (Firmware.receive_start fw2 ~wrapped ~origin_public:(Firmware.platform_public fw1)
            ~nonce:3L ~policy:Firmware.policy_nodbg ())
    in
    let dst = Hw.Machine.alloc_frame m2 in
    let plan = Plan.make ~seed:1L Site.Fw_replay in
    if replay then Plan.install plan;
    Fun.protect ~finally:Plan.uninstall (fun () ->
        ok (Firmware.receive_update fw2 ~handle:h ~index:0 ~cipher ~dst_pfn:dst));
    Alcotest.(check bool) "replay fired as armed" replay (Plan.fired plan);
    Firmware.receive_finish fw2 ~handle:h ~expected:measurement
  in
  Alcotest.(check bool) "clean stream accepted" true (Result.is_ok (receive ~replay:false));
  Alcotest.(check bool) "replayed page refused at RECEIVE_FINISH" true
    (Result.is_error (receive ~replay:true))

(* DBG_DECRYPT hands out its own buffer, never the firmware's scratch. *)
let test_dbg_decrypt_fresh_buffer () =
  let m1, fw1, _m2, fw2 = migration_pair () in
  let h = ok (Firmware.launch_start fw1 ~policy:0) in
  let p = Hw.Machine.alloc_frame m1 in
  Hw.Physmem.write_raw m1.Hw.Machine.mem p ~off:0 (page 'E');
  ok (Firmware.launch_update fw1 ~handle:h ~pfn:p);
  let _ = ok (Firmware.launch_finish fw1 ~handle:h) in
  let sender, src = running_guest m1 fw1 (page 'S') in
  let _ =
    ok (Firmware.send_start fw1 ~handle:sender ~target_public:(Firmware.platform_public fw2)
          ~nonce:5L)
  in
  let d1 = ok (Firmware.dbg_decrypt fw1 ~handle:h ~pfn:p) in
  let d2 = ok (Firmware.dbg_decrypt fw1 ~handle:h ~pfn:p) in
  Alcotest.(check bool) "fresh buffer per call" true (d1 != d2);
  ignore (ok (Firmware.send_update fw1 ~handle:sender ~index:0 ~src_pfn:src));
  Bytes.fill d2 0 16 'X';
  Alcotest.(check bool) "untouched by a later SEND_UPDATE or the caller's writes" true
    (Bytes.equal d1 (page 'E'))

let () =
  Alcotest.run "sev"
    [ ( "state",
        [ Alcotest.test_case "transitions" `Quick test_state_transitions;
          Alcotest.test_case "require" `Quick test_require;
          Alcotest.test_case "allocation-free check" `Quick test_check_allocation_free;
          Alcotest.test_case "every row of the table" `Quick test_every_row ] );
      ( "init-launch",
        [ Alcotest.test_case "double init" `Quick test_double_init;
          Alcotest.test_case "commands need init" `Quick test_commands_need_init;
          Alcotest.test_case "launch flow" `Quick test_launch_flow;
          Alcotest.test_case "wrong-state update" `Quick test_launch_update_wrong_state;
          Alcotest.test_case "measurement sensitivity" `Quick test_launch_measurement_sensitive;
          Alcotest.test_case "measure module" `Quick test_measure_module ] );
      ( "activation",
        [ Alcotest.test_case "lifecycle" `Quick test_activate_lifecycle;
          Alcotest.test_case "rebinding permitted (faithful)" `Quick
            test_activate_rebinding_is_permitted;
          Alcotest.test_case "unknown handle" `Quick test_unknown_handle ] );
      ( "send-receive",
        [ Alcotest.test_case "roundtrip" `Quick test_send_receive_roundtrip;
          Alcotest.test_case "wrong platform" `Quick test_receive_wrong_platform;
          Alcotest.test_case "origin key outside the group" `Quick test_receive_bad_origin_key;
          Alcotest.test_case "tampered page" `Quick test_receive_tampered_page;
          Alcotest.test_case "reordered pages" `Quick test_receive_reordered_pages;
          Alcotest.test_case "send needs RUNNING" `Quick test_send_requires_running;
          Alcotest.test_case "send cancel" `Quick test_send_cancel ] );
      ( "helpers-io",
        [ Alcotest.test_case "launch_shared kvek" `Quick test_launch_shared_kvek;
          Alcotest.test_case "sev io path" `Quick test_sev_io_path;
          Alcotest.test_case "nonce mismatch" `Quick test_io_nonce_mismatch ] );
      ( "dbg",
        [ Alcotest.test_case "policy" `Quick test_dbg_policy;
          Alcotest.test_case "fresh buffer" `Quick test_dbg_decrypt_fresh_buffer ] );
      ( "page buffers",
        [ Alcotest.test_case "page-command allocation" `Quick test_page_command_allocation;
          Alcotest.test_case "SEND_UPDATE results unaliased" `Quick
            test_send_update_results_unaliased;
          Alcotest.test_case "replayed RECEIVE_UPDATE refused" `Quick
            test_receive_update_replay_refused ] );
      ( "transport",
        [ Alcotest.test_case "owner prepare" `Quick test_owner_prepare;
          Alcotest.test_case "page-size check" `Quick test_owner_page_size_check;
          Alcotest.test_case "page cipher" `Quick test_transport_page_cipher;
          Alcotest.test_case "master secret" `Quick test_master_secret_symmetry ] ) ]
