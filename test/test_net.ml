(* Tests for the PV network path and the TLS-like secure channel — the
   substrate behind the paper's "network I/O data has been protected by the
   SSL protocol" assumption (Section 4.3.5). *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sc = Fidelius_crypto.Secure_channel
module Rng = Fidelius_crypto.Rng

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- secure channel ---------------------------------------------------- *)

let sessions () =
  let rng = Rng.create 33L in
  let secret, hello = Sc.client_hello rng in
  let server, reply = ok (Sc.server_accept rng ~client_hello:hello) in
  let client = ok (Sc.client_finish secret ~server_reply:reply) in
  (client, server)

let test_channel_roundtrip () =
  let client, server = sessions () in
  let r = Sc.seal client (Bytes.of_string "hello over TLS") in
  Alcotest.(check string) "c->s" "hello over TLS" (Bytes.to_string (ok (Sc.open_record server r)));
  let r2 = Sc.seal server (Bytes.of_string "and back") in
  Alcotest.(check string) "s->c" "and back" (Bytes.to_string (ok (Sc.open_record client r2)))

let test_channel_confidential () =
  let client, _ = sessions () in
  let record = Sc.seal client (Bytes.of_string "SECRET-PAYLOAD") in
  let s = Bytes.to_string record in
  let contains needle =
    let n = String.length s and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub s i m = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "ciphertext only" false (contains "SECRET")

let test_channel_tamper () =
  let client, server = sessions () in
  let record = Sc.seal client (Bytes.of_string "payment: 10 EUR") in
  Bytes.set record 14 (Char.chr (Char.code (Bytes.get record 14) lxor 0x01));
  Alcotest.(check bool) "bit flip detected" true (Result.is_error (Sc.open_record server record))

let test_channel_replay_reorder () =
  let client, server = sessions () in
  let r1 = Sc.seal client (Bytes.of_string "one") in
  let r2 = Sc.seal client (Bytes.of_string "two") in
  (* Reorder: r2 first. *)
  Alcotest.(check bool) "reorder detected" true (Result.is_error (Sc.open_record server r2));
  ignore (ok (Sc.open_record server r1));
  ignore (ok (Sc.open_record server r2));
  (* Replay r2. *)
  Alcotest.(check bool) "replay detected" true (Result.is_error (Sc.open_record server r2))

let test_channel_truncation () =
  let client, server = sessions () in
  let r = Sc.seal client (Bytes.of_string "data") in
  Alcotest.(check bool) "truncation detected" true
    (Result.is_error (Sc.open_record server (Bytes.sub r 0 (Bytes.length r - 1))));
  Alcotest.(check bool) "garbage detected" true
    (Result.is_error (Sc.open_record server (Bytes.create 5)))

let test_channel_property =
  QCheck.Test.make ~name:"arbitrary payloads roundtrip in order" ~count:50
    (QCheck.list_of_size (QCheck.Gen.int_range 1 10) QCheck.string)
    (fun payloads ->
      let client, server = sessions () in
      List.for_all
        (fun p ->
          match Sc.open_record server (Sc.seal client (Bytes.of_string p)) with
          | Ok got -> Bytes.to_string got = p
          | Error _ -> false)
        payloads)

(* --- netif --------------------------------------------------------------- *)

let net_env () =
  let m = Hw.Machine.create ~seed:34L () in
  let hv = Xen.Hypervisor.boot m in
  let a = Xen.Hypervisor.create_domain hv ~name:"a" ~memory_pages:8 in
  let b = Xen.Hypervisor.create_domain hv ~name:"b" ~memory_pages:8 in
  let wire = Xen.Netif.create_wire () in
  let ea = ok (Xen.Netif.connect hv a ~wire ~buffer_gvfn:100) in
  let eb = ok (Xen.Netif.connect hv b ~wire ~buffer_gvfn:100) in
  (m, hv, wire, ea, eb)

let test_netif_roundtrip () =
  let _, _, wire, ea, eb = net_env () in
  ok (Xen.Netif.send ea (Bytes.of_string "frame one"));
  ok (Xen.Netif.send ea (Bytes.of_string "frame two"));
  Alcotest.(check int) "queued" 2 (Xen.Netif.pending eb);
  (match ok (Xen.Netif.recv eb) with
  | Some f -> Alcotest.(check string) "fifo" "frame one" (Bytes.to_string f)
  | None -> Alcotest.fail "no frame");
  (match ok (Xen.Netif.recv eb) with
  | Some f -> Alcotest.(check string) "second" "frame two" (Bytes.to_string f)
  | None -> Alcotest.fail "no frame");
  Alcotest.(check bool) "drained" true (ok (Xen.Netif.recv eb) = None);
  Alcotest.(check int) "forwarded" 2 (Xen.Netif.frames_forwarded wire)

let test_netif_bidirectional () =
  let _, _, _, ea, eb = net_env () in
  ok (Xen.Netif.send ea (Bytes.of_string "ping"));
  ok (Xen.Netif.send eb (Bytes.of_string "pong"));
  Alcotest.(check bool) "a got pong" true
    (match ok (Xen.Netif.recv ea) with Some f -> Bytes.to_string f = "pong" | None -> false);
  Alcotest.(check bool) "b got ping" true
    (match ok (Xen.Netif.recv eb) with Some f -> Bytes.to_string f = "ping" | None -> false)

let test_netif_limits () =
  let _, hv, wire, ea, _ = net_env () in
  Alcotest.(check bool) "oversized frame" true
    (Result.is_error (Xen.Netif.send ea (Bytes.create Hw.Addr.page_size)));
  let c = Xen.Hypervisor.create_domain hv ~name:"c" ~memory_pages:4 in
  Alcotest.(check bool) "third endpoint refused" true
    (Result.is_error (Xen.Netif.connect hv c ~wire ~buffer_gvfn:100))

let test_netif_dom0_snoops_plaintext () =
  (* Without the secure channel, the wire and the log are plaintext: the
     insecurity the SSL assumption must cover. *)
  let _, _, wire, ea, _ = net_env () in
  ok (Xen.Netif.send ea (Bytes.of_string "PLAINTEXT-CREDENTIALS"));
  Alcotest.(check bool) "dom0 reads the frame" true
    (List.exists (fun f -> Bytes.to_string f = "PLAINTEXT-CREDENTIALS") (Xen.Netif.snoop wire))

let test_netif_batch_roundtrip () =
  let _, _, wire, ea, eb = net_env () in
  let frames = List.init 5 (fun i -> Bytes.of_string (Printf.sprintf "frame-%d" i)) in
  ok (Xen.Netif.send_batch ea frames);
  Alcotest.(check int) "all queued" 5 (Xen.Netif.pending eb);
  Alcotest.(check int) "forwarded once each" 5 (Xen.Netif.frames_forwarded wire);
  (* Partial drain keeps the remainder queued, in order. *)
  let first = ok (Xen.Netif.recv_batch ~max:2 eb) in
  Alcotest.(check (list string)) "first two" [ "frame-0"; "frame-1" ]
    (List.map Bytes.to_string first);
  let rest = ok (Xen.Netif.recv_batch eb) in
  Alcotest.(check (list string)) "remainder" [ "frame-2"; "frame-3"; "frame-4" ]
    (List.map Bytes.to_string rest);
  Alcotest.(check (list string)) "empty drain" [] (List.map Bytes.to_string (ok (Xen.Netif.recv_batch eb)));
  (* Zero-length frames survive the length-prefixed staging. *)
  ok (Xen.Netif.send_batch ea [ Bytes.create 0; Bytes.of_string "x" ]);
  Alcotest.(check (list int)) "zero-length frame preserved" [ 0; 1 ]
    (List.map Bytes.length (ok (Xen.Netif.recv_batch eb)))

let test_netif_batch_cost_parity () =
  (* The pin is what one frame cost before send and recv became batches
     of one. The amortization claim is event_channel x1 instead of xN,
     nothing else. *)
  let run f =
    let m, _, _, ea, eb = net_env () in
    let before = Hw.Cost.total m.Hw.Machine.ledger in
    f ea eb;
    Hw.Cost.total m.Hw.Machine.ledger - before
  in
  let frame = Bytes.make 300 'f' in
  Alcotest.(check int) "one 300 B frame sent and received" 16_728
    (run (fun ea eb ->
         ok (Xen.Netif.send ea frame);
         ignore (ok (Xen.Netif.recv eb))));
  (* N frames batched cost less than N synchronous sends. *)
  let n = 6 in
  let sync_n =
    run (fun ea eb ->
        for _ = 1 to n do
          ok (Xen.Netif.send ea frame);
          ignore (ok (Xen.Netif.recv eb))
        done)
  in
  let batch_n =
    run (fun ea eb ->
        ok (Xen.Netif.send_batch ea (List.init n (fun _ -> frame)));
        ignore (ok (Xen.Netif.recv_batch eb)))
  in
  Alcotest.(check bool) "batching amortizes the doorbell" true (batch_n < sync_n)

let test_netif_backpressure () =
  let m = Hw.Machine.create ~seed:34L () in
  let hv = Xen.Hypervisor.boot m in
  let a = Xen.Hypervisor.create_domain hv ~name:"a" ~memory_pages:8 in
  let b = Xen.Hypervisor.create_domain hv ~name:"b" ~memory_pages:8 in
  let wire = Xen.Netif.create_wire ~capacity:3 () in
  Alcotest.(check int) "capacity readable" 3 (Xen.Netif.wire_capacity wire);
  let ea = ok (Xen.Netif.connect hv a ~wire ~buffer_gvfn:100) in
  let eb = ok (Xen.Netif.connect hv b ~wire ~buffer_gvfn:100) in
  for i = 1 to 3 do
    ok (Xen.Netif.send ea (Bytes.of_string (string_of_int i)))
  done;
  let before = Hw.Cost.total m.Hw.Machine.ledger in
  Alcotest.(check bool) "4th frame backpressured" true
    (Result.is_error (Xen.Netif.send ea (Bytes.of_string "4")));
  Alcotest.(check bool) "batched send backpressured" true
    (Result.is_error (Xen.Netif.send_batch ea [ Bytes.of_string "4" ]));
  Alcotest.(check int) "refused sends charge nothing" before (Hw.Cost.total m.Hw.Machine.ledger);
  (* Draining the receiver reopens the wire. *)
  ignore (ok (Xen.Netif.recv eb));
  ok (Xen.Netif.send ea (Bytes.of_string "4"));
  Alcotest.(check int) "queue refilled" 3 (Xen.Netif.pending eb);
  Alcotest.check_raises "nonpositive capacity rejected"
    (Invalid_argument "Netif.create_wire: capacity must be >= 1") (fun () ->
      ignore (Xen.Netif.create_wire ~capacity:0 ()))

let test_netif_oversized_queued_frame () =
  (* dom0 owns the wire's queues and can grow a queued frame past the
     shared page. The receiver must refuse such a frame before staging
     it (nothing may spill into the next host frame) or charging for it,
     and drop it, so the endpoint drains and later frames still arrive. *)
  let m = Hw.Machine.create ~seed:34L () in
  let hv = Xen.Hypervisor.boot m in
  let a = Xen.Hypervisor.create_domain hv ~name:"a" ~memory_pages:8 in
  let b = Xen.Hypervisor.create_domain hv ~name:"b" ~memory_pages:8 in
  let wire = Xen.Netif.create_wire () in
  let ea = ok (Xen.Netif.connect hv a ~wire ~buffer_gvfn:100) in
  let eb = ok (Xen.Netif.connect hv b ~wire ~buffer_gvfn:100) in
  let frame_of pt n = (Option.get (Hw.Pagetable.lookup pt n)).Hw.Pagetable.frame in
  let adjacent = frame_of b.Xen.Domain.npt (frame_of b.Xen.Domain.gpt 100) + 1 in
  let grow f = if Bytes.length f < 5000 then Bytes.make 5000 'X' else f in
  List.iter
    (fun (what, receive) ->
      ok (Xen.Netif.send ea (Bytes.of_string "victim"));
      Xen.Netif.tamper wire grow;
      let page = Hw.Physmem.dump m.Hw.Machine.mem adjacent in
      let cycles = Hw.Cost.total m.Hw.Machine.ledger in
      Alcotest.(check bool) (what ^ " refuses the oversized frame") true
        (Result.is_error (receive eb));
      Alcotest.(check int) (what ^ " drops it") 0 (Xen.Netif.pending eb);
      Alcotest.(check bool) (what ^ " leaves the adjacent frame alone") true
        (Bytes.equal page (Hw.Physmem.dump m.Hw.Machine.mem adjacent));
      Alcotest.(check int) (what ^ " charges nothing") cycles (Hw.Cost.total m.Hw.Machine.ledger);
      ok (Xen.Netif.send ea (Bytes.of_string "next"));
      Alcotest.(check (option string)) (what ^ ": the next frame still arrives") (Some "next")
        (Option.map Bytes.to_string (ok (Xen.Netif.recv eb))))
    [ ("recv_batch", fun ep -> Result.map ignore (Xen.Netif.recv_batch ep));
      ("recv", fun ep -> Result.map ignore (Xen.Netif.recv ep)) ]

let test_netif_snoop_log_bounded () =
  (* dom0's traffic log keeps only the most recent [wire_capacity] frames,
     so a long-lived wire's log stays bounded; the forwarded counter still
     sees every frame. *)
  let _, _, wire, ea, eb = net_env () in
  let capacity = Xen.Netif.wire_capacity wire in
  let frame i = Bytes.of_string (Printf.sprintf "frame-%d" i) in
  for i = 1 to capacity + 10 do
    ok (Xen.Netif.send ea (frame i));
    ignore (ok (Xen.Netif.recv_batch eb))
  done;
  let log = Xen.Netif.snoop_log wire in
  Alcotest.(check int) "log holds capacity frames" capacity (List.length log);
  Alcotest.(check string) "oldest kept is frame 11" "frame-11"
    (Bytes.to_string (List.hd log));
  Alcotest.(check string) "newest last"
    (Printf.sprintf "frame-%d" (capacity + 10))
    (Bytes.to_string (List.nth log (capacity - 1)));
  Alcotest.(check int) "every frame forwarded" (capacity + 10)
    (Xen.Netif.frames_forwarded wire)

let contains needle hay =
  let s = Bytes.to_string hay in
  let n = String.length s and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub s i m = needle || scan (i + 1)) in
  scan 0

let test_tls_over_netif () =
  (* The full story: handshake and records over the PV wire; dom0 sees only
     ciphertext; tampering is detected by the receiver. *)
  let _, _, wire, ea, eb = net_env () in
  let rng = Rng.create 35L in
  let secret, hello = Sc.client_hello rng in
  ok (Xen.Netif.send ea hello);
  let hello' = Option.get (ok (Xen.Netif.recv eb)) in
  let server, reply = ok (Sc.server_accept rng ~client_hello:hello') in
  ok (Xen.Netif.send eb reply);
  let reply' = Option.get (ok (Xen.Netif.recv ea)) in
  let client = ok (Sc.client_finish secret ~server_reply:reply') in
  (* Application data. *)
  ok (Xen.Netif.send ea (Sc.seal client (Bytes.of_string "CARD-NUMBER-4242")));
  Alcotest.(check bool) "dom0 log has no plaintext" false
    (List.exists (contains "CARD-NUMBER") (Xen.Netif.snoop_log wire));
  let record = Option.get (ok (Xen.Netif.recv eb)) in
  Alcotest.(check string) "server decrypts" "CARD-NUMBER-4242"
    (Bytes.to_string (ok (Sc.open_record server record)));
  (* Next record gets rewritten on the wire. *)
  ok (Xen.Netif.send ea (Sc.seal client (Bytes.of_string "amount: 10")));
  Xen.Netif.tamper wire (fun f ->
      let f = Bytes.copy f in
      if Bytes.length f > 13 then Bytes.set f 13 '\xff';
      f);
  let tampered = Option.get (ok (Xen.Netif.recv eb)) in
  Alcotest.(check bool) "tampering detected" true
    (Result.is_error (Sc.open_record server tampered))

let prop t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "net"
    [ ( "secure-channel",
        [ Alcotest.test_case "roundtrip" `Quick test_channel_roundtrip;
          Alcotest.test_case "confidentiality" `Quick test_channel_confidential;
          Alcotest.test_case "tamper" `Quick test_channel_tamper;
          Alcotest.test_case "replay/reorder" `Quick test_channel_replay_reorder;
          Alcotest.test_case "truncation" `Quick test_channel_truncation;
          prop test_channel_property ] );
      ( "netif",
        [ Alcotest.test_case "roundtrip" `Quick test_netif_roundtrip;
          Alcotest.test_case "bidirectional" `Quick test_netif_bidirectional;
          Alcotest.test_case "limits" `Quick test_netif_limits;
          Alcotest.test_case "batch roundtrip" `Quick test_netif_batch_roundtrip;
          Alcotest.test_case "batch cost parity" `Quick test_netif_batch_cost_parity;
          Alcotest.test_case "backpressure" `Quick test_netif_backpressure;
          Alcotest.test_case "oversized queued frame" `Quick test_netif_oversized_queued_frame;
          Alcotest.test_case "dom0 snoops plaintext" `Quick test_netif_dom0_snoops_plaintext;
          Alcotest.test_case "snoop log bounded" `Quick test_netif_snoop_log_bounded ] );
      ("tls-over-pv", [ Alcotest.test_case "end to end" `Quick test_tls_over_netif ]) ]
