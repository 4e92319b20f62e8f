(* Tests for the Xen substrate: boot, domains, hypercalls, grants, events,
   XenStore, PV block I/O and world-switch machinery. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Hv = Xen.Hypervisor
module Domain = Xen.Domain
module Granttab = Xen.Granttab
module Event = Xen.Event
module Xenstore = Xen.Xenstore
module Ring = Xen.Ring
module Vdisk = Xen.Vdisk
module Blkif = Xen.Blkif
module Sched = Xen.Sched
module Hypercall = Xen.Hypercall

let boot () =
  let m = Hw.Machine.create ~seed:41L () in
  (m, Hv.boot m)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- boot invariants ------------------------------------------------------- *)

let test_boot_invariants () =
  let m, hv = boot () in
  Alcotest.(check bool) "paging enforced" true m.Hw.Machine.enforce_paging;
  Alcotest.(check int) "cr3 = host space" (Hw.Pagetable.id hv.Hv.host_space)
    (Hw.Cpu.cr3 m.Hw.Machine.cpu);
  Alcotest.(check bool) "dom0 present" true (Hv.find_domain hv 0 <> None);
  Alcotest.(check bool) "firmware initialized" true (Fidelius_sev.Firmware.initialized hv.Hv.fw);
  (* Stock Xen carries multiple stray copies of the privileged ops. *)
  Alcotest.(check bool) "mov-cr0 not monopolized at boot" false
    (Hw.Insn.monopolized m.Hw.Machine.insns Hw.Insn.Mov_cr0);
  (* Text frames are identity-mapped executable and read-only. *)
  List.iter
    (fun pfn ->
      match Hw.Pagetable.lookup hv.Hv.host_space pfn with
      | Some pte ->
          Alcotest.(check bool) "text exec" true pte.Hw.Pagetable.executable;
          Alcotest.(check bool) "text ro" false pte.Hw.Pagetable.writable
      | None -> Alcotest.fail "text unmapped")
    hv.Hv.xen_text

let test_direct_map_covers_ram () =
  let m, hv = boot () in
  let nr = Hw.Physmem.nr_frames m.Hw.Machine.mem in
  let missing = ref 0 in
  for pfn = 1 to nr - 1 do
    if Hw.Pagetable.lookup hv.Hv.host_space pfn = None then incr missing
  done;
  Alcotest.(check int) "all frames direct-mapped" 0 !missing

(* --- domains ---------------------------------------------------------------- *)

let test_create_domain () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  Alcotest.(check int) "8 frames" 8 (List.length dom.Domain.frames);
  Alcotest.(check int) "npt populated" 8 (Hw.Pagetable.entry_count dom.Domain.npt);
  Alcotest.(check bool) "runnable" true (dom.Domain.state = Domain.Runnable);
  Alcotest.(check bool) "distinct asids" true
    (let d2 = Hv.create_domain hv ~name:"g2" ~memory_pages:4 in
     d2.Domain.asid <> dom.Domain.asid)

let test_guest_rw () =
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  Hv.in_guest hv dom (fun () ->
      Domain.write m dom ~addr:0x3000 (Bytes.of_string "guest"));
  let b = Hv.in_guest hv dom (fun () -> Domain.read m dom ~addr:0x3000 ~len:5) in
  Alcotest.(check string) "rw" "guest" (Bytes.to_string b)

let test_npf_demand_alloc () =
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:4 in
  (* Map a guest virtual page at a gfn beyond the populated range. *)
  let gfn = Domain.alloc_gfn dom in
  Domain.guest_map dom ~gvfn:50 ~gfn ~writable:true ~executable:false ~c_bit:false;
  let _, npf0 = Hv.stats hv in
  Hv.in_guest hv dom (fun () -> Domain.write m dom ~addr:(Hw.Addr.addr_of 50 0) (Bytes.of_string "x"));
  let _, npf1 = Hv.stats hv in
  Alcotest.(check int) "one NPF served" 1 (npf1 - npf0);
  Alcotest.(check bool) "gfn now backed" true (Hw.Pagetable.lookup dom.Domain.npt gfn <> None)

let test_destroy_domain () =
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let frames = dom.Domain.frames in
  let free_before = Hw.Machine.frames_free m in
  Hv.destroy_domain hv dom;
  Alcotest.(check int) "frames returned" (free_before + 8) (Hw.Machine.frames_free m);
  Alcotest.(check bool) "gone from list" true (Hv.find_domain hv dom.Domain.domid = None);
  (* Freed frames were scrubbed. *)
  List.iter
    (fun pfn ->
      Alcotest.(check string) "scrubbed" "\000\000"
        (Bytes.to_string (Hw.Physmem.read_raw m.Hw.Machine.mem pfn ~off:0 ~len:2)))
    frames

let test_sev_domain () =
  let m, hv = boot () in
  let kernel = [ Bytes.make Hw.Addr.page_size 'K' ] in
  let dom = ok (Hv.create_sev_domain hv ~name:"s" ~memory_pages:8 ~kernel) in
  Alcotest.(check bool) "protected flag" true dom.Domain.sev_protected;
  Alcotest.(check bool) "sev_enabled in VMCB" true
    (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Sev_enabled = 1L);
  let b = Hv.in_guest hv dom (fun () -> Domain.read m dom ~addr:0 ~len:4) in
  Alcotest.(check string) "kernel decrypts for guest" "KKKK" (Bytes.to_string b);
  (* DRAM is ciphertext. *)
  match Hw.Pagetable.lookup dom.Domain.npt 0 with
  | Some npte ->
      let raw = Hw.Physmem.read_raw m.Hw.Machine.mem npte.Hw.Pagetable.frame ~off:0 ~len:4 in
      Alcotest.(check bool) "DRAM ciphertext" false (Bytes.to_string raw = "KKKK")
  | None -> Alcotest.fail "gfn 0 unbacked"

(* The refusal comes before anything is allocated: the host keeps every
   frame and gains no domain. *)
let test_sev_kernel_too_big () =
  let m, hv = boot () in
  let kernel = List.init 5 (fun _ -> Bytes.make Hw.Addr.page_size 'K') in
  let domids () = List.map (fun d -> d.Domain.domid) hv.Hv.domains in
  let free = Hw.Machine.frames_free m and before = domids () in
  Alcotest.(check (result reject string)) "oversized kernel rejected"
    (Error "kernel larger than guest memory")
    (Hv.create_sev_domain hv ~name:"s" ~memory_pages:4 ~kernel);
  Alcotest.(check int) "frames_free unchanged" free (Hw.Machine.frames_free m);
  Alcotest.(check (list int)) "no domain left behind" before (domids ())

(* --- world switches ----------------------------------------------------------- *)

let test_vmexit_vmrun_state () =
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:4 in
  ok (Hv.vmrun hv dom);
  Alcotest.(check bool) "guest mode" true
    (Hw.Cpu.mode m.Hw.Machine.cpu = Hw.Cpu.Guest dom.Domain.domid);
  Hw.Cpu.set_reg m.Hw.Machine.cpu Hw.Cpu.Rax 0x1234L;
  Hw.Cpu.set_rip m.Hw.Machine.cpu 0x4000L;
  Hv.vmexit hv dom Hw.Vmcb.Cpuid ~info1:1L ~info2:2L;
  Alcotest.(check bool) "host mode" true (Hw.Cpu.mode m.Hw.Machine.cpu = Hw.Cpu.Host);
  Alcotest.(check int64) "rax saved" 0x1234L (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rax);
  Alcotest.(check int64) "rip saved" 0x4000L (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rip);
  Alcotest.(check int64) "exit info" 2L (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Exit_info2);
  Hw.Cpu.set_reg m.Hw.Machine.cpu Hw.Cpu.Rax 0L;
  ok (Hv.vmrun hv dom);
  Alcotest.(check int64) "rax reloaded" 0x1234L (Hw.Cpu.get_reg m.Hw.Machine.cpu Hw.Cpu.Rax)

let test_vmrun_unknown_domain () =
  let m, hv = boot () in
  ignore hv;
  Alcotest.(check bool) "bad domid" true
    (Result.is_error
       (Hw.Insn.execute m.Hw.Machine.insns ~exec_ok:(fun _ -> true) Hw.Insn.Vmrun 99L))

(* --- hypercalls ------------------------------------------------------------------ *)

let test_void_hypercall () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:4 in
  let v0, _ = Hv.stats hv in
  Alcotest.(check int64) "void returns 0" 0L (ok (Hv.hypercall hv dom Hypercall.Void));
  let v1, _ = Hv.stats hv in
  Alcotest.(check int) "one vmexit" 1 (v1 - v0)

let test_console_hypercall () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:4 in
  ignore (ok (Hv.hypercall hv dom (Hypercall.Console_write "hello ")));
  ignore (ok (Hv.hypercall hv dom (Hypercall.Console_write "world")));
  Alcotest.(check string) "console accumulates" "hello world" (Hv.console hv dom.Domain.domid);
  Alcotest.(check string) "other console empty" "" (Hv.console hv 42)

let test_grant_flow () =
  let m, hv = boot () in
  let owner = Hv.create_domain hv ~name:"owner" ~memory_pages:8 in
  let peer = Hv.create_domain hv ~name:"peer" ~memory_pages:8 in
  (* Owner offers gfn 3 read-only. *)
  let gref =
    Int64.to_int
      (ok (Hv.hypercall hv owner
             (Hypercall.Grant_table_op
                (Hypercall.Grant_access { target = peer.Domain.domid; gfn = 3; writable = false }))))
  in
  (match Granttab.get hv.Hv.granttab gref with
  | Some e ->
      Alcotest.(check int) "owner recorded" owner.Domain.domid e.Granttab.owner;
      Alcotest.(check bool) "read-only" false e.Granttab.writable
  | None -> Alcotest.fail "grant missing");
  (* A third party cannot map it. *)
  let third = Hv.create_domain hv ~name:"third" ~memory_pages:4 in
  Alcotest.(check bool) "wrong target denied" true
    (Result.is_error
       (Hv.hypercall hv third (Hypercall.Grant_table_op (Hypercall.Map_grant { gref }))));
  (* The intended peer maps it and sees the owner's data. *)
  Hv.in_guest hv owner (fun () ->
      Domain.write m owner ~addr:(Hw.Addr.addr_of 3 0) (Bytes.of_string "shared!"));
  let peer_gfn =
    Int64.to_int
      (ok (Hv.hypercall hv peer (Hypercall.Grant_table_op (Hypercall.Map_grant { gref }))))
  in
  Domain.guest_map peer ~gvfn:60 ~gfn:peer_gfn ~writable:false ~executable:false ~c_bit:false;
  let b = Hv.in_guest hv peer (fun () -> Domain.read m peer ~addr:(Hw.Addr.addr_of 60 0) ~len:7) in
  Alcotest.(check string) "peer reads shared page" "shared!" (Bytes.to_string b);
  (* Peer cannot write through a read-only nested mapping. *)
  (try
     Hv.in_guest hv peer (fun () ->
         Domain.write m peer ~addr:(Hw.Addr.addr_of 60 0) (Bytes.of_string "x"));
     Alcotest.fail "expected write denial"
   with Hv.Npf_unresolved _ | Hw.Mmu.Fault _ -> ());
  (* Only the owner can end access. *)
  Alcotest.(check bool) "peer cannot end" true
    (Result.is_error
       (Hv.hypercall hv peer (Hypercall.Grant_table_op (Hypercall.End_access { gref }))));
  ignore (ok (Hv.hypercall hv owner (Hypercall.Grant_table_op (Hypercall.End_access { gref }))));
  Alcotest.(check bool) "grant freed" true (Granttab.get hv.Hv.granttab gref = None)

(* --- granttab serialization -------------------------------------------------------- *)

let test_granttab_encode () =
  let m, hv = boot () in
  let e = { Granttab.owner = 5; target = 7; gfn = 0x1234; writable = true; in_use = true } in
  Granttab.set m ~space:hv.Hv.host_space hv.Hv.granttab 11 (Some e);
  Alcotest.(check bool) "roundtrip" true (Granttab.get hv.Hv.granttab 11 = Some e);
  Granttab.set m ~space:hv.Hv.host_space hv.Hv.granttab 11 None;
  Alcotest.(check bool) "cleared" true (Granttab.get hv.Hv.granttab 11 = None);
  Alcotest.(check bool) "oob get" true (Granttab.get hv.Hv.granttab 99999 = None);
  Alcotest.check_raises "oob set"
    (Invalid_argument "Granttab.set: grant ref 99999 out of range") (fun () ->
      Granttab.set m ~space:hv.Hv.host_space hv.Hv.granttab 99999 None)

let test_granttab_find_free () =
  let m, hv = boot () in
  let t = hv.Hv.granttab in
  let e = { Granttab.owner = 1; target = 2; gfn = 1; writable = false; in_use = true } in
  Granttab.set m ~space:hv.Hv.host_space t 0 (Some e);
  Alcotest.(check bool) "skips used slot" true (Granttab.find_free t = Some 1);
  Alcotest.(check int) "entries list" 1 (List.length (Granttab.entries t))

(* --- events / xenstore --------------------------------------------------------------- *)

let test_event_channels () =
  let l = Hw.Cost.ledger () in
  let ev = Event.create l in
  let port = Event.alloc_unbound ev ~domid:1 ~remote:2 in
  Alcotest.(check bool) "wrong dom cannot bind" true
    (Result.is_error (Event.bind ev ~domid:3 ~remote_port:port));
  let bport = ok (Event.bind ev ~domid:2 ~remote_port:port) in
  let fired = ref 0 in
  Event.on_event ev ~domid:2 ~port:bport (fun () -> incr fired);
  ok (Event.send ev ~domid:1 ~port);
  Alcotest.(check int) "handler ran" 1 !fired;
  (* Reverse direction: notify 1 from 2; no handler -> pending. *)
  ok (Event.send ev ~domid:2 ~port:bport);
  Alcotest.(check bool) "pending flagged" true (Event.pending ev ~domid:1 ~port);
  Alcotest.(check bool) "unbound send fails" true
    (Result.is_error (Event.send ev ~domid:9 ~port:1234))

(* Regression: an event sent before the handler existed used to be parked
   forever — on_event never consulted the pending set, so the backend
   missed any doorbell that raced its registration. Registration must
   deliver parked events immediately (the pending bit is level-ish, as on
   real Xen). *)
let test_event_parked_delivery () =
  let l = Hw.Cost.ledger () in
  let ev = Event.create l in
  let port = Event.alloc_unbound ev ~domid:1 ~remote:2 in
  let bport = ok (Event.bind ev ~domid:2 ~remote_port:port) in
  (* Doorbell rings before anyone listens: parked, not lost. *)
  ok (Event.send ev ~domid:1 ~port);
  ok (Event.send ev ~domid:1 ~port);
  Alcotest.(check bool) "parked while unhandled" true (Event.pending ev ~domid:2 ~port:bport);
  let fired = ref 0 in
  Event.on_event ev ~domid:2 ~port:bport (fun () -> incr fired);
  Alcotest.(check int) "delivered at registration" 1 !fired;
  Alcotest.(check bool) "pending cleared" false (Event.pending ev ~domid:2 ~port:bport);
  (* Later sends go straight through. *)
  ok (Event.send ev ~domid:1 ~port);
  Alcotest.(check int) "live delivery still works" 2 !fired

let test_xenstore () =
  let s = Xenstore.create () in
  Xenstore.write s ~domid:3 ~path:"/local/domain/3/device/vbd/ring-ref" "17";
  Alcotest.(check bool) "read back" true
    (Xenstore.read s ~path:"/local/domain/3/device/vbd/ring-ref" = Some "17");
  Alcotest.check_raises "foreign subtree denied"
    (Fidelius_hw.Denial.Denied "xenstore: dom3 may not write /local/domain/4/x")
    (fun () -> Xenstore.write s ~domid:3 ~path:"/local/domain/4/x" "evil");
  Xenstore.write s ~domid:0 ~path:"/anywhere" "dom0 may";
  Xenstore.tamper s ~path:"/local/domain/3/device/vbd/ring-ref" "666";
  Alcotest.(check bool) "tamper channel works" true
    (Xenstore.read s ~path:"/local/domain/3/device/vbd/ring-ref" = Some "666");
  Alcotest.(check int) "keys by prefix" 1 (List.length (Xenstore.keys s ~prefix:"/anywhere"))

(* --- ring / vdisk ---------------------------------------------------------------------- *)

let req ?(op = Ring.Read) ?(sector = 0) ?(count = 1) ?(data_gref = 0) ?(data_off = 0) req_id =
  { Ring.req_id; op; sector; count; data_gref; data_off }

let push_ok r q =
  match Ring.push_request r q with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("unexpected push failure: " ^ Ring.error_to_string e)

let rec drain_requests r =
  match Ring.pop_request r with None -> [] | Some q -> q :: drain_requests r

let test_ring () =
  let r = Ring.create () in
  Alcotest.(check bool) "empty" true (Ring.pop_request r = None);
  push_ok r (req 1);
  Alcotest.(check int) "pending" 1 (Ring.requests_pending r);
  Alcotest.(check int) "free slots" (Ring.default_size - 1) (Ring.free_request_slots r);
  (match Ring.pop_request r with
  | Some q -> Alcotest.(check int) "fifo" 1 q.Ring.req_id
  | None -> Alcotest.fail "pop");
  (match Ring.push_response r { Ring.resp_id = 1; status = Ok () } with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "response push");
  Alcotest.(check bool) "response" true (Ring.pop_responses r ~max:1 <> [])

let test_ring_backpressure () =
  let r = Ring.create ~size:4 () in
  for i = 1 to 4 do push_ok r (req i) done;
  Alcotest.(check int) "no free slots" 0 (Ring.free_request_slots r);
  (match Ring.push_request r (req 5) with
  | Error (Ring.Ring_full { capacity }) -> Alcotest.(check int) "capacity reported" 4 capacity
  | Ok () -> Alcotest.fail "overfull push accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ Ring.error_to_string e));
  (* Consuming one slot relieves the backpressure. *)
  ignore (Ring.pop_request r);
  push_ok r (req 5);
  Alcotest.(check (list int)) "fifo preserved across refill" [ 2; 3; 4; 5 ]
    (List.map (fun q -> q.Ring.req_id) (drain_requests r));
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Ring.create: size 3 must be a power of two >= 2") (fun () ->
      ignore (Ring.create ~size:3 ()));
  Alcotest.check_raises "size 0 rejected"
    (Invalid_argument "Ring.create: size 0 must be a power of two >= 2") (fun () ->
      ignore (Ring.create ~size:0 ()))

let test_ring_wraparound () =
  let r = Ring.create ~size:4 () in
  (* Push/pop far past the slot count: free-running indices must keep FIFO
     order through many wraps. *)
  let next = ref 0 in
  for _round = 1 to 10 do
    for _ = 1 to 3 do
      push_ok r (req !next);
      incr next
    done;
    let drained = drain_requests r in
    Alcotest.(check int) "drained all" 3 (List.length drained)
  done;
  let (req_prod, req_cons), _ = Ring.indices r in
  Alcotest.(check int) "producer free-running" 30 req_prod;
  Alcotest.(check int) "consumer caught up" 30 req_cons;
  Alcotest.(check int) "empty after wraps" 0 (Ring.requests_pending r)

(* Model check: the bounded ring behaves exactly like a capacity-limited
   FIFO queue under an arbitrary interleaving of pushes and pops. *)
let prop_ring_matches_bounded_queue =
  QCheck.Test.make ~count:200 ~name:"ring = bounded FIFO queue"
    QCheck.(list small_int)
    (fun ops ->
      let size = 4 in
      let r = Ring.create ~size () in
      let model = Queue.create () in
      List.for_all
        (fun x ->
          if x land 1 = 0 then
            (* push *)
            let fits = Queue.length model < size in
            if fits then Queue.push x model;
            (match Ring.push_request r (req x) with
            | Ok () -> fits
            | Error (Ring.Ring_full _) -> not fits
            | Error _ -> false)
          else
            (* pop *)
            match (Ring.pop_request r, Queue.take_opt model) with
            | None, None -> true
            | Some q, Some m -> q.Ring.req_id = m
            | _ -> false)
        ops
      && Ring.requests_pending r = Queue.length model)

let test_vdisk () =
  let d = Vdisk.create ~nr_sectors:8 in
  Vdisk.write_from d ~sector:2 ~src:(Bytes.make 1024 'z') ~src_off:0 ~len:1024;
  Alcotest.(check bool) "read back" true
    (Bytes.for_all (fun c -> c = 'z') (Vdisk.peek d ~sector:2 ~count:2));
  Alcotest.check_raises "oob" (Invalid_argument "Vdisk: sectors 7+2 out of range") (fun () ->
      ignore (Vdisk.peek d ~sector:7 ~count:2));
  (* sector + count wraps negative here; the range check must not. *)
  let wrapping = Printf.sprintf "Vdisk: sectors %d+8 out of range" (max_int - 3) in
  Alcotest.check_raises "oob read_into, wrapping sum" (Invalid_argument wrapping) (fun () ->
      Vdisk.read_into d ~sector:(max_int - 3) ~count:8 ~dst:(Bytes.create 4096) ~dst_off:0);
  Alcotest.check_raises "oob write_from, wrapping sum" (Invalid_argument wrapping) (fun () ->
      Vdisk.write_from d ~sector:(max_int - 3) ~src:(Bytes.create 4096) ~src_off:0 ~len:4096);
  Alcotest.check_raises "partial sector"
    (Invalid_argument "Vdisk.write_from: length must be a multiple of the sector size")
    (fun () -> Vdisk.write_from d ~sector:0 ~src:(Bytes.create 100) ~src_off:0 ~len:100);
  let d2 = Vdisk.of_bytes (Bytes.make 700 'q') in
  Alcotest.(check int) "rounded up" 2 (Vdisk.nr_sectors d2)

(* --- blkif -------------------------------------------------------------------------------- *)

let test_blkif_roundtrip () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let disk = Vdisk.create ~nr_sectors:64 in
  let fe, be = ok (Blkif.connect hv dom ~disk ~buffer_gvfn:100) in
  ok (Blkif.write_sectors fe ~sector:5 (Bytes.make 2048 'D'));
  let b = ok (Blkif.read_sectors fe ~sector:5 ~count:4) in
  Alcotest.(check bool) "roundtrip" true (Bytes.for_all (fun c -> c = 'D') b);
  Alcotest.(check bool) "requests served" true (Blkif.requests_served be >= 2);
  (* Identity codec means plaintext hits the platter — the insecurity the
     Fidelius codecs remove. *)
  Alcotest.(check bool) "platter plaintext" true
    (Bytes.for_all (fun c -> c = 'D') (Vdisk.peek disk ~sector:5 ~count:1))

let test_blkif_large_transfer_chunks () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let disk = Vdisk.create ~nr_sectors:128 in
  let fe, be = ok (Blkif.connect hv dom ~disk ~buffer_gvfn:100) in
  (* 16 KiB spans multiple one-page ring requests. *)
  ok (Blkif.write_sectors fe ~sector:0 (Bytes.make 16384 'L'));
  Alcotest.(check bool) "chunked into >= 4 requests" true (Blkif.requests_served be >= 4);
  let b = ok (Blkif.read_sectors fe ~sector:0 ~count:32) in
  Alcotest.(check bool) "content" true (Bytes.for_all (fun c -> c = 'L') b)

let test_blkif_validation () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let disk = Vdisk.create ~nr_sectors:8 in
  let fe, _ = ok (Blkif.connect hv dom ~disk ~buffer_gvfn:100) in
  Alcotest.(check bool) "partial sector write rejected" true
    (Result.is_error (Blkif.write_sectors fe ~sector:0 (Bytes.create 100)));
  Alcotest.(check bool) "zero count read rejected" true
    (Result.is_error (Blkif.read_sectors fe ~sector:0 ~count:0));
  Alcotest.(check bool) "oob read surfaces backend error" true
    (Result.is_error (Blkif.read_sectors fe ~sector:7 ~count:4))

(* Everything in a descriptor is attacker-controlled: each malformed shape
   must come back as its typed error, with nothing charged and nothing
   copied. *)
let test_blkif_malformed_descriptors () =
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let disk = Vdisk.create ~nr_sectors:64 in
  let fe, be = ok (Blkif.connect hv dom ~disk ~buffer_gvfn:100) in
  let gref = Blkif.data_gref fe ~page:0 in
  let blkio_before = Hw.Cost.category m.Hw.Machine.ledger "blk-io" in
  let bad =
    [ req ~data_gref:gref ~count:0 1;                                  (* zero-length *)
      req ~data_gref:gref ~count:(-3) 2;
      req ~data_gref:gref ~count:(Blkif.sectors_per_frame + 1) 3;
      req ~data_gref:gref ~sector:60 ~count:8 4;                       (* runs off the disk *)
      req ~data_gref:gref ~sector:(-1) 5;
      req ~data_gref:gref ~data_off:4000 6;                            (* span leaves the frame *)
      req ~data_gref:99999 7;                                          (* not a data grant *)
      (* sector + count and data_off + len wrap negative *)
      req ~op:Ring.Read ~data_gref:gref ~sector:(max_int - 3) ~count:8 8;
      req ~op:Ring.Write ~data_gref:gref ~sector:(max_int - 3) ~count:8 9;
      req ~op:Ring.Read ~data_gref:gref ~data_off:(max_int - 100) 10;
      req ~op:Ring.Write ~data_gref:gref ~data_off:(max_int - 100) 11 ]
  in
  let statuses = ok (Blkif.submit_batch fe bad) in
  let expect name pred st =
    Alcotest.(check bool) name true (match st with Error e -> pred e | Ok () -> false)
  in
  let wrapped_sector = function
    | Ring.Bad_sector { sector; count = 8; nr_sectors = 64 } -> sector = max_int - 3
    | _ -> false
  in
  let wrapped_span = function
    | Ring.Bad_span { data_off; len = 512; _ } -> data_off = max_int - 100
    | _ -> false
  in
  (match statuses with
  | [ s1; s2; s3; s4; s5; s6; s7; s8; s9; s10; s11 ] ->
      expect "read: sector + count wraps" wrapped_sector s8;
      expect "write: sector + count wraps" wrapped_sector s9;
      expect "read: data_off + len wraps" wrapped_span s10;
      expect "write: data_off + len wraps" wrapped_span s11;
      expect "count 0" (function Ring.Bad_count { count = 0; _ } -> true | _ -> false) s1;
      expect "count negative" (function Ring.Bad_count _ -> true | _ -> false) s2;
      expect "count > frame" (function Ring.Bad_count { count = 9; _ } -> true | _ -> false) s3;
      expect "sector overrun"
        (function Ring.Bad_sector { sector = 60; count = 8; nr_sectors = 64 } -> true | _ -> false)
        s4;
      expect "sector negative" (function Ring.Bad_sector _ -> true | _ -> false) s5;
      expect "span overrun" (function Ring.Bad_span { data_off = 4000; _ } -> true | _ -> false) s6;
      expect "foreign gref" (function Ring.Bad_gref { gref = 99999; _ } -> true | _ -> false) s7
  | l -> Alcotest.fail (Printf.sprintf "expected 11 statuses, got %d" (List.length l)));
  (* Fail-closed means validate-then-charge: rejects cost the guest nothing. *)
  Alcotest.(check int) "no blk-io charged for rejects" blkio_before
    (Hw.Cost.category m.Hw.Machine.ledger "blk-io");
  Alcotest.(check int) "all rejected" 11 (Blkif.requests_rejected be);
  (* Duplicate req_id inside one batch: first wins, second fails closed. *)
  let statuses =
    ok (Blkif.submit_batch fe [ req ~data_gref:gref ~sector:1 42; req ~data_gref:gref ~sector:2 42 ])
  in
  (match statuses with
  | [ Ok (); Error (Ring.Duplicate_req_id { req_id = 42 }) ] -> ()
  | _ -> Alcotest.fail "duplicate req_id not failed closed");
  Alcotest.(check int) "only the duplicate rejected" 12 (Blkif.requests_rejected be)

(* The ring is the untrusted-input boundary: batches of 1-8 descriptors
   whose fields sit on and around every bound the backend checks. A model
   that cannot overflow (sums in [Int64], wide enough for two 63-bit ints)
   says which descriptors validation must refuse; the backend must agree,
   raise nothing, never answer with [Backend_fault], and charge blk-io for
   exactly the sectors of the descriptors it served. *)
let mutation_nr_sectors = 64

let mutation_env =
  lazy
    (let m, hv = boot () in
     let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
     let disk = Vdisk.create ~nr_sectors:mutation_nr_sectors in
     let fe, _ = ok (Blkif.connect ~buffer_pages:2 hv dom ~disk ~buffer_gvfn:100) in
     (m, fe))

(* Grant choices: the queue's two data frames, then foreign references. *)
let mutation_grefs fe =
  [| Blkif.data_gref fe ~page:0; Blkif.data_gref fe ~page:1; 99999; -1; max_int; min_int |]

let gen_descriptor =
  let open QCheck.Gen in
  let near_max = map (fun k -> max_int - k) (int_bound 8) in
  let* count = oneof [ oneofl [ 0; 1; 7; 8; 9; -1; min_int; max_int ]; int_range 1 8 ] in
  let room = mutation_nr_sectors - count in
  let* sector =
    oneof
      [ oneofl [ 0; 1; -1; room - 1; room; room + 1; min_int ];
        near_max;
        int_bound mutation_nr_sectors ]
  in
  let span = Hw.Addr.page_size - (max 0 (min count 8) * Vdisk.sector_size) in
  let* data_off =
    oneof
      [ oneofl [ 0; 1; -1; span - 1; span; span + 1; min_int ]; near_max; int_bound span ]
  in
  let* gref = frequency [ (3, int_bound 1); (1, int_range 2 5) ] in
  let* req_id = int_bound 4 in
  let* op = oneofl [ Ring.Read; Ring.Write ] in
  return (op, sector, count, gref, data_off, req_id)

let show_descriptor (op, sector, count, gref, data_off, req_id) =
  Printf.sprintf "{%s sector=%d count=%d gref#%d off=%d id=%d}"
    (match op with Ring.Read -> "R" | Ring.Write -> "W")
    sector count gref data_off req_id

let prop_ring_descriptor_mutation =
  QCheck.Test.make ~count:300 ~name:"ring descriptors near every bound fail closed"
    (QCheck.make
       ~print:(fun ds -> String.concat " " (List.map show_descriptor ds))
       QCheck.Gen.(list_size (int_range 1 8) gen_descriptor))
    (fun descs ->
      let m, fe = Lazy.force mutation_env in
      let grefs = mutation_grefs fe in
      let reqs =
        List.map
          (fun (op, sector, count, g, data_off, req_id) ->
            { Ring.req_id; op; sector; count; data_gref = grefs.(g); data_off })
          descs
      in
      let wide = Int64.of_int in
      let within lo len limit =
        lo >= 0 && Int64.compare (Int64.add (wide lo) (wide len)) (wide limit) <= 0
      in
      let seen = Hashtbl.create 8 in
      let refuse (r : Ring.request) =
        let bad =
          r.Ring.count < 1 || r.Ring.count > Blkif.sectors_per_frame
          || (not (within r.Ring.sector r.Ring.count mutation_nr_sectors))
          || (not (within r.Ring.data_off (r.Ring.count * Vdisk.sector_size) Hw.Addr.page_size))
          || Hashtbl.mem seen r.Ring.req_id
        in
        if not bad then Hashtbl.replace seen r.Ring.req_id ();
        bad || not (r.Ring.data_gref = grefs.(0) || r.Ring.data_gref = grefs.(1))
      in
      let before = Hw.Cost.category m.Hw.Machine.ledger "blk-io" in
      let statuses =
        match Blkif.submit_batch fe reqs with
        | Ok st -> st
        | Error e -> QCheck.Test.fail_reportf "batch refused: %s" e
      in
      let charged = Hw.Cost.category m.Hw.Machine.ledger "blk-io" - before in
      let served_sectors =
        List.fold_left2
          (fun acc (r : Ring.request) st -> if st = Ok () then acc + r.Ring.count else acc)
          0 reqs statuses
      in
      List.iter2
        (fun r st ->
          match (refuse r, st) with
          | _, Error (Ring.Backend_fault f) -> QCheck.Test.fail_reportf "Backend_fault %s" f
          | true, Ok () -> QCheck.Test.fail_reportf "malformed descriptor served"
          | false, Error e -> QCheck.Test.fail_reportf "valid refused: %s" (Ring.error_to_string e)
          | _ -> ())
        reqs statuses;
      charged = m.Hw.Machine.costs.Hw.Cost.io_sector * served_sectors)

let test_blkif_response_without_request () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let disk = Vdisk.create ~nr_sectors:64 in
  let fe, _ = ok (Blkif.connect hv dom ~disk ~buffer_gvfn:100) in
  (* dom0 (or a descriptor forgery) plants a response nobody asked for. *)
  (match Ring.push_response (Blkif.frontend_ring fe) { Ring.resp_id = 99; status = Ok () } with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "stray push");
  (match Blkif.submit_batch fe [ req ~data_gref:(Blkif.data_gref fe ~page:0) 1 ] with
  | Error msg ->
      (* either the id-mismatch or the leftover-response detector fires *)
      let contains s needle =
        let nl = String.length needle and sl = String.length s in
        let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "names the protocol violation" true (contains msg "response")
  | Ok _ -> Alcotest.fail "stray response accepted");
  (* The sector helpers fail closed on the same forgery. *)
  (match Ring.push_response (Blkif.frontend_ring fe) { Ring.resp_id = 98; status = Ok () } with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "stray push");
  Alcotest.(check bool) "read fails closed" true
    (Result.is_error (Blkif.read_sectors fe ~sector:0 ~count:1))

let test_blkif_submit_backpressure () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let disk = Vdisk.create ~nr_sectors:64 in
  let fe, be = ok (Blkif.connect hv ~ring_size:4 dom ~disk ~buffer_gvfn:100) in
  let gref = Blkif.data_gref fe ~page:0 in
  let vmexits_before, _ = Hv.stats hv in
  let five = List.init 5 (fun i -> req ~data_gref:gref ~sector:i (i + 1)) in
  (match Blkif.submit_batch fe five with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized batch accepted");
  let vmexits_after, _ = Hv.stats hv in
  Alcotest.(check int) "no doorbell hypercall for a refused batch" vmexits_before vmexits_after;
  Alcotest.(check int) "nothing left on the ring" 0
    (Ring.requests_pending (Blkif.frontend_ring fe));
  Alcotest.(check int) "backend untouched" 0 (Blkif.requests_served be);
  (* A batch that exactly fills the ring goes through. *)
  let four = List.init 4 (fun i -> req ~data_gref:gref ~sector:i (i + 10)) in
  let statuses = ok (Blkif.submit_batch fe four) in
  Alcotest.(check int) "full-ring batch served" 4 (List.length statuses);
  List.iter (fun st -> Alcotest.(check bool) "served ok" true (st = Ok ())) statuses

(* Golden pins captured on the pre-batching synchronous implementation
   (identity codec, all defaults): the refactored datapath at batch size 1
   must charge the exact same cumulative cycle totals and produce the same
   bytes. Guards the PR's byte-identity contract. *)
let test_blkif_batch1_golden () =
  let pattern n = Bytes.init n (fun i -> Char.chr (((i * 7) + 13) land 0xff)) in
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:8 in
  let disk = Vdisk.create ~nr_sectors:64 in
  let fe, be = ok (Blkif.connect hv dom ~disk ~buffer_gvfn:100) in
  let total () = Hw.Cost.total m.Hw.Machine.ledger in
  Alcotest.(check int) "connect cycles unchanged" 1109548 (total ());
  let data = pattern 4096 in
  ok (Blkif.write_sectors fe ~sector:5 data);
  Alcotest.(check int) "write cycles unchanged" 1289903 (total ());
  let rd = ok (Blkif.read_sectors fe ~sector:5 ~count:8) in
  Alcotest.(check int) "read cycles unchanged" 1470182 (total ());
  Alcotest.(check int) "request count unchanged" 2 (Blkif.requests_served be);
  Alcotest.(check bool) "platter bytes unchanged" true
    (Bytes.equal data (Vdisk.peek disk ~sector:5 ~count:8));
  Alcotest.(check bool) "read-back bytes unchanged" true (Bytes.equal data rd)

(* Batching changes only how many doorbells ring: disk artifacts, read-back
   bytes and the charged per-sector I/O cost are invariant in the batch
   size. *)
let prop_batch_invariance =
  QCheck.Test.make ~count:8 ~name:"batch=8 artifacts = batch=1 artifacts"
    QCheck.(pair (int_bound 40) (int_range 1 16))
    (fun (sector, nsec) ->
      QCheck.assume (sector + nsec <= 64);
      let run ~batch ~pages =
        let m = Hw.Machine.create ~seed:41L () in
        let hv = Hv.boot m in
        let dom = Hv.create_domain hv ~name:"g" ~memory_pages:16 in
        let disk = Vdisk.create ~nr_sectors:64 in
        let fe, be = ok (Blkif.connect ~buffer_pages:pages hv dom ~disk ~buffer_gvfn:100) in
        let data =
          Bytes.init (nsec * Vdisk.sector_size) (fun i -> Char.chr ((i * 31 + sector) land 0xff))
        in
        ok (Blkif.write_sectors ~batch fe ~sector data);
        let rd = ok (Blkif.read_sectors ~batch fe ~sector ~count:nsec) in
        ( Vdisk.peek disk ~sector:0 ~count:64,
          rd,
          Hw.Cost.category m.Hw.Machine.ledger "blk-io",
          Blkif.notifications be,
          Blkif.requests_rejected be )
      in
      let disk1, rd1, io1, notif1, rej1 = run ~batch:1 ~pages:1 in
      let disk8, rd8, io8, notif8, rej8 = run ~batch:8 ~pages:8 in
      Bytes.equal disk1 disk8 && Bytes.equal rd1 rd8 && io1 = io8 && rej1 = 0 && rej8 = 0
      && notif8 <= notif1)

(* --- sched ------------------------------------------------------------------------------- *)

let test_sched () =
  let m, hv = boot () in
  ignore m;
  let s = Sched.create () in
  let d1 = Hv.create_domain hv ~name:"a" ~memory_pages:2 in
  let d2 = Hv.create_domain hv ~name:"b" ~memory_pages:2 in
  Sched.add s d1;
  Sched.add s d2;
  Sched.add s d1 (* duplicate ignored *);
  Alcotest.(check int) "two runnable" 2 (List.length (Sched.runnable s));
  let first = Sched.next s in
  let second = Sched.next s in
  Alcotest.(check bool) "round robin rotates" true
    (match (first, second) with Some a, Some b -> not (a == b) | _ -> false);
  d1.Domain.state <- Domain.Paused;
  d2.Domain.state <- Domain.Paused;
  Alcotest.(check bool) "none runnable" true (Sched.next s = None);
  d1.Domain.state <- Domain.Runnable;
  Sched.remove s d1;
  Alcotest.(check bool) "removed" true (Sched.next s = None)

let test_cpuid_emulation () =
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:4 in
  (match Hv.cpuid hv dom ~leaf:0 with
  | Ok (a, b, _, _) ->
      Alcotest.(check int64) "max leaf" 0x8000001FL a;
      Alcotest.(check bool) "vendor string packed" true (b <> 0L)
  | Error e -> Alcotest.fail e);
  (match Hv.cpuid hv dom ~leaf:1 with
  | Ok (_, _, c, _) ->
      Alcotest.(check bool) "AES-NI advertised" true
        (Int64.logand c (Int64.shift_left 1L 25) <> 0L)
  | Error e -> Alcotest.fail e);
  (* The SEV leaf reflects protection. *)
  (match Hv.cpuid hv dom ~leaf:0x8000001F with
  | Ok (a, _, _, _) -> Alcotest.(check int64) "plain guest: SME only" 1L a
  | Error e -> Alcotest.fail e);
  let sev = ok (Hv.create_sev_domain hv ~name:"s" ~memory_pages:4
                  ~kernel:[ Bytes.make Hw.Addr.page_size 'K' ]) in
  (match Hv.cpuid hv sev ~leaf:0x8000001F with
  | Ok (a, b, _, _) ->
      Alcotest.(check int64) "SEV guest: SME+SEV" 3L a;
      Alcotest.(check int64) "C-bit position" 47L b
  | Error e -> Alcotest.fail e);
  ignore m

let test_msr_emulation () =
  let _, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:4 in
  Alcotest.(check int64) "unwritten MSR reads 0" 0L (ok (Hv.rdmsr hv dom ~msr:0x10));
  ok (Hv.wrmsr_guest hv dom ~msr:0x10 0x1234_5678_9ABCL);
  Alcotest.(check int64) "written MSR reads back" 0x1234_5678_9ABCL
    (ok (Hv.rdmsr hv dom ~msr:0x10));
  Alcotest.(check int64) "EFER reflects NXE" 0x800L (ok (Hv.rdmsr hv dom ~msr:0xC0000080));
  Alcotest.(check bool) "guest EFER write refused" true
    (Result.is_error (Hv.wrmsr_guest hv dom ~msr:0xC0000080 0L));
  (* MSRs are per-domain. *)
  let dom2 = Hv.create_domain hv ~name:"g2" ~memory_pages:4 in
  Alcotest.(check int64) "isolated per domain" 0L (ok (Hv.rdmsr hv dom2 ~msr:0x10))

let test_sev_es_semantics () =
  let m, hv = boot () in
  let dom = ok (Hv.create_sev_domain hv ~name:"es" ~memory_pages:4
                  ~kernel:[ Bytes.make Hw.Addr.page_size 'E' ]) in
  Hv.enable_sev_es hv dom;
  let cpu = m.Hw.Machine.cpu in
  (* Exit with register state: hardware hides it... *)
  Hw.Cpu.set_reg cpu Hw.Cpu.Rbx 0xC0DEL;
  Hw.Cpu.set_reg cpu Hw.Cpu.Rsp 0x9000L;
  Hw.Cpu.set_rip cpu 0x3000L;
  Hv.vmexit hv dom Hw.Vmcb.Npf ~info1:0L ~info2:0L;
  Alcotest.(check int64) "rbx hidden" 0L (Hw.Cpu.get_reg cpu Hw.Cpu.Rbx);
  Alcotest.(check int64) "rip hidden in VMCB (NPF exposes nothing)" 0L
    (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rip);
  Alcotest.(check int64) "rsp hidden in VMCB" 0L (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rsp);
  (* ...the hypervisor scribbles the save area, and hardware ignores it. *)
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rip 0xBADL;
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rsp 0xBADL;
  ok (Hv.vmrun hv dom);
  Alcotest.(check int64) "rip restored from VMSA" 0x3000L (Hw.Cpu.rip cpu);
  Alcotest.(check int64) "rsp restored from VMSA" 0x9000L (Hw.Cpu.get_reg cpu Hw.Cpu.Rsp);
  Alcotest.(check int64) "rbx restored from VMSA" 0xC0DEL (Hw.Cpu.get_reg cpu Hw.Cpu.Rbx);
  (* Hypercalls still function through the GHCB exchange. *)
  Alcotest.(check int64) "void hypercall under ES" 0L (ok (Hv.hypercall hv dom Hypercall.Void));
  (* SEV_ENABLED cannot be stripped across a world switch. *)
  Hv.vmexit hv dom Hw.Vmcb.Hlt ~info1:0L ~info2:0L;
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Sev_enabled 0L;
  Alcotest.(check bool) "hardware consistency check" true (Result.is_error (Hv.vmrun hv dom));
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Sev_enabled 1L;
  ok (Hv.vmrun hv dom)

let test_hypercall_numbers_distinct () =
  let calls =
    [ Hypercall.Void;
      Hypercall.Console_write "";
      Hypercall.Event_send { port = 0 };
      Hypercall.Grant_table_op (Hypercall.Map_grant { gref = 0 });
      Hypercall.Pre_sharing { target = 0; gfn = 0; nr = 0; writable = false };
      Hypercall.Enable_mem_enc ]
  in
  let numbers = List.map Hypercall.number calls in
  Alcotest.(check int) "distinct ABI numbers" (List.length numbers)
    (List.length (List.sort_uniq compare numbers))

(* --- allocation regression -------------------------------------------------- *)

(* Minor-heap words per call, after a warm-up pass that takes the one-time
   allocations (lazy thunks, cached closures, hashtable growth). *)
let words_per_call n f =
  for _ = 1 to 100 do f () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do f () done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_crossing_allocation_free () =
  (* The zero-alloc world switch, pinned: with tracing off, a steady-state
     vmexit+vmrun pair allocates nothing, and a whole void hypercall
     allocates only the boxed RIP result (3 words). A regression here —
     a stray closure, an [int64] box, an option — shows up as a fraction
     of a word and fails loudly. *)
  Alcotest.(check bool) "tracing off" false (Fidelius_obs.Trace.enabled ());
  let m, hv = boot () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:4 in
  let pair =
    words_per_call 1000 (fun () ->
        Hv.vmexit hv dom Hw.Vmcb.Vmmcall ~info1:0L ~info2:0L;
        ignore (Hv.vmrun hv dom))
  in
  Alcotest.(check (float 0.01)) "vmexit+vmrun allocates nothing" 0.0 pair;
  ignore m;
  let void =
    words_per_call 1000 (fun () -> ignore (Hv.hypercall hv dom Hypercall.Void))
  in
  Alcotest.(check bool)
    (Printf.sprintf "void hypercall <= 4 words/call (got %.1f)" void)
    true (void <= 4.0)

let test_pte_store_allocation_free () =
  (* The reverse index, pinned the same way: once a table's groups exist
     and its index has grown to the pairs it holds, storing a PTE that maps
     a fresh (vfn, frame) pair — raw, or through the MMU's boot-time path —
     allocates nothing, so the direct map costs no words per frame. *)
  let m = Hw.Machine.create ~nr_frames:64 ~seed:43L () in
  let t = Hw.Machine.new_table m in
  let n = 1024 in
  let entry frame =
    Hw.Pagetable.packed_make ~frame ~writable:true ~executable:false ~c_bit:false
  in
  for vfn = 0 to n - 1 do Hw.Pagetable.hw_set_packed t vfn (entry (vfn + 1)) done;
  let next = ref n in
  let map_fresh store () =
    incr next;
    store (!next mod n) (entry !next)
  in
  let raw = words_per_call 1000 (map_fresh (Hw.Pagetable.hw_set_packed t)) in
  Alcotest.(check (float 0.01)) "hw_set_packed allocates nothing" 0.0 raw;
  let via_mmu = words_per_call 1000 (map_fresh (Hw.Mmu.set_pte_packed m ~space:t ~table:t)) in
  Alcotest.(check (float 0.01)) "set_pte_packed allocates nothing" 0.0 via_mmu

let test_fragment_writer_allocation_free () =
  (* The fleet's Chrome fragment writer, pinned the same way: once the
     serialisation buffer has grown to the fragment's size, writing the
     fragment again costs a fixed few words for its label and metadata
     event and nothing per trace event. Two rings that differ only in
     length must therefore cost the same words. *)
  let module Trace = Fidelius_obs.Trace in
  let module Fleetbench = Fidelius_workloads.Fleetbench in
  let ring_of rounds =
    let r = Trace.ring () in
    Trace.record_into r (fun () ->
        for i = 1 to rounds do
          List.iter Trace.emit
            [ Trace.Vmrun { domid = i };
              Trace.Vmexit { domid = 1; reason = "npf" };
              Trace.Npf { domid = 1; gfn = -i };
              Trace.Hypercall "console_write";
              Trace.Gate 3;
              Trace.Shadow_capture "vmmcall";
              Trace.Shadow_verify { ok = true };
              Trace.Fw_cmd "LAUNCH_START";
              Trace.Dram { blocks = max_int; encrypted = false };
              Trace.Walk { space = 2; vfn = i * 4096 };
              Trace.Tlb_flush { full = false };
              Trace.Pte_write { vfn = min_int };
              Trace.Fault { site = "esc\"ape\n"; hit = i };
              Trace.Mark "slice" ]
        done);
    r
  in
  let second_write_words ring =
    let buf = Buffer.create 16 in
    Fleetbench.chrome_fragment buf ~vm:5 ring;
    let w0 = Gc.minor_words () in
    Fleetbench.chrome_fragment buf ~vm:5 ring;
    Gc.minor_words () -. w0
  in
  let short = ring_of 50 and long = ring_of 200 in
  let extra_events = Trace.ring_length long - Trace.ring_length short in
  let per_event =
    (second_write_words long -. second_write_words short) /. float_of_int extra_events
  in
  Alcotest.(check (float 0.0)) "fragment writer allocates 0 words per event" 0.0 per_event

let () =
  Alcotest.run "xen"
    [ ( "boot",
        [ Alcotest.test_case "invariants" `Quick test_boot_invariants;
          Alcotest.test_case "direct map" `Quick test_direct_map_covers_ram ] );
      ( "domains",
        [ Alcotest.test_case "create" `Quick test_create_domain;
          Alcotest.test_case "guest rw" `Quick test_guest_rw;
          Alcotest.test_case "NPF demand alloc" `Quick test_npf_demand_alloc;
          Alcotest.test_case "destroy" `Quick test_destroy_domain;
          Alcotest.test_case "sev domain" `Quick test_sev_domain;
          Alcotest.test_case "kernel too big" `Quick test_sev_kernel_too_big ] );
      ( "world-switch",
        [ Alcotest.test_case "vmexit/vmrun state" `Quick test_vmexit_vmrun_state;
          Alcotest.test_case "unknown domain" `Quick test_vmrun_unknown_domain;
          Alcotest.test_case "allocation-free crossing" `Quick
            test_crossing_allocation_free;
          Alcotest.test_case "allocation-free PTE store" `Quick
            test_pte_store_allocation_free;
          Alcotest.test_case "allocation-free trace fragment" `Quick
            test_fragment_writer_allocation_free ] );
      ( "hypercalls",
        [ Alcotest.test_case "void" `Quick test_void_hypercall;
          Alcotest.test_case "console" `Quick test_console_hypercall;
          Alcotest.test_case "grant flow" `Quick test_grant_flow;
          Alcotest.test_case "ABI numbers" `Quick test_hypercall_numbers_distinct;
          Alcotest.test_case "cpuid emulation" `Quick test_cpuid_emulation;
          Alcotest.test_case "sev-es semantics" `Quick test_sev_es_semantics;
          Alcotest.test_case "msr emulation" `Quick test_msr_emulation ] );
      ( "granttab",
        [ Alcotest.test_case "encode/decode" `Quick test_granttab_encode;
          Alcotest.test_case "find_free" `Quick test_granttab_find_free ] );
      ( "events-store",
        [ Alcotest.test_case "event channels" `Quick test_event_channels;
          Alcotest.test_case "parked event delivery" `Quick test_event_parked_delivery;
          Alcotest.test_case "xenstore" `Quick test_xenstore ] );
      ( "block",
        [ Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "ring backpressure" `Quick test_ring_backpressure;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          QCheck_alcotest.to_alcotest prop_ring_matches_bounded_queue;
          Alcotest.test_case "vdisk" `Quick test_vdisk;
          Alcotest.test_case "blkif roundtrip" `Quick test_blkif_roundtrip;
          Alcotest.test_case "chunking" `Quick test_blkif_large_transfer_chunks;
          Alcotest.test_case "validation" `Quick test_blkif_validation;
          Alcotest.test_case "malformed descriptors" `Quick test_blkif_malformed_descriptors;
          QCheck_alcotest.to_alcotest prop_ring_descriptor_mutation;
          Alcotest.test_case "response without request" `Quick
            test_blkif_response_without_request;
          Alcotest.test_case "submit backpressure" `Quick test_blkif_submit_backpressure;
          Alcotest.test_case "batch-1 golden pins" `Quick test_blkif_batch1_golden;
          QCheck_alcotest.to_alcotest prop_batch_invariance ] );
      ("sched", [ Alcotest.test_case "round robin" `Quick test_sched ]) ]
