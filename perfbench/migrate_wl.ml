(* migrate: one protected guest live-migrated back and forth between two
   long-lived Fidelius hosts, one migration per op (closed loop). Boots
   happen only at set-up, so the wire format, the firmware SEND/RECEIVE
   commands, the transport cipher and MAC and the attested key release
   do the work — and state that grows across migrations on a long-lived
   host shows up as drift. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng
module Migrate = Core.Migrate

let pages = 512
let record = 32

let s_op = Spans.name "op.migrate"
let s_live = Spans.name "core.migrate.migrate_live"
let s_mutate = Spans.name "guest.mutate"

type host = { machine : Hw.Machine.t; hv : Xen.Hypervisor.t; fid : Core.Fidelius.t }

let boot_host seed =
  let machine = Wl.step "hw.machine.create" (fun () -> Hw.Machine.create ~seed ()) in
  let hv = Wl.step "xen.hypervisor.boot" (fun () -> Xen.Hypervisor.boot machine) in
  let fid = Wl.step "core.fidelius.install" (fun () -> Core.Fidelius.install hv) in
  { machine; hv; fid }

type outcome = Migrated of Xen.Domain.t * Migrate.report * Migrate.Owner.t | Failed

let setup ~seed =
  let seed64 = Int64.of_int seed in
  let a = boot_host seed64 in
  let b = boot_host (Int64.add seed64 7L) in
  let prepared =
    Wl.step "sev.transport.owner_prepare" (fun () ->
        Sev.Transport.Owner.prepare ~rng:(Rng.create (Int64.add seed64 77L))
          ~platform_public:(Core.Fidelius.platform_key a.fid) ~policy:Sev.Firmware.policy_nodbg
          ~kernel_pages:[ Bytes.make Hw.Addr.page_size 'K'; Bytes.make Hw.Addr.page_size 'L' ])
  in
  let dom =
    Wl.step "core.fidelius.boot_protected_vm" (fun () ->
        Util.ok "migrate: protected boot"
          (Core.Fidelius.boot_protected_vm a.fid ~name:"traveller" ~memory_pages:pages ~prepared))
  in
  let gen = Rng.create (Int64.add seed64 31L) in
  (* The guest's working set: a seed-chosen order of its pages (page 0
     holds the disk key). Round r of a migration dirties the first
     max 1 (256 lsr r) of them, so the dirty set halves every round and
     pre-copy converges. *)
  let order = Array.init (pages - 1) (fun i -> i + 1) in
  for i = Array.length order - 1 downto 1 do
    let j = Rng.int gen (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let w0 = pages / 2 in
  (* What the guest last wrote at the head of each page it dirtied. *)
  let written = Array.make pages Bytes.empty in
  let touched = ref [] in
  let here = ref a and there = ref b and dom = ref dom in
  let last = ref Failed in
  let op i =
    Spans.begin_op ~op:i s_op;
    let src = !here and dst = !there and guest = !dom in
    touched := [];
    let mutate round =
      Spans.enter s_mutate;
      let stamp = Rng.bytes gen record in
      for k = 0 to min (max 1 (w0 lsr round)) (pages - 1) - 1 do
        let p = order.(k) in
        Xen.Hypervisor.in_guest src.hv guest (fun () ->
            Xen.Domain.write src.machine guest ~addr:(Hw.Addr.addr_of p 0) stamp);
        if written.(p) == Bytes.empty || round = 0 then touched := p :: !touched;
        written.(p) <- stamp
      done;
      Spans.leave ()
    in
    let owner = Migrate.Owner.create (Rng.create (Int64.add seed64 (Int64.of_int (1000 + i)))) in
    Spans.enter s_live;
    let r = Migrate.migrate_live ~owner ~mutate ~src:src.fid ~dst:dst.fid guest in
    Spans.leave ();
    (match r with
    | Ok (moved, rep) ->
        here := dst;
        there := src;
        dom := moved;
        last := Migrated (moved, rep, owner)
    | Error e ->
        last := Failed;
        failwith ("migrate: " ^ Migrate.error_to_string e));
    Spans.leave ()
  in
  (* The destination holds the owner's disk key, and every page the guest
     dirtied during the migration reads back as last written. *)
  let check _ =
    match !last with
    | Failed -> false
    | Migrated (moved, _, owner) ->
        let h = !here in
        Bytes.equal (Core.Fidelius.kblk_of_guest h.fid moved) (Migrate.Owner.disk_key owner)
        && List.for_all
             (fun p ->
               Bytes.equal written.(p)
                 (Xen.Hypervisor.in_guest h.hv moved (fun () ->
                      Xen.Domain.read h.machine moved ~addr:(Hw.Addr.addr_of p 0) ~len:record)))
             !touched
  in
  let pages_sent = ref 0 and rounds = ref 0 in
  let count_report i =
    match !last with
    | Migrated (_, rep, _) ->
        pages_sent := !pages_sent + rep.Migrate.pages_sent;
        rounds := !rounds + rep.Migrate.rounds;
        check i
    | Failed -> false
  in
  let counters () =
    let hosts = [ a; b ] in
    let sum f = List.fold_left (fun acc h -> acc + f h) 0 hosts in
    Wl.ledger_counts (List.map (fun h -> h.machine.Hw.Machine.ledger) hosts)
    @ [ ("xen.hypervisor.vmexits", sum (fun h -> fst (Xen.Hypervisor.stats h.hv)));
        ("xen.hypervisor.npfs", sum (fun h -> snd (Xen.Hypervisor.stats h.hv)));
        (* Frames the hosts no longer have free: its growth is the leak. *)
        ("hw.machine.frames_leaked", -sum (fun h -> Hw.Machine.frames_free h.machine));
        ("core.migrate.pages_sent", !pages_sent);
        ("core.migrate.rounds", !rounds) ]
  in
  { Wl.batch = 1;
    workers = 1;
    rss_calls = 40;
    op;
    check = count_report;
    finish = (fun () -> true);
    (* Even counts, so the prefix ends with the guest back on its first
       host and the leak per op covers whole A->B->A round trips. *)
    exact = (fun () -> Wl.prefix ~n:4 ~m:2 ~counters ~op ~check:count_report);
    layer = (fun () -> []);
    layer_metrics =
      Wl.boot_step_metrics
      @ [ "core.migrate.live_ms_p50";
          "core.migrate.mutate_us_per_op";
          "core.migrate.pages_sent_per_op";
          "core.migrate.rounds_per_op";
          "sev.firmware.SEND_START_per_op";
          "sev.firmware.SEND_UPDATE_per_op";
          "sev.firmware.SEND_FINISH_per_op";
          "sev.firmware.RECEIVE_START_per_op";
          "sev.firmware.RECEIVE_UPDATE_per_op";
          "sev.firmware.RECEIVE_FINISH_per_op";
          "sev.firmware.ATTEST_per_op";
          "sev.firmware.ACTIVATE_per_op";
          "sev.firmware.DEACTIVATE_per_op";
          "sev.firmware.DECOMMISSION_per_op";
          "hw.machine.frames_leaked_per_op";
          "hw.cost.dram_cycles_per_op";
          "hw.cost.enc-engine_cycles_per_op";
          "hw.cost.sev-fw_cycles_per_op";
          "obs.trace.dram_per_op";
          "obs.trace.walk_per_op";
          "obs.trace.tlb-flush_per_op";
          "obs.trace.gate_per_op";
          "layer.core.migrate.self_us_per_op";
          "layer.guest.self_us_per_op" ] }
