module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng

type config = { requests : int; batch : int }

let default_config = { requests = 512; batch = 8 }

(* The traffic mix: 30% of batches are network exchanges, offered at 0.8
   of calibrated capacity, from seed 97. *)
let net_fraction = 30
let load = 0.8
let seed = 97L

type report = {
  batch : int;
  completed : int;
  rps : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  mean_service_cycles : float;
  hypercalls : int;
  blk_notifications : int;
  net_frames : int;
}

let disk_sectors = 4096
let frame_bytes = 192

type stack = {
  machine : Hw.Machine.t;
  hv : Xen.Hypervisor.t;
  frontend : Xen.Blkif.frontend;
  backend : Xen.Blkif.backend;
  net_guest : Xen.Netif.endpoint;
  net_peer : Xen.Netif.endpoint;
  wire : Xen.Netif.wire;
}

(* The paper's deployment scenario: a protected guest whose disk traffic is
   Kblk ciphertext under the AES-NI codec. The peer on the wire is a plain
   helper domain standing in for the remote client. *)
let boot_stack seed =
  let machine = Hw.Machine.create ~seed () in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Core.Fidelius.install hv in
  let rng = Rng.create (Int64.add seed 5L) in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Core.Fidelius.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  let dom =
    match Core.Fidelius.boot_protected_vm fid ~name:"serve" ~memory_pages:32 ~prepared with
    | Ok d -> d
    | Error e -> failwith ("serve: protected boot: " ^ e)
  in
  let kblk = Core.Fidelius.kblk_of_guest fid dom in
  let disk = Xen.Vdisk.create ~nr_sectors:disk_sectors in
  let frontend, backend =
    match
      Xen.Blkif.connect ~ring_size:32 ~buffer_pages:8 hv dom ~disk ~buffer_gvfn:100
    with
    | Ok (fe, be) -> (fe, be)
    | Error e -> failwith ("serve: blkif connect: " ^ e)
  in
  Xen.Blkif.set_codec frontend (Core.Fidelius.aesni_codec fid ~kblk);
  let wire = Xen.Netif.create_wire () in
  let net_guest =
    match Xen.Netif.connect hv dom ~wire ~buffer_gvfn:200 with
    | Ok ep -> ep
    | Error e -> failwith ("serve: guest netif: " ^ e)
  in
  let peer_dom = Xen.Hypervisor.create_domain hv ~name:"peer" ~memory_pages:8 in
  let net_peer =
    match Xen.Netif.connect hv peer_dom ~wire ~buffer_gvfn:50 with
    | Ok ep -> ep
    | Error e -> failwith ("serve: peer netif: " ^ e)
  in
  { machine; hv; frontend; backend; net_guest; net_peer; wire }

(* --- one batch of work ------------------------------------------------- *)

type kind = Blk_read | Blk_write | Net_exchange

let pick_kind rng =
  if Rng.int rng 100 < net_fraction then Net_exchange
  else if Rng.int rng 2 = 0 then Blk_read
  else Blk_write

let payload len = Bytes.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let frame i = Bytes.init frame_bytes (fun j -> Char.chr ((i + (j * 13)) land 0xff))

let fail_on label = function Ok v -> v | Error e -> failwith ("serve: " ^ label ^ ": " ^ e)

(* One doorbell's worth of work: [batch] page-sized block requests, or a
   [batch]-frame request/response exchange on the wire. *)
let run_batch st (cfg : config) rng kind =
  let spf = Xen.Blkif.sectors_per_frame in
  match kind with
  | Blk_read ->
      let sector = Rng.int rng (disk_sectors - (cfg.batch * spf)) in
      ignore
        (fail_on "read"
           (Xen.Blkif.read_sectors ~batch:cfg.batch st.frontend ~sector
              ~count:(cfg.batch * spf)))
  | Blk_write ->
      let sector = Rng.int rng (disk_sectors - (cfg.batch * spf)) in
      fail_on "write"
        (Xen.Blkif.write_sectors ~batch:cfg.batch st.frontend ~sector
           (payload (cfg.batch * spf * Xen.Vdisk.sector_size)))
  | Net_exchange ->
      let reqs = List.init cfg.batch frame in
      fail_on "net send" (Xen.Netif.send_batch st.net_guest reqs);
      let got = fail_on "net recv" (Xen.Netif.recv_batch st.net_peer) in
      if List.length got <> cfg.batch then failwith "serve: net exchange lost frames";
      fail_on "net reply" (Xen.Netif.send_batch st.net_peer got);
      let back = fail_on "net recv reply" (Xen.Netif.recv_batch st.net_guest) in
      if List.length back <> cfg.batch then failwith "serve: net reply lost frames"

(* --- open-loop driver --------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let run (cfg : config) =
  let cfg = { cfg with batch = max 1 (min 8 cfg.batch) } in
  let st = boot_stack seed in
  let ledger = st.machine.Hw.Machine.ledger in
  let rng = Rng.create (Int64.add seed 17L) in
  (* Closed-loop calibration: mean service cycles per request sets the
     open-loop arrival gap. *)
  let calib_kinds = [ Blk_read; Blk_write; Net_exchange; Blk_read ] in
  let c0 = Hw.Cost.total ledger in
  List.iter (fun k -> run_batch st cfg rng k) calib_kinds;
  let mean_service =
    float_of_int (Hw.Cost.total ledger - c0)
    /. float_of_int (List.length calib_kinds * cfg.batch)
  in
  let gap = mean_service /. load in
  let groups = max 1 (cfg.requests / cfg.batch) in
  let completed = groups * cfg.batch in
  let latencies = Array.make completed 0.0 in
  let vmexit0 = fst (Xen.Hypervisor.stats st.hv) in
  let notif0 = Xen.Blkif.notifications st.backend in
  let clock = ref 0.0 in
  let arrival = ref 0.0 in
  let idx = ref 0 in
  for _ = 1 to groups do
    let arrivals =
      Array.init cfg.batch (fun _ ->
          let jitter = 0.5 +. (float_of_int (Rng.int rng 1001) /. 1000.0) in
          arrival := !arrival +. (gap *. jitter);
          !arrival)
    in
    (* The batch launches once its last member has arrived and the server
       is free. *)
    let start = Float.max !clock arrivals.(cfg.batch - 1) in
    let b0 = Hw.Cost.total ledger in
    run_batch st cfg rng (pick_kind rng);
    clock := start +. float_of_int (Hw.Cost.total ledger - b0);
    Array.iter
      (fun a ->
        latencies.(!idx) <- !clock -. a;
        incr idx)
      arrivals
  done;
  let hypercalls = fst (Xen.Hypervisor.stats st.hv) - vmexit0 in
  let blk_notifications = Xen.Blkif.notifications st.backend - notif0 in
  Array.sort compare latencies;
  (* Simulated clock: 1 GHz — one cycle is one nanosecond. *)
  let to_us c = c /. 1000.0 in
  { batch = cfg.batch;
    completed;
    rps = float_of_int completed /. (!clock /. 1e9);
    p50_us = to_us (percentile latencies 0.50);
    p90_us = to_us (percentile latencies 0.90);
    p99_us = to_us (percentile latencies 0.99);
    mean_service_cycles = mean_service;
    hypercalls;
    blk_notifications;
    net_frames = Xen.Netif.frames_forwarded st.wire }

(* --- wall-clock ring kernel for the bench harness ----------------------- *)

let ring_workload ~batch ~iters =
  let batch = max 1 (min 8 batch) in
  let st = boot_stack 41L in
  let req i =
    { Xen.Ring.req_id = Xen.Blkif.fresh_req_id st.frontend;
      op = Xen.Ring.Read;
      sector = 0;
      count = 1;
      data_gref = Xen.Blkif.data_gref st.frontend ~page:i;
      data_off = 0 }
  in
  fun () ->
    for _ = 1 to iters / batch do
      match Xen.Blkif.submit_batch st.frontend (List.init batch req) with
      | Ok statuses ->
          if List.exists Result.is_error statuses then failwith "serve: ring kernel: rejected"
      | Error e -> failwith ("serve: ring kernel: " ^ e)
    done
