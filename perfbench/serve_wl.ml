(* serve: para-virtualised I/O from a protected guest, one doorbell batch
   per op, run back to back (closed loop, one op outstanding). The stack
   is the one Workloads.Serve boots: Kblk under the AES-NI codec on a
   32-slot block ring, plus a network wire to a plain peer domain.

   A Xen.Netif wire keeps every frame it forwards (dom0's snoop log), so
   this workload's heap grows by about 3.7 KB per exchange for as long as
   it runs; that is why peak RSS is read after a fixed number of ops. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng

let disk_sectors = 4096
let batch = 8
let span_sectors = batch * Xen.Blkif.sectors_per_frame
let span_bytes = span_sectors * Xen.Vdisk.sector_size
let frame_bytes = 192

type kind = Read | Write | Exchange

(* 70/30 block/network in decks of 20 ops holding exactly 7 reads, 7
   writes and 6 exchanges, shuffled per seed: every seed runs the same mix
   and only the order and the addresses vary, which keeps the spread
   between seeds small. *)
let deck = Array.concat [ Array.make 7 Read; Array.make 7 Write; Array.make 6 Exchange ]

let s_op = Spans.name "op.serve"
let s_read = Spans.name "xen.blkif.read_sectors"
let s_write = Spans.name "xen.blkif.write_sectors"
let s_exchange = Spans.name "xen.netif.exchange"
let s_send = Spans.name "xen.netif.send_batch"
let s_recv = Spans.name "xen.netif.recv_batch"
let s_encode = Spans.name "crypto.codec.encode"
let s_decode = Spans.name "crypto.codec.decode"

(* The installed codec, wrapped with span timers: the library calls it
   once per data frame, so its spans nest inside the ring call's. *)
let timed_codec (c : Xen.Blkif.codec) =
  { c with
    Xen.Blkif.encode =
      (fun ~sector b ->
        Spans.enter s_encode;
        let r = c.Xen.Blkif.encode ~sector b in
        Spans.leave ();
        r);
    decode =
      (fun ~sector b ->
        Spans.enter s_decode;
        let r = c.Xen.Blkif.decode ~sector b in
        Spans.leave ();
        r) }

type outcome =
  | Block of int * bytes  (** a read: its first sector and the data *)
  | Stored
  | Echo of bytes list * bytes list  (** frames sent, frames echoed back *)

let spanned label span f =
  Spans.enter span;
  let r = f () in
  Spans.leave ();
  Util.ok label r

let setup ~seed =
  let seed64 = Int64.of_int seed in
  let machine = Wl.step "hw.machine.create" (fun () -> Hw.Machine.create ~seed:seed64 ()) in
  let hv = Wl.step "xen.hypervisor.boot" (fun () -> Xen.Hypervisor.boot machine) in
  let fid = Wl.step "core.fidelius.install" (fun () -> Core.Fidelius.install hv) in
  let prepared =
    Wl.step "sev.transport.owner_prepare" (fun () ->
        Sev.Transport.Owner.prepare ~rng:(Rng.create (Int64.add seed64 5L))
          ~platform_public:(Core.Fidelius.platform_key fid) ~policy:Sev.Firmware.policy_nodbg
          ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ])
  in
  let dom =
    Wl.step "core.fidelius.boot_protected_vm" (fun () ->
        Util.ok "serve: protected boot"
          (Core.Fidelius.boot_protected_vm fid ~name:"serve" ~memory_pages:32 ~prepared))
  in
  let kblk = Core.Fidelius.kblk_of_guest fid dom in
  let disk = Xen.Vdisk.create ~nr_sectors:disk_sectors in
  let frontend, backend =
    Util.ok "serve: blkif connect"
      (Xen.Blkif.connect ~ring_size:32 ~buffer_pages:batch hv dom ~disk ~buffer_gvfn:100)
  in
  Xen.Blkif.set_codec frontend (timed_codec (Core.Fidelius.aesni_codec fid ~kblk));
  let wire = Xen.Netif.create_wire () in
  let guest = Util.ok "serve: guest netif" (Xen.Netif.connect hv dom ~wire ~buffer_gvfn:200) in
  let peer_dom = Xen.Hypervisor.create_domain hv ~name:"peer" ~memory_pages:8 in
  let peer = Util.ok "serve: peer netif" (Xen.Netif.connect hv peer_dom ~wire ~buffer_gvfn:50) in
  let gen = Rng.create (Int64.add seed64 17L) in
  let payloads = Array.init 16 (fun _ -> Rng.bytes gen span_bytes) in
  let frames = Array.init 32 (fun _ -> Rng.bytes gen frame_bytes) in
  (* The disk as the guest last wrote it. Filling it whole at set-up gives
     every later read a known expected content. *)
  let shadow = Bytes.create (disk_sectors * Xen.Vdisk.sector_size) in
  Wl.step "bench.fill" (fun () ->
      for k = 0 to (disk_sectors / span_sectors) - 1 do
        let p = payloads.(k mod Array.length payloads) in
        Util.ok "serve: fill" (Xen.Blkif.write_sectors ~batch frontend ~sector:(k * span_sectors) p);
        Bytes.blit p 0 shadow (k * span_bytes) span_bytes
      done);
  let order = Array.copy deck and pos = ref 0 in
  let next_kind () =
    if !pos = 0 then
      for i = Array.length order - 1 downto 1 do
        let j = Rng.int gen (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
    let k = order.(!pos) in
    pos := (!pos + 1) mod Array.length order;
    k
  in
  let last = ref Stored in
  let op i =
    Spans.begin_op ~op:i s_op;
    (match next_kind () with
    | Read ->
        let sector = Rng.int gen (disk_sectors - span_sectors) in
        let data =
          spanned "serve: read" s_read (fun () ->
              Xen.Blkif.read_sectors ~batch frontend ~sector ~count:span_sectors)
        in
        last := Block (sector, data)
    | Write ->
        let sector = Rng.int gen (disk_sectors - span_sectors) in
        let p = payloads.(Rng.int gen (Array.length payloads)) in
        spanned "serve: write" s_write (fun () -> Xen.Blkif.write_sectors ~batch frontend ~sector p);
        Bytes.blit p 0 shadow (sector * Xen.Vdisk.sector_size) span_bytes;
        last := Stored
    | Exchange ->
        let sent = List.init batch (fun _ -> frames.(Rng.int gen (Array.length frames))) in
        Spans.enter s_exchange;
        spanned "serve: send" s_send (fun () -> Xen.Netif.send_batch guest sent);
        let got = spanned "serve: peer recv" s_recv (fun () -> Xen.Netif.recv_batch peer) in
        spanned "serve: echo" s_send (fun () -> Xen.Netif.send_batch peer got);
        let back = spanned "serve: recv" s_recv (fun () -> Xen.Netif.recv_batch guest) in
        Spans.leave ();
        last := Echo (sent, back));
    Spans.leave ()
  in
  let check _ =
    match !last with
    | Block (sector, data) ->
        Bytes.equal data (Bytes.sub shadow (sector * Xen.Vdisk.sector_size) span_bytes)
    | Stored -> true
    | Echo (sent, back) -> List.equal Bytes.equal sent back
  in
  let counters () =
    let vmexits, npfs = Xen.Hypervisor.stats hv in
    Wl.ledger_counts [ machine.Hw.Machine.ledger ]
    @ [ ("xen.hypervisor.vmexits", vmexits);
        ("xen.hypervisor.npfs", npfs);
        ("xen.blkif.doorbells", Xen.Blkif.notifications backend);
        ("xen.blkif.rejected", Xen.Blkif.requests_rejected backend) ]
  in
  { Wl.batch = 1;
    workers = 1;
    rss_calls = 30_000;
    op;
    check;
    finish = (fun () -> true);
    exact = (fun () -> Wl.prefix ~n:2000 ~m:200 ~counters ~op ~check);
    layer = (fun () -> []);
    layer_metrics =
      Wl.boot_step_metrics
      @ [ "bench.fill_ms";
          "xen.blkif.read_sectors_us_p50";
          "xen.blkif.write_sectors_us_p50";
          "xen.netif.exchange_us_p50";
          "xen.blkif.doorbells_per_op";
          "xen.blkif.rejected";
          "crypto.codec.encode_us_p50";
          "crypto.codec.decode_us_p50";
          "crypto.codec.share";
          "xen.hypervisor.vmexits_per_op";
          "xen.hypervisor.npfs_per_op";
          "hw.cost.blk-io_cycles_per_op";
          "hw.cost.dram_cycles_per_op";
          "hw.cost.io-encode-aesni_cycles_per_op";
          "hw.cost.netif_cycles_per_op";
          "obs.trace.vmexit_per_op";
          "obs.trace.dram_per_op";
          "obs.trace.tlb-flush_per_op";
          "obs.trace.gate_per_op";
          "layer.xen.blkif.self_us_per_op";
          "layer.xen.netif.self_us_per_op";
          "layer.crypto.codec.self_us_per_op" ] }
