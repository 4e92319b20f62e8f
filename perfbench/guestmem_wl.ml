(* guest-mem: a protected guest's own memory traffic under the integrity
   extension (Core.Integrity over Hw.Bmt), with void hypercalls mixed in.
   No PV rings: the per-access path (Mmu, Tlb, Cache, Memctrl XEX), the
   BMT hashing and the world switch do the work. Closed loop, one op
   outstanding. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng

let pages = 1024
let access = 64

(* Three quarters of the accesses go to 48 hot pages (192 KiB), which fit
   the modelled 256 KiB cache; the rest are spread over the whole 4 MiB.
   Page 0 holds the disk key and is never touched. *)
let hot_pages = 48
let hot_share = 75

type kind = Verified_read | Plain_read | Write | Hypercall

(* Decks of 20: 12 verified reads, 2 plain reads, 4 writes and 2 void
   hypercalls (60/10/20/10), shuffled per seed. *)
let deck =
  Array.concat
    [ Array.make 12 Verified_read; Array.make 2 Plain_read; Array.make 4 Write; Array.make 2 Hypercall ]

let s_op = Spans.name "op.guest-mem"
let s_verified = Spans.name "core.integrity.verified_read"
let s_plain = Spans.name "xen.domain.read"
let s_write = Spans.name "core.integrity.guest_write"
let s_hypercall = Spans.name "xen.hypervisor.hypercall"

type outcome = Read_at of int * bytes | Done

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
        Util.ok "guest-mem: protected boot"
          (Core.Fidelius.boot_protected_vm fid ~name:"guest-mem" ~memory_pages:pages ~prepared))
  in
  let integ = Wl.step "core.integrity.protect" (fun () -> Core.Integrity.protect fid dom) in
  let gen = Rng.create (Int64.add seed64 23L) in
  (* The guest's memory as the benchmark last wrote it, filled whole at
     set-up so every read has a known expected content. *)
  let shadow = Rng.bytes gen (pages * Hw.Addr.page_size) in
  Wl.step "bench.fill" (fun () ->
      for p = 1 to pages - 1 do
        Core.Integrity.guest_write integ ~addr:(Hw.Addr.addr_of p 0)
          (Bytes.sub shadow (p * Hw.Addr.page_size) Hw.Addr.page_size)
      done);
  let hot = Array.init hot_pages (fun _ -> 1 + Rng.int gen (pages - 1)) in
  let lines = Array.init 64 (fun _ -> Rng.bytes gen access) in
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
  let next_addr () =
    let page =
      if Rng.int gen 100 < hot_share then hot.(Rng.int gen hot_pages) else 1 + Rng.int gen (pages - 1)
    in
    Hw.Addr.addr_of page (access * Rng.int gen (Hw.Addr.page_size / access))
  in
  let last = ref Done in
  let op i =
    Spans.begin_op ~op:i s_op;
    (match next_kind () with
    | Verified_read ->
        let addr = next_addr () in
        Spans.enter s_verified;
        let r = Core.Integrity.verified_read integ ~addr ~len:access in
        Spans.leave ();
        last := Read_at (addr, Util.ok "guest-mem: verified read" r)
    | Plain_read ->
        let addr = next_addr () in
        Spans.enter s_plain;
        let data =
          Xen.Hypervisor.in_guest hv dom (fun () -> Xen.Domain.read machine dom ~addr ~len:access)
        in
        Spans.leave ();
        last := Read_at (addr, data)
    | Write ->
        let addr = next_addr () in
        let data = lines.(Rng.int gen (Array.length lines)) in
        Spans.enter s_write;
        Core.Integrity.guest_write integ ~addr data;
        Spans.leave ();
        Bytes.blit data 0 shadow addr access;
        last := Done
    | Hypercall ->
        Spans.enter s_hypercall;
        let r = Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Void in
        Spans.leave ();
        ignore (Util.ok "guest-mem: void hypercall" r);
        last := Done);
    Spans.leave ()
  in
  let check _ =
    match !last with
    | Read_at (addr, data) -> Bytes.equal data (Bytes.sub shadow addr access)
    | Done -> true
  in
  let counters () =
    let vmexits, npfs = Xen.Hypervisor.stats hv in
    Wl.ledger_counts [ machine.Hw.Machine.ledger ]
    @ [ ("xen.hypervisor.vmexits", vmexits);
        ("xen.hypervisor.npfs", npfs);
        ("hw.bmt.hashes", Core.Integrity.hashes_performed integ) ]
  in
  { Wl.batch = 1;
    workers = 1;
    rss_calls = 150_000;
    op;
    check;
    finish = (fun () -> Result.is_ok (Core.Integrity.verify_domain integ));
    exact = (fun () -> Wl.prefix ~n:4000 ~m:400 ~counters ~op ~check);
    layer = (fun () -> []);
    layer_metrics =
      Wl.boot_step_metrics
      @ [ "core.integrity.protect_ms";
          "bench.fill_ms";
          "xen.hypervisor.vmexits_per_op";
          "xen.hypervisor.npfs_per_op";
          "xen.hypervisor.hypercall_us_p50";
          "xen.domain.read_us_p50";
          "core.integrity.verified_read_us_p50";
          "core.integrity.guest_write_us_p50";
          "hw.bmt.hashes_per_op";
          "hw.cost.bmt_cycles_per_op";
          "hw.cost.dram_cycles_per_op";
          "hw.cost.enc-engine_cycles_per_op";
          "hw.cost.gate3_cycles_per_op";
          "hw.cost.shadow_cycles_per_op";
          "hw.cost.world-switch_cycles_per_op";
          "obs.trace.vmexit_per_op";
          "obs.trace.dram_per_op";
          "obs.trace.tlb-flush_per_op";
          "obs.trace.gate_per_op";
          "layer.xen.domain.self_us_per_op";
          "layer.xen.hypervisor.self_us_per_op";
          "layer.core.integrity.self_us_per_op" ] }
