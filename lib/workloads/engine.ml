module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng

type config =
  | Xen_baseline
  | Fidelius
  | Fidelius_enc

let config_to_string = function
  | Xen_baseline -> "xen"
  | Fidelius -> "fidelius"
  | Fidelius_enc -> "fidelius-enc"

type result = {
  profile : Profile.t;
  config : config;
  cycles : int;
  per_access : float;
  per_exit : float;
  breakdown : (string * int) list;
  attribution : (string * int) list;
}

(* The sampled figures (and the golden CSVs pinned in the test suite) must
   be stable across OCaml releases, so the run seed is a fixed hash of the
   run's identity. *)
let seed_of profile config =
  Int64.add
    (Fidelius_crypto.Rng.seed_of_label (profile.Profile.name ^ "/" ^ config_to_string config))
    17L

let access_bytes = 64
let sample_accesses = 512
let sample_exits = 32

let boot_stack ?mem profile config seed =
  let machine = Hw.Machine.create ?mem ~seed () in
  (* If this domain is recording a trace (fleet shards capture one per
     VM), timestamp it in this machine's simulated cycles — never wall
     time — so the trace bytes depend only on the seed. *)
  if Fidelius_obs.Trace.enabled () then
    Fidelius_obs.Trace.set_clock (fun () -> Hw.Cost.total machine.Hw.Machine.ledger);
  let hv = Xen.Hypervisor.boot machine in
  let memory_pages = profile.Profile.working_set_pages + 8 in
  match config with
  | Xen_baseline ->
      let dom = Xen.Hypervisor.create_domain hv ~name:profile.Profile.name ~memory_pages in
      (machine, hv, dom)
  | Fidelius | Fidelius_enc -> (
      let fid = Core.Fidelius.install hv in
      let rng = Rng.create (Int64.add seed 3L) in
      let kernel = [ Bytes.make Hw.Addr.page_size '\000'; Bytes.make Hw.Addr.page_size '\000' ] in
      let prepared =
        Sev.Transport.Owner.prepare ~rng ~platform_public:(Core.Fidelius.platform_key fid)
          ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:kernel
      in
      match
        Core.Fidelius.boot_protected_vm fid ~name:profile.Profile.name ~memory_pages ~prepared
      with
      | Error e -> failwith ("engine: protected boot failed: " ^ e)
      | Ok dom ->
          (* The paper's testbed had no SEV-capable board: guests run
             without the C-bit, and Fidelius-enc turns on SME through the
             evaluation hypercall instead. *)
          for gvfn = 0 to memory_pages - 1 do
            Xen.Domain.guest_map dom ~gvfn ~gfn:gvfn ~writable:true ~executable:true
              ~c_bit:false
          done;
          (match config with
          | Fidelius_enc -> (
              match Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Enable_mem_enc with
              | Ok _ -> ()
              | Error e -> failwith ("engine: enable_mem_enc: " ^ e))
          | Fidelius | Xen_baseline -> ());
          (machine, hv, dom))

let run ?mem profile config =
  let seed = seed_of profile config in
  let machine, hv, dom = boot_stack ?mem profile config seed in
  let ledger = machine.Hw.Machine.ledger in
  let costs = machine.Hw.Machine.costs in
  let rng = Rng.create (Int64.add seed 101L) in
  let buf = Bytes.make access_bytes 'x' in
  (* Sample DRAM-reaching accesses: the stall fraction is defined over
     misses, so evict the target page's lines before each access. *)
  let t0 = Hw.Cost.total ledger in
  for _ = 1 to sample_accesses do
    let gvfn = 2 + Rng.int rng profile.Profile.working_set_pages in
    (match Hw.Pagetable.lookup dom.Xen.Domain.npt gvfn with
    | Some npte -> Hw.Cache.invalidate_page machine.Hw.Machine.cache npte.Hw.Pagetable.frame
    | None -> ());
    let addr = Hw.Addr.addr_of gvfn (Rng.int rng (Hw.Addr.page_size - access_bytes)) in
    Xen.Hypervisor.in_guest hv dom (fun () ->
        if Rng.float rng 1.0 < profile.Profile.write_fraction then
          Xen.Domain.write machine dom ~addr buf
        else ignore (Xen.Domain.read machine dom ~addr ~len:access_bytes))
  done;
  let per_access = float_of_int (Hw.Cost.total ledger - t0) /. float_of_int sample_accesses in
  let t1 = Hw.Cost.total ledger in
  for _ = 1 to sample_exits do
    match Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Void with
    | Ok _ -> ()
    | Error e -> failwith ("engine: void hypercall: " ^ e)
  done;
  let per_exit = float_of_int (Hw.Cost.total ledger - t1) /. float_of_int sample_exits in
  (* Extrapolate the sampled costs to the profile's operation counts. The
     operation counts are config-independent (same program): derived from
     the profile against the reference DRAM cost. *)
  let total_target = float_of_int (profile.Profile.total_mcycles * 1_000_000) in
  let ref_access = float_of_int (access_bytes / Hw.Addr.block_size * costs.Hw.Cost.dram_access) in
  let n_mem_ops = profile.Profile.mem_stall_fraction *. total_target /. ref_access in
  let compute_cycles = total_target -. (n_mem_ops *. ref_access) in
  let cycles =
    compute_cycles
    +. (n_mem_ops *. per_access)
    +. (float_of_int profile.Profile.vmexits *. per_exit)
  in
  { profile;
    config;
    cycles = int_of_float cycles;
    per_access;
    per_exit;
    breakdown = Hw.Cost.categories ledger;
    attribution = Hw.Cost.scopes ledger }

let overhead_pct ~base result =
  100.0 *. (float_of_int result.cycles -. float_of_int base.cycles)
  /. float_of_int base.cycles

let run_suite ?domains profiles =
  Fidelius_fleet.Pool.map_list ?domains
    (fun p ->
      let base = run p Xen_baseline in
      let fid = run p Fidelius in
      let enc = run p Fidelius_enc in
      (p, overhead_pct ~base fid, overhead_pct ~base enc, enc))
    profiles
