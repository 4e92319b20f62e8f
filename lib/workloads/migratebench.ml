module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng
module Pool = Fidelius_fleet.Pool
module Merge = Fidelius_fleet.Merge

type row = {
  vm : int;
  budget_us : float;
  rounds : int;
  pages_sent : int;
  residual_pages : int;
  downtime_us : float;
  key_delivered : bool;
}

type t = { rows : row list }

(* Same seeding discipline as Engine: a stable hash of the job identity, so
   VM k under budget b gets the same machines at any domain count. *)
let seed_of identity = Int64.add (Fidelius_crypto.Rng.seed_of_label identity) 17L

let memory_pages = 16

let page c = Bytes.make Hw.Addr.page_size c

(* One job = one complete migration: both simulated hosts, the guest, the
   owner and the dirty-page state all belong to this job alone (SCALING.md
   state-ownership rule), so the pool can shard jobs freely. *)
let run_vm ~budget_us vm =
  let seed = seed_of (Printf.sprintf "migratebench/vm%d/%.3f" vm budget_us) in
  let m1 = Hw.Machine.create ~seed () in
  let hv1 = Xen.Hypervisor.boot m1 in
  let fid1 = Core.Fidelius.install hv1 in
  let m2 = Hw.Machine.create ~seed:(Int64.add seed 7L) () in
  let hv2 = Xen.Hypervisor.boot m2 in
  let fid2 = Core.Fidelius.install hv2 in
  let rng = Rng.create (Int64.add seed 77L) in
  let prepared =
    Sev.Transport.Owner.prepare ~rng
      ~platform_public:(Core.Fidelius.platform_key fid1)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ page 'K'; page 'L' ]
  in
  let dom =
    match
      Core.Fidelius.boot_protected_vm fid1
        ~name:(Printf.sprintf "mig%d" vm)
        ~memory_pages ~prepared
    with
    | Ok d -> d
    | Error e -> failwith ("migratebench boot: " ^ e)
  in
  (* The guest's working set halves every round: round r dirties
     max(1, (N/2) >> r) pages. Convergence is therefore guaranteed and the
     pages-sent vs downtime-budget trade-off is strictly monotone — a
     larger budget stops the pre-copy strictly earlier. *)
  let w0 = memory_pages / 2 in
  let mutate round =
    let w = min (max 1 (w0 lsr round)) (memory_pages - 1) in
    for p = 1 to w do
      Xen.Hypervisor.in_guest hv1 dom (fun () ->
          Xen.Domain.write m1 dom
            ~addr:(Hw.Addr.addr_of p 0)
            (Bytes.of_string (Printf.sprintf "round %d touch" round)))
    done
  in
  let owner = Core.Migrate.Owner.create (Rng.create (Int64.add seed 99L)) in
  let config = { Core.Migrate.downtime_budget_us = budget_us } in
  match Core.Migrate.migrate_live ~config ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
  | Error e -> failwith ("migratebench: " ^ Core.Migrate.error_to_string e)
  | Ok (dom', rep) ->
      let key_delivered =
        Core.Migrate.Owner.released owner
        && Bytes.equal
             (Core.Fidelius.kblk_of_guest fid2 dom')
             (Core.Migrate.Owner.disk_key owner)
      in
      { vm;
        budget_us;
        rounds = rep.Core.Migrate.rounds;
        pages_sent = rep.Core.Migrate.pages_sent;
        residual_pages = rep.Core.Migrate.residual_pages;
        downtime_us = rep.Core.Migrate.downtime_us;
        key_delivered }

let run ?domains ?(vms = 8) ~budget_us () =
  if vms < 0 then invalid_arg "Migratebench.run: vms must be >= 0";
  { rows = Pool.map ?domains ~njobs:vms (run_vm ~budget_us) }

let csv t =
  Merge.csv
    ~header:"vm,budget_us,rounds,pages_sent,residual_pages,downtime_us,key_delivered"
    (List.map
       (fun r ->
         [ Printf.sprintf "%d,%.1f,%d,%d,%d,%.1f,%b" r.vm r.budget_us r.rounds r.pages_sent
             r.residual_pages r.downtime_us r.key_delivered ])
       t.rows)

let total_pages t = List.fold_left (fun acc r -> acc + r.pages_sent) 0 t.rows
let all_keys_delivered t = List.for_all (fun r -> r.key_delivered) t.rows
