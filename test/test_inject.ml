(* Tests for the fault-injection subsystem: the single-shot firing
   budget, the no-perturbation property (a plan armed on a site the run
   never reaches is byte-identical to no plan at all, ledger and trace
   included), typed fail-closed migration errors under transport faults,
   and matrix determinism on a reduced cell set. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Hv = Xen.Hypervisor
module Domain = Xen.Domain
module Rng = Fidelius_crypto.Rng
module Site = Fidelius_inject.Site
module Plan = Fidelius_inject.Plan
module Matrix = Fidelius_inject_matrix.Matrix
module Trace = Fidelius_obs.Trace

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let page c = Bytes.make Hw.Addr.page_size c

let installed ?(seed = 61L) () =
  let m = Hw.Machine.create ~seed () in
  let hv = Hv.boot m in
  let fid = Fid.install hv in
  (m, hv, fid)

let protected_vm ?(memory_pages = 16) fid name =
  let rng = Rng.create 62L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ page 'A'; page 'B'; page 'C' ]
  in
  ok (Fid.boot_protected_vm fid ~name ~memory_pages ~prepared)

(* --- plan mechanics ----------------------------------------------------- *)

let with_installed plan f =
  Plan.install plan;
  Fun.protect ~finally:Plan.uninstall f

let test_single_shot_budget () =
  let plan = Plan.make ~seed:1L Site.Dram_flip in
  with_installed plan (fun () ->
      Alcotest.(check bool) "first occurrence fires" true (Plan.fire Site.Dram_flip);
      Alcotest.(check bool) "budget exhausted" false (Plan.fire Site.Dram_flip);
      Alcotest.(check bool) "other sites never armed" false (Plan.fire Site.Fw_drop));
  Alcotest.(check bool) "firing recorded" true (Plan.fired plan)

(* --- a plan that never fires perturbs nothing --------------------------- *)

(* Drive a representative workload (protected boot, guest writes and reads,
   a TLB-flushing remap cycle) and return every observable the harness
   cares about: final ledger total, per-category ledger, and the full
   trace. Under a plan armed on a site the workload never reaches — a plan
   that fires with probability 0 on this run — all of it must be
   byte-identical to a run with no plan installed, although every
   [Plan.armed ()] guard now takes its armed branch. *)
let unreached_sites =
  [ Site.Snapshot_truncate; Site.Snapshot_flip; Site.Round_truncate; Site.Stale_firmware;
    Site.Secret_before_attest ]

let observable_run ~machine_seed ~plan =
  let m, hv, fid = installed ~seed:machine_seed () in
  let ring = Trace.ring () in
  Option.iter Plan.install plan;
  Fun.protect ~finally:Plan.uninstall
    (fun () ->
      Trace.record_into ring ~clock:(fun () -> Hw.Cost.total m.Hw.Machine.ledger) (fun () ->
          let dom = protected_vm fid "prob0" in
          Hv.in_guest hv dom (fun () ->
              Domain.write m dom ~addr:0x5000 (Bytes.of_string "observable payload"));
          let b = Hv.in_guest hv dom (fun () -> Domain.read m dom ~addr:0x5000 ~len:18) in
          Alcotest.(check string) "workload readback" "observable payload" (Bytes.to_string b));
      ( Hw.Cost.total m.Hw.Machine.ledger,
        Hw.Cost.categories m.Hw.Machine.ledger,
        Trace.to_jsonl ring ))

let test_unreached_plan_is_inert =
  QCheck.Test.make ~name:"probability-0 plan perturbs nothing" ~count:5
    QCheck.(pair (int_bound 1000) (make ~print:Site.to_string (Gen.oneofl unreached_sites)))
    (fun (seed, site) ->
      let machine_seed = Int64.of_int (seed + 1) in
      let base = observable_run ~machine_seed ~plan:None in
      let plan = Plan.make ~seed:5L site in
      let armed = observable_run ~machine_seed ~plan:(Some plan) in
      base = armed && not (Plan.fired plan))

(* --- migration under transport faults ----------------------------------- *)

let migration_pair () =
  let _, hv1, fid1 = installed ~seed:81L () in
  let dom = protected_vm fid1 "traveller" in
  Hv.in_guest hv1 dom (fun () ->
      Domain.write hv1.Hv.machine dom ~addr:0x6000 (Bytes.of_string "runtime state"));
  let _, _, fid2 = installed ~seed:82L () in
  (fid1, dom, fid2)

(* The snapshot-* sites act on UPDATE frames inside [Wire.transmit]; both
   faults must surface as typed errors of the live driver, with the source
   guest left running. *)
let test_truncated_snapshot_fails_closed () =
  let fid1, dom, fid2 = migration_pair () in
  with_installed
    (Plan.make ~seed:3L Site.Snapshot_truncate)
    (fun () ->
      match Core.Migrate.migrate_live ~src:fid1 ~dst:fid2 dom with
      | Error (Core.Migrate.Truncated { expected; got }) ->
          Alcotest.(check bool) "page deficit reported" true (got < expected)
      | Error e -> Alcotest.fail ("expected Truncated, got " ^ Core.Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "truncated snapshot was accepted");
  Alcotest.(check bool) "source still running" true (dom.Domain.state = Domain.Runnable)

(* The flipped ciphertext must be caught by the target platform's
   measurement check, so the refusal is [Rejected], not a generic error. *)
let test_flipped_snapshot_fails_closed () =
  let fid1, dom, fid2 = migration_pair () in
  with_installed
    (Plan.make ~seed:3L Site.Snapshot_flip)
    (fun () ->
      match Core.Migrate.migrate_live ~src:fid1 ~dst:fid2 dom with
      | Error (Core.Migrate.Rejected _) -> ()
      | Error e -> Alcotest.fail ("expected Rejected, got " ^ Core.Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "bit-flipped snapshot was accepted");
  Alcotest.(check bool) "source still running" true (dom.Domain.state = Domain.Runnable)

(* --- matrix -------------------------------------------------------------- *)

let reduced_attacks () =
  match Fidelius_attacks.Suite.all with
  | a :: b :: _ -> [ a; b ]
  | _ -> Alcotest.fail "attack suite too small"

let test_matrix_deterministic () =
  let run () =
    Matrix.run ~seed:11L
      ~sites:[ Site.Snapshot_truncate; Site.Fw_drop ]
      ~attacks:(reduced_attacks ()) ()
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "same seed, identical report" true (r1 = r2);
  Alcotest.(check int) "2 sites x 2 stacks" 4 (List.length r1.Matrix.cells)

let test_matrix_fidelius_clean_on_transport_faults () =
  let report =
    Matrix.run ~seed:11L
      ~sites:[ Site.Snapshot_truncate; Site.Snapshot_flip ]
      ~attacks:(reduced_attacks ()) ()
  in
  Alcotest.(check bool) "no silent corruption in the Fidelius column" true
    (Matrix.fidelius_clean report);
  List.iter
    (fun (c : Matrix.cell) ->
      if c.Matrix.stack = Matrix.Fidelius then
        Alcotest.(check bool)
          (Site.to_string c.Matrix.site ^ " detected on Fidelius")
          true
          (c.Matrix.verdict = Matrix.Detected))
    report.Matrix.cells

(* The DRAM disturbance sites are the ones the BMT's O(1) inline fetch
   check exists for: a flipped or misrouted fill reaches the Fidelius stack
   through Integrity.verified_read, whose armed fetch check hashes exactly
   the delivered bytes against the stored leaf. Plain SEV has nothing
   watching and garbles state silently — the differential the paper's
   Section 8 extension closes. *)
let test_matrix_dram_faults_detected_by_fetch_check () =
  let report =
    Matrix.run ~seed:11L
      ~sites:[ Site.Dram_flip; Site.Dram_remap ]
      ~attacks:(reduced_attacks ()) ()
  in
  List.iter
    (fun (c : Matrix.cell) ->
      match c.Matrix.stack with
      | Matrix.Fidelius ->
          Alcotest.(check string)
            (Site.to_string c.Matrix.site ^ " detected on Fidelius")
            "detected"
            (Matrix.verdict_to_string c.Matrix.verdict)
      | Matrix.Plain_sev ->
          Alcotest.(check string)
            (Site.to_string c.Matrix.site ^ " silent on plain SEV")
            "SILENT-CORRUPTION"
            (Matrix.verdict_to_string c.Matrix.verdict))
    report.Matrix.cells

let () =
  Alcotest.run "inject"
    [ ( "plan",
        [ Alcotest.test_case "single-shot budget" `Quick test_single_shot_budget;
          QCheck_alcotest.to_alcotest test_unreached_plan_is_inert ] );
      ( "migration-faults",
        [ Alcotest.test_case "truncation fails closed" `Quick
            test_truncated_snapshot_fails_closed;
          Alcotest.test_case "bit flip fails closed" `Quick test_flipped_snapshot_fails_closed ]
      );
      ( "matrix",
        [ Alcotest.test_case "deterministic" `Quick test_matrix_deterministic;
          Alcotest.test_case "fidelius column clean" `Quick
            test_matrix_fidelius_clean_on_transport_faults;
          Alcotest.test_case "dram faults caught by fetch check" `Quick
            test_matrix_dram_faults_detected_by_fetch_check ] )
    ]
