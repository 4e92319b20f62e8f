(* Tests for the workload engine and the shape of the paper's performance
   results (Figures 5 and 6, Table 3). Absolute values are simulator cycle
   counts; what the paper's evaluation establishes — and what these tests
   pin — is the *ordering* and rough magnitude of the overheads. *)

module W = Fidelius_workloads
module Profile = W.Profile
module Engine = W.Engine
module Fio = W.Fio

let find_spec name = List.find (fun p -> p.Profile.name = name) W.Spec2006.all

(* cache the expensive suite runs, as (profile, Fidelius %, Fidelius-enc %) *)
let overheads profiles = List.map (fun (p, f, e, _) -> (p, f, e)) (Engine.run_suite profiles)
let spec = lazy (overheads W.Spec2006.all)
let parsec = lazy (overheads W.Parsec.all)
let fio = lazy (Fio.table ())

let avg f rows = List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)

let test_profiles_complete () =
  Alcotest.(check int) "11 SPEC programs" 11 (List.length W.Spec2006.all);
  Alcotest.(check int) "13 PARSEC programs" 13 (List.length W.Parsec.all);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.Profile.name ^ " sane") true
        (p.Profile.total_mcycles > 0
        && p.Profile.mem_stall_fraction >= 0.0
        && p.Profile.mem_stall_fraction < 1.0
        && p.Profile.working_set_pages > 0
        && p.Profile.vmexits >= 0))
    (W.Spec2006.all @ W.Parsec.all)

let test_run_result_shape () =
  let p = find_spec "bzip2" in
  let r = Engine.run p Engine.Xen_baseline in
  Alcotest.(check bool) "positive cycles" true (r.Engine.cycles > 0);
  Alcotest.(check bool) "sampled access cost" true (r.Engine.per_access > 0.0);
  Alcotest.(check bool) "sampled exit cost" true (r.Engine.per_exit > 0.0);
  Alcotest.(check bool) "breakdown populated" true (List.length r.Engine.breakdown > 0)

let test_determinism () =
  let p = find_spec "mcf" in
  let a = Engine.run p Engine.Fidelius_enc in
  let b = Engine.run p Engine.Fidelius_enc in
  Alcotest.(check int) "identical reruns" a.Engine.cycles b.Engine.cycles

let test_fidelius_overhead_small () =
  (* Paper: Fidelius alone costs < 1% on average (Figures 5 and 6). *)
  let savg = avg (fun (_, f, _) -> f) (Lazy.force spec) in
  let pavg = avg (fun (_, f, _) -> f) (Lazy.force parsec) in
  Alcotest.(check bool) (Printf.sprintf "SPEC fidelius avg %.2f%% in (0, 2)" savg) true
    (savg > 0.0 && savg < 2.0);
  Alcotest.(check bool) (Printf.sprintf "PARSEC fidelius avg %.2f%% in (0, 1)" pavg) true
    (pavg > 0.0 && pavg < 1.0)

let test_spec_enc_shape () =
  (* mcf and omnetpp are the memory-bound outliers; bzip2/hmmer/h264ref are
     nearly free; the suite average lands near the paper's 5.38%. *)
  let rows = Lazy.force spec in
  let enc name = match List.find_opt (fun (p, _, _) -> p.Profile.name = name) rows with
    | Some (_, _, e) -> e
    | None -> Alcotest.fail ("missing " ^ name)
  in
  Alcotest.(check bool) "mcf in [15, 20]" true (enc "mcf" > 15.0 && enc "mcf" < 20.0);
  Alcotest.(check bool) "omnetpp in [14, 19]" true (enc "omnetpp" > 14.0 && enc "omnetpp" < 19.0);
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " < 1.5%") true (enc n < 1.5))
    [ "bzip2"; "hmmer"; "h264ref" ];
  Alcotest.(check bool) "mcf is the worst" true
    (List.for_all (fun (p, _, e) -> p.Profile.name = "mcf" || e <= enc "mcf") rows);
  let a = avg (fun (_, _, e) -> e) rows in
  Alcotest.(check bool) (Printf.sprintf "SPEC enc avg %.2f%% in [4, 7]" a) true
    (a > 4.0 && a < 7.0)

let test_parsec_enc_shape () =
  let rows = Lazy.force parsec in
  let enc name = match List.find_opt (fun (p, _, _) -> p.Profile.name = name) rows with
    | Some (_, _, e) -> e
    | None -> Alcotest.fail ("missing " ^ name)
  in
  Alcotest.(check bool) "canneal in [12, 17]" true
    (enc "canneal" > 12.0 && enc "canneal" < 17.0);
  Alcotest.(check bool) "canneal is the outlier" true
    (List.for_all (fun (p, _, e) -> p.Profile.name = "canneal" || e < 5.0) rows);
  let a = avg (fun (_, _, e) -> e) rows in
  Alcotest.(check bool) (Printf.sprintf "PARSEC enc avg %.2f%% in [1, 3.5]" a) true
    (a > 1.0 && a < 3.5)

let test_enc_dominates_fid () =
  (* Memory encryption always costs at least as much as Fidelius alone. *)
  List.iter
    (fun (p, f, e) ->
      Alcotest.(check bool) (p.Profile.name ^ ": enc >= fid") true (e >= f -. 0.05))
    (Lazy.force spec @ Lazy.force parsec)

let test_per_access_costs_ordered () =
  let p = find_spec "mcf" in
  let base = Engine.run p Engine.Xen_baseline in
  let fid = Engine.run p Engine.Fidelius in
  let enc = Engine.run p Engine.Fidelius_enc in
  Alcotest.(check bool) "fidelius alone doesn't tax memory" true
    (abs_float (fid.Engine.per_access -. base.Engine.per_access)
     < 0.1 *. base.Engine.per_access);
  Alcotest.(check bool) "SME taxes memory" true
    (enc.Engine.per_access > 1.15 *. base.Engine.per_access);
  Alcotest.(check bool) "fidelius taxes exits" true
    (fid.Engine.per_exit > 1.2 *. base.Engine.per_exit)

(* --- fio / Table 3 ---------------------------------------------------------- *)

let fio_row name =
  match List.find_opt (fun r -> r.Fio.pattern.Fio.pat_name = name) (Lazy.force fio) with
  | Some r -> r
  | None -> Alcotest.fail ("missing fio pattern " ^ name)

let test_fio_patterns_present () =
  Alcotest.(check int) "four rows" 4 (List.length (Lazy.force fio));
  List.iter (fun n -> ignore (fio_row n)) [ "rand-read"; "seq-read"; "rand-write"; "seq-write" ]

let test_fio_shape () =
  let rr = fio_row "rand-read" and sr = fio_row "seq-read" in
  let rw = fio_row "rand-write" and sw = fio_row "seq-write" in
  (* Paper Table 3: seq-read is by far the worst (22.91%), writes are mild
     (0.70% / 3.61%), rand-read small (1.38%). *)
  Alcotest.(check bool)
    (Printf.sprintf "seq-read %.1f%% in [18, 28]" sr.Fio.slowdown_pct)
    true
    (sr.Fio.slowdown_pct > 18.0 && sr.Fio.slowdown_pct < 28.0);
  Alcotest.(check bool) "rand-read < 3%" true (rr.Fio.slowdown_pct < 3.0);
  Alcotest.(check bool) "rand-write < 2%" true (rw.Fio.slowdown_pct < 2.0);
  Alcotest.(check bool) "seq-write in [2, 6]" true
    (sw.Fio.slowdown_pct > 2.0 && sw.Fio.slowdown_pct < 6.0);
  Alcotest.(check bool) "seq-read is the worst row" true
    (List.for_all (fun r -> r.Fio.slowdown_pct <= sr.Fio.slowdown_pct) (Lazy.force fio))

let test_fio_rates_positive () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Fio.pattern.Fio.pat_name ^ " rates positive") true
        (r.Fio.xen_rate > 0.0 && r.Fio.fidelius_rate > 0.0 && r.Fio.fidelius_rate <= r.Fio.xen_rate))
    (Lazy.force fio)

let test_fio_random_much_slower_than_seq () =
  (* 4K random I/O is orders of magnitude slower than streaming, as on real
     disks (paper: 1.5 MB/s vs 1196 MB/s). *)
  let rr = fio_row "rand-read" and sr = fio_row "seq-read" in
  let rr_mbs = rr.Fio.xen_rate /. 1024.0 in
  Alcotest.(check bool) "seq >> rand" true (sr.Fio.xen_rate > 10.0 *. rr_mbs)

(* --- golden seeds ------------------------------------------------------------ *)

(* The figure and table CSVs themselves are pinned by the behaviour contract
   (test/contract/dune diffs bench's fig5, fig6 and tab3 CSVs against
   test/golden). *)
let test_seed_stability () =
  (* The FNV-1a-derived seeds are part of the golden contract. *)
  Alcotest.(check bool) "distinct per config" true
    (Engine.seed_of (find_spec "mcf") Engine.Fidelius
    <> Engine.seed_of (find_spec "mcf") Engine.Fidelius_enc);
  Alcotest.(check bool) "distinct per profile" true
    (Engine.seed_of (find_spec "mcf") Engine.Fidelius
    <> Engine.seed_of (find_spec "bzip2") Engine.Fidelius);
  Alcotest.(check bool) "positive" true
    (List.for_all
       (fun p ->
         List.for_all
           (fun c -> Engine.seed_of p c > 0L)
           [ Engine.Xen_baseline; Engine.Fidelius; Engine.Fidelius_enc ])
       (W.Spec2006.all @ W.Parsec.all))

(* A backing recycled after another profile's run gives the same result
   record as a fresh one: the arena reset leaves nothing of the first VM. *)
let test_recycled_backing () =
  let by_size =
    List.sort
      (fun a b -> compare b.Profile.working_set_pages a.Profile.working_set_pages)
      (W.Spec2006.all @ W.Parsec.all)
  in
  let big = List.hd by_size and small = List.nth by_size (List.length by_size - 1) in
  let mem = Fidelius_hw.Physmem.create ~nr_frames:Fidelius_hw.Machine.default_nr_frames in
  ignore (Engine.run ~mem big Engine.Fidelius_enc);
  let recycled = Engine.run ~mem small Engine.Fidelius_enc in
  Alcotest.(check bool) "same result record" true
    (recycled = Engine.run small Engine.Fidelius_enc)

let test_config_names () =
  Alcotest.(check string) "xen" "xen" (Engine.config_to_string Engine.Xen_baseline);
  Alcotest.(check string) "fidelius" "fidelius" (Engine.config_to_string Engine.Fidelius);
  Alcotest.(check string) "fidelius-enc" "fidelius-enc" (Engine.config_to_string Engine.Fidelius_enc)

(* --- serve: the batched PV datapath -------------------------------------- *)

let serve batch = W.Serve.run { W.Serve.batch; requests = 64 }

let test_serve_deterministic () =
  Alcotest.(check bool) "the batch-1 report is deterministic" true (serve 1 = serve 1)

let test_serve_batching_fewer_hypercalls () =
  let r1 = serve 1 and r8 = serve 8 in
  Alcotest.(check bool)
    (Printf.sprintf "batch 8 takes fewer hypercalls (%d) than batch 1 (%d)" r8.W.Serve.hypercalls
       r1.W.Serve.hypercalls)
    true
    (r8.W.Serve.hypercalls < r1.W.Serve.hypercalls)

let () =
  Alcotest.run "workloads"
    [ ( "profiles",
        [ Alcotest.test_case "complete" `Quick test_profiles_complete;
          Alcotest.test_case "run shape" `Quick test_run_result_shape;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "recycled backing" `Quick test_recycled_backing;
          Alcotest.test_case "config names" `Quick test_config_names ] );
      ( "figures",
        [ Alcotest.test_case "fidelius avg < 1-2%" `Slow test_fidelius_overhead_small;
          Alcotest.test_case "SPEC enc shape (Fig 5)" `Slow test_spec_enc_shape;
          Alcotest.test_case "PARSEC enc shape (Fig 6)" `Slow test_parsec_enc_shape;
          Alcotest.test_case "enc >= fid" `Slow test_enc_dominates_fid;
          Alcotest.test_case "per-op cost ordering" `Quick test_per_access_costs_ordered ] );
      ( "fio",
        [ Alcotest.test_case "patterns" `Quick test_fio_patterns_present;
          Alcotest.test_case "Table 3 shape" `Quick test_fio_shape;
          Alcotest.test_case "rates" `Quick test_fio_rates_positive;
          Alcotest.test_case "rand vs seq" `Quick test_fio_random_much_slower_than_seq ] );
      ( "serve",
        [ Alcotest.test_case "batch-1 report is deterministic" `Quick test_serve_deterministic;
          Alcotest.test_case "batch 8 takes fewer hypercalls" `Quick
            test_serve_batching_fewer_hypercalls ] );
      ( "golden",
        [ Alcotest.test_case "seed stability" `Quick test_seed_stability ] ) ]
