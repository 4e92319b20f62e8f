(* Wall-clock sections: Bechamel measurements of the hot primitives and
   the perf delta and gate over them, the fleet scaling curve and its
   gates, the serve ring rates and its gate, and the fleet live-migration
   sweep. Their rates depend on the host; the full sections record them in
   results/bench.json, the gates only compare. Only the serve sweep's
   simulated-time rows and the migration sweep's per-VM CSV are
   deterministic. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Core = Fidelius_core
module W = Fidelius_workloads
module Rng = Fidelius_crypto.Rng
module Json = Fidelius_obs.Json

(* A failed wall-clock check: its message on stderr, exit 1. *)
let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* Wall-clock seconds of [f ()] from a freshly compacted heap, so that
   every timed run starts from the same major-heap state; and its result. *)
let timed f =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* ---- results/bench.json ---------------------------------------------------------- *)

(* results/bench.json is one JSON object mapping each key to a number.
   Several sections record into it (bechamel, fleet, serve, migrate-fleet),
   each merging into what is there. A missing file is an empty baseline;
   one that does not parse is an error naming the file, never a silent
   loss of keys. *)
let bench_json = Filename.concat "results" "bench.json"

let read_bench_json ~who =
  if not (Sys.file_exists bench_json) then Json.Obj []
  else
    let fail why =
      Printf.printf "%s: FAIL — cannot parse %s (%s); move it aside to record a fresh one.\n"
        who bench_json why;
      exit 1
    in
    match Json.parse (In_channel.with_open_bin bench_json In_channel.input_all) with
    | Json.Obj _ as j -> j
    | _ -> fail "not a JSON object"
    | exception Json.Parse_error e -> fail e

let bench_value k baseline =
  match Json.member k baseline with Some (Json.Float v) -> Some v | _ -> None

let update_bench_json kvs =
  let kept =
    match read_bench_json ~who:"bench.json" with
    | Json.Obj fields -> List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) fields
    | _ -> []
  in
  let j = Json.Obj (kept @ List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  Out_channel.with_open_bin (Paper.output_path bench_json) (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n');
  Printf.printf "  [written: %s]\n" bench_json

(* ---- Bechamel ------------------------------------------------------------------------ *)

(* [quota] bounds the measurement time per test; the smoke variant uses a
   tiny quota so CI can catch perf-path breakage (a primitive that stops
   running at all, or regresses by an order of magnitude) in seconds.
   Smoke numbers are noisy, so only the full run records results/bench.json
   (the machine-readable perf trajectory future changes compare against). *)
let bechamel ?(quota = 0.25) ?(record = true) () =
  Paper.header "Bechamel: real wall-clock cost of the hot primitives (ns/run)";
  (* Which silicon ran the crypto numbers below — without this a bench.json
     delta between two machines (or a VM masking AES-NI) is uninterpretable. *)
  Printf.printf "  crypto backends: aes=%s sha256=%s (cpu: %s)\n\n"
    (Fidelius_crypto.Aes.backend ()) Fidelius_crypto.Sha256.backend
    (String.concat " " (Fidelius_crypto.Aes.cpu_features ()));
  let open Bechamel in
  let open Toolkit in
  let rng = Rng.create 99L in
  let key = Fidelius_crypto.Aes.expand (Rng.bytes rng 16) in
  let block = Rng.bytes rng 16 in
  let page = Rng.bytes rng 4096 in
  let kilobyte = Rng.bytes rng 1024 in
  let sixty_four = Rng.bytes rng 64 in
  let m, hv, fid = Paper.stack 95L in
  let dom = Paper.boot_guest fid "bench" 8 in
  let pit = fid.Core.Ctx.pit in
  let exec_ok = Hw.Mmu.exec_ok m hv.Xen.Hypervisor.host_space in
  let smep_on = Hw.Insn.cr4 ~smep:true in
  (* The BMT entries run against their own machine so their tree/ledger
     traffic can't perturb the stack the gate benchmarks measure. The
     fetch-check input is dumped once, outside the staged closure: the
     entry times the O(1) check itself, not a page copy per run. *)
  let bm = Hw.Machine.create ~nr_frames:256 ~seed:97L () in
  let bmt_frames = List.init 256 (fun i -> i) in
  let bmt = Hw.Bmt.create bm ~frames:bmt_frames in
  let fetched = Hw.Physmem.dump bm.Hw.Machine.mem 100 in
  let batch64 = List.init 64 (fun i -> 3 * i) in
  (* xex-span-4KiB writes into this preallocated buffer so the entry times
     the cipher alone; the allocating xex-page-4KiB entry above it keeps
     measuring what callers of the wrapper actually pay. *)
  let span_dst = Bytes.create 4096 in
  (* Built once: the staged closure below would otherwise allocate this
     thunk per run, charging closure construction to the guest-read entry. *)
  let read64 () = Xen.Domain.read m dom ~addr:0x2000 ~len:64 in
  let tests =
    Test.make_grouped ~name:"fidelius"
      [ Test.make ~name:"aes-128-block" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Aes.encrypt_block key block)));
        Test.make ~name:"xex-page-4KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Modes.xex_encrypt key ~tweak:0x40L page)));
        Test.make ~name:"xex-span-4KiB" (Staged.stage (fun () ->
            Fidelius_crypto.Modes.xex_encrypt_span key ~tweak0:0x40L ~tweak_step:16L
              ~src:page ~src_off:0 ~dst:span_dst ~dst_off:0 ~len:4096));
        Test.make ~name:"ctr-4KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Modes.ctr_transform key ~nonce:0x99L page)));
        Test.make ~name:"ecb-4KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Modes.ecb_encrypt key page)));
        Test.make ~name:"sha256-1KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Sha256.digest kilobyte)));
        Test.make ~name:"sha256-64B" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Sha256.digest sixty_four)));
        Test.make ~name:"bmt-fetch-check" (Staged.stage (fun () ->
            ignore (Hw.Bmt.verify_fetched bmt 100 ~data:fetched)));
        Test.make ~name:"bmt-update-batch-64pages" (Staged.stage (fun () ->
            Hw.Bmt.update_many bmt batch64));
        Test.make ~name:"pit-lookup" (Staged.stage (fun () -> ignore (Core.Pit.get pit 100)));
        Test.make ~name:"gate1-crossing" (Staged.stage (fun () ->
            ignore (Core.Gate.with_type1 fid (fun () -> Ok ()))));
        Test.make ~name:"checking-loop" (Staged.stage (fun () ->
            ignore (Hw.Insn.execute m.Hw.Machine.insns ~exec_ok Hw.Insn.Mov_cr4 smep_on)));
        Test.make ~name:"void-hypercall" (Staged.stage (fun () ->
            ignore (Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Void)));
        Test.make ~name:"guest-read-64B" (Staged.stage (fun () ->
            ignore (Xen.Hypervisor.in_guest hv dom read64))) ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  let estimates =
    List.filter_map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] ->
            Printf.printf "  %-28s %12.1f ns/run\n" name est;
            Some (name, est)
        | _ ->
            Printf.printf "  %-28s (no estimate)\n" name;
            None)
      (benchmark ())
  in
  (* Fail loudly (smoke included) if a tracked primitive stops producing a
     number — a silently vanished key would otherwise survive in
     bench.json as a stale measurement forever. *)
  List.iter
    (fun k ->
      if not (List.mem_assoc k estimates) then
        fail "bechamel: no estimate for required benchmark %S" k)
    [ "fidelius/aes-128-block"; "fidelius/xex-page-4KiB"; "fidelius/xex-span-4KiB";
      "fidelius/ctr-4KiB"; "fidelius/ecb-4KiB"; "fidelius/sha256-1KiB";
      "fidelius/sha256-64B"; "fidelius/bmt-fetch-check"; "fidelius/bmt-update-batch-64pages";
      "fidelius/pit-lookup"; "fidelius/gate1-crossing"; "fidelius/checking-loop";
      "fidelius/void-hypercall"; "fidelius/guest-read-64B" ];
  (* Merge, don't clobber: the fleet section owns the fleet/* keys. *)
  if record then update_bench_json estimates;
  estimates

(* ---- perf delta ------------------------------------------------------------------------ *)

(* Compare the recorded perf trajectory (results/bench.json, written by the
   last full `bechamel`/`fleet` run; results/ is untracked, so the
   baseline is per-checkout)
   against a fresh measurement of the same primitives. *)
let perf () =
  let baseline = read_bench_json ~who:"perf" in
  let empty = baseline = Json.Obj [] in
  if empty then Printf.printf "perf: no results/bench.json baseline; recording one first.\n";
  let fresh = bechamel ~record:empty () in
  Paper.header "Perf delta: recorded baseline -> this build";
  Printf.printf "  %-28s %14s %14s %9s\n" "benchmark" "baseline" "now" "speedup";
  List.iter
    (fun (name, now) ->
      match bench_value name baseline with
      | Some was ->
          Printf.printf "  %-28s %11.1f ns %11.1f ns %8.2fx\n" name was now (was /. now)
      | None -> Printf.printf "  %-28s %14s %11.1f ns\n" name "(new)" now)
    fresh

(* ---- perf gate ------------------------------------------------------------------------ *)

(* CI regression gate over the per-access fast path. The pinned keys are
   the primitives this repo has specifically optimised; anything else in
   bench.json (crypto throughput, fleet numbers) is tracked by `perf` but
   not gated, so an unrelated change is not blocked by a noisy AES run.

   A key fails when the fresh measurement is more than [threshold] times
   the recorded baseline. 2x is deliberately loose: the 1-core CI
   container jitters by tens of percent run to run, and the gate exists to
   catch structural regressions (a closure reintroduced on the crossing, a
   gate re-copying the VMCB), which cost integer factors, not percents.
   Keys that look regressed are re-measured once and judged on the better
   of the two runs before the gate fails.

   PERF_GATE_SKIP=1 skips the gate (for hosts where wall-clock measurement
   is meaningless, e.g. heavily shared builders). *)
let perf_gate_keys =
  [ "fidelius/void-hypercall"; "fidelius/guest-read-64B";
    "fidelius/gate1-crossing"; "fidelius/checking-loop";
    "fidelius/bmt-update-batch-64pages" ]

let perf_gate () =
  if Sys.getenv_opt "PERF_GATE_SKIP" = Some "1" then
    Printf.printf "perf-gate: SKIPPED (PERF_GATE_SKIP=1)\n"
  else begin
    let threshold = 2.0 in
    (* A fresh checkout has no results/bench.json (results/ is regenerable and
       untracked): nothing to gate against, so SKIP loudly rather than fail.
       A baseline that exists but lacks a pinned key is different — that is a
       key silently falling out of the perf trajectory, and it fails. *)
    if not (Sys.file_exists bench_json) then begin
      Printf.printf
        "perf-gate: SKIP — no results/bench.json baseline on this checkout; \
         run `make perf` on a quiet host to record one.\n";
      exit 0
    end;
    let baseline = read_bench_json ~who:"perf-gate" in
    let missing = List.filter (fun k -> bench_value k baseline = None) perf_gate_keys in
    if missing <> [] then begin
      Printf.printf
        "perf-gate: FAIL — results/bench.json lacks pinned key(s) %s; run `make perf` \
         on a quiet host to refresh the recorded baseline.\n"
        (String.concat ", " missing);
      exit 1
    end;
    let measure () = bechamel ~record:false () in
    let judge fresh k =
      let was = Option.get (bench_value k baseline) in
      match List.assoc_opt k fresh with
      | None -> Some (k, was, nan)
      | Some now -> if now > threshold *. was then Some (k, was, now) else None
    in
    let fresh = measure () in
    let regressed = List.filter_map (judge fresh) perf_gate_keys in
    let regressed =
      if regressed = [] then []
      else begin
        Printf.printf "perf-gate: %d key(s) look regressed; re-measuring once...\n"
          (List.length regressed);
        let again = measure () in
        let best =
          List.map
            (fun (k, v) ->
              match List.assoc_opt k again with
              | Some v' when v' < v -> (k, v')
              | _ -> (k, v))
            fresh
        in
        List.filter_map (judge best) perf_gate_keys
      end
    in
    Paper.header "Perf gate: pinned fast-path keys vs recorded baseline";
    List.iter
      (fun k ->
        let was = Option.get (bench_value k baseline) in
        let now = Option.value ~default:nan (List.assoc_opt k fresh) in
        let flag = if List.exists (fun (k', _, _) -> k' = k) regressed then "FAIL" else "ok" in
        Printf.printf "  %-34s %11.1f ns -> %11.1f ns  %s\n" k was now flag)
      perf_gate_keys;
    if regressed <> [] then begin
      List.iter
        (fun (k, was, now) ->
          Printf.printf
            "perf-gate: FAIL — %s regressed beyond %.1fx (baseline %.1f ns, now %.1f ns)\n"
            k threshold was now)
        regressed;
      exit 1
    end;
    Printf.printf "perf-gate: OK (all pinned keys within %.1fx of baseline)\n" threshold
  end

(* ---- fleet scaling (SCALING.md) ---------------------------------------------------- *)

(* One fleet run of [vms] VMs on [domains] workers, streaming its CSV and
   trace to [csv] and [trace]: wall-clock seconds and the run's summary.
   The artifacts are deterministic at any domain count (the fleet
   determinism contract, pinned in test/test_fleet.ml); only the time is
   not. *)
let time_fleet ~csv ~trace ~vms domains =
  timed (fun () -> W.Fleetbench.run_stream ~domains ~vms ~csv ~trace ())

(* Per-worker GC/alloc report — the reproducible diagnosis behind the
   arena refactor (SCALING.md "Profiling a flat curve"): words allocated
   per VM tell you how often each worker drags every other domain into a
   stop-the-world minor-GC rendezvous, and turn waits how often a worker
   finished a VM before that VM's turn to be written and blocked. *)
let print_gc_stats gc =
  Printf.printf "  %8s %6s %10s %14s %14s %14s %8s %8s %12s\n" "worker" "jobs" "turn-waits"
    "minor-words" "promoted" "major-words" "minorGC" "majorGC" "minor/VM";
  List.iter
    (fun (g : W.Fleetbench.gc_stats) ->
      Printf.printf "  %8d %6d %10d %14.3e %14.3e %14.3e %8d %8d %12.3e\n" g.W.Fleetbench.worker
        g.W.Fleetbench.jobs g.W.Fleetbench.turn_waits g.W.Fleetbench.minor_words
        g.W.Fleetbench.promoted_words g.W.Fleetbench.major_words
        g.W.Fleetbench.minor_collections g.W.Fleetbench.major_collections
        (g.W.Fleetbench.minor_words /. float_of_int (max 1 g.W.Fleetbench.jobs)))
    gc

let fleet_outputs () =
  (Paper.output_path (Filename.concat "results" "fleet.csv"),
   Paper.output_path (Filename.concat "results" "fleet_trace.json"))

(* Each timed entry must see the same heap: one untimed warmup so
   first-run effects (code paging, lazy init) don't land on the first
   entry, and a compaction before each run so all start from the same
   major-heap state. No entry retains anything heavier than its per-VM
   row list — each VM's trace events are written to the trace file, in
   VM order, as soon as its turn comes — so back-to-back entries do not
   drift the heap (what once read as a scaling inversion). *)
let fleet ?(vms = 16) ?(domain_counts = [ 1; 2; 4; 8 ]) ?(gc_stats = false) () =
  Paper.header
    (Printf.sprintf
       "Fleet: %d protected-VM simulations sharded across OCaml domains (see SCALING.md)" vms);
  let csv, trace = fleet_outputs () in
  ignore (time_fleet ~csv ~trace ~vms:(min vms 4) 1);
  Printf.printf "%8s %10s %10s %10s\n" "domains" "seconds" "VMs/sec" "speedup";
  let runs = List.map (fun d -> (d, time_fleet ~csv ~trace ~vms d)) domain_counts in
  let base_dt = match runs with (_, (dt, _)) :: _ -> dt | [] -> 1.0 in
  let curve =
    List.map
      (fun (d, (dt, _)) ->
        let rate = float_of_int vms /. dt in
        Printf.printf "%8d %10.3f %10.1f %9.2fx\n" d dt rate (base_dt /. dt);
        (Printf.sprintf "fleet/vms-per-sec-d%d" d, rate))
      runs
  in
  if gc_stats then
    List.iter
      (fun (d, (_, s)) ->
        Printf.printf "\n  GC per worker domain at --domains %d:\n" d;
        print_gc_stats s.W.Fleetbench.gc)
      runs;
  Printf.printf "  [written: %s]\n  [written: %s]\n" csv trace;
  update_bench_json curve

(* CI gate for the scaling curve: d4 must beat d1 by at least 2.0x — a
   soft floor below the 2.5x acceptance target so a noisy shared 4-core
   runner does not flake — and the gate self-skips (exit 0, loud
   message) where the hardware cannot express the property at all. *)
let fleet_scale ?(vms = 32) () =
  Paper.header "Fleet scale gate: d4 vs d1 VMs/sec (soft floor 2.0x, target 2.5x)";
  let rec_d = Fidelius_fleet.Pool.recommended_domains () in
  if rec_d < 4 then
    Printf.printf
      "fleet-scale: SKIP — recommended_domains() = %d < 4: the worker-domain cap multiplexes \
       --domains 4 onto %d worker(s) here, so d4/d1 is structurally ~1.0x and asserting on it \
       would only measure noise. Run on a 4+-core host.\n"
      rec_d rec_d
  else begin
    let csv, trace = fleet_outputs () in
    let rate d = float_of_int vms /. fst (time_fleet ~csv ~trace ~vms d) in
    ignore (time_fleet ~csv ~trace ~vms:(min vms 4) 1);
    let r1 = rate 1 in
    let r4 = rate 4 in
    let ratio = r4 /. r1 in
    Printf.printf "%8s %10s\n%8d %10.1f\n%8d %10.1f\n  d4/d1 = %.2fx\n" "domains" "VMs/sec" 1
      r1 4 r4 ratio;
    if ratio < 2.0 then begin
      Printf.printf
        "fleet-scale: FAIL — d4 ran only %.2fx faster than d1 (floor 2.0x): the curve has gone \
         flat again; profile with `fidelius_sim fleet --gc-stats` (SCALING.md, \"Profiling a flat \
         curve\"; its turn-waits column counts VMs blocked on write order).\n"
        ratio;
      exit 1
    end
    else Printf.printf "fleet-scale: OK (%.2fx >= 2.0x)\n" ratio
  end

(* Fleet wall-clock smoke: asking for more domains must not make the run
   slower (the scaling inversion the worker-domain cap fixed), in a few
   seconds. Generous slack (d2 may be up to 1/0.7 = 1.43x slower) because
   a smoke box is noisy; the real curve is recorded by the full fleet
   section. Before the worker-domain cap in Fidelius_fleet.Pool, d2 was
   reliably beyond even this slack on a single-core host. The exact
   fleet checks (artifacts at any domain count, the bounded live heap)
   are test_fleet's. *)
let fleet_smoke () =
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("fidelius-" ^ name) in
  let csv = tmp "fleet-smoke.csv" and trace = tmp "fleet-smoke-trace.json" in
  let seconds d = fst (time_fleet ~csv ~trace ~vms:8 d) in
  (* One untimed run first, so first-run effects land on neither side. *)
  ignore (seconds 2);
  let t1 = seconds 1 in
  let t2 = seconds 2 in
  Sys.remove csv;
  Sys.remove trace;
  let rate1 = 8.0 /. t1 and rate2 = 8.0 /. t2 in
  if rate2 < 0.7 *. rate1 then
    fail
      "fleet-smoke: scaling inversion: domains=2 ran at %.1f VMs/s vs %.1f VMs/s for \
       domains=1 (below the 0.7x slack)"
      rate2 rate1;
  Printf.printf "fleet-smoke: 8 VMs, d1 %.1f VMs/s vs d2 %.1f VMs/s: no inversion\n" rate1 rate2

(* ---- serve: traffic over the batched PV datapath --------------------------------------- *)

(* Wall-clock requests/second through the shared ring: the same kernel at
   1 and [batch] descriptors per doorbell. Median of three runs — the
   doorbell (a full protected-guest world switch) dominates the synchronous
   path, so the ratio is what the batching actually buys. *)
let ring_rates ?(iters = 4000) ?(runs = 3) batch =
  let kernel = W.Serve.ring_workload ~batch ~iters in
  kernel ();
  (* warmup *)
  let sample () = float_of_int iters /. fst (timed kernel) in
  let samples = List.sort compare (List.init runs (fun _ -> sample ())) in
  List.nth samples (runs / 2)

let serve ?requests ?batches () =
  Paper.header "Serve: open-loop mixed blk/net traffic over the batched PV datapath";
  let sync_rate = ring_rates 1 in
  let batch_rate = ring_rates 8 in
  Printf.printf
    "ring wall-clock: sync %.0f req/s, batch-8 %.0f req/s  (%.2fx per doorbell amortization)\n\n"
    sync_rate batch_rate (batch_rate /. sync_rate);
  let rows = Paper.serve_rows ?requests ?batches () in
  update_bench_json
    ([ ("serve/ring-req-per-sec-sync", sync_rate);
       ("serve/ring-req-per-sec-b8", batch_rate);
       ("serve/ring-speedup-b8", batch_rate /. sync_rate) ]
    @ List.concat_map
        (fun (r : W.Serve.report) ->
          let b = r.W.Serve.batch in
          [ (Printf.sprintf "serve/req-per-sec-b%d" b, r.W.Serve.rps);
            (Printf.sprintf "serve/p50-us-b%d" b, r.W.Serve.p50_us);
            (Printf.sprintf "serve/p99-us-b%d" b, r.W.Serve.p99_us);
            (Printf.sprintf "serve/hypercalls-b%d" b, float_of_int r.W.Serve.hypercalls) ])
        rows)

(* Serve wall-clock smoke: the batched datapath must still amortize the
   doorbell. Seconds, not minutes. The exact serve checks (a
   deterministic batch-1 report, fewer world switches at batch 8) are
   test_workloads'.

   Floor calibration: the original 3.5x slack (against a 5x full-bench
   ratio) dated from when the doorbell crossing cost ~14.5us of wall
   clock. The zero-alloc fast path cut the crossing roughly 3x, so the
   fixed cost that batching amortizes is a smaller share of each request
   and the honest wall-clock ratio landed at 2.3-3.7x on a 1-core box.
   The amortization claim itself (fewer world switches per request, ratio
   well above 1) is unchanged — the simulated-cycle ledger still shows the
   full doorbell saving — so the smoke floor is now 1.8x. *)
let serve_smoke () =
  let sync_rate = ring_rates ~iters:2000 1 in
  let batch_rate = ring_rates ~iters:2000 8 in
  let ratio = batch_rate /. sync_rate in
  if ratio < 1.8 then
    fail
      "serve-smoke: batch-8 ring throughput only %.2fx the synchronous path (smoke floor 1.8x)"
      ratio;
  Printf.printf "serve-smoke: ring batch-8 %.2fx sync\n" ratio

(* ---- fleet live migration under a downtime budget ------------------------------------ *)

(* The pages-sent vs downtime-budget trade-off across fleet sizes: every
   (budget, fleet) cell is a complete fleet of live migrations — both
   hosts, attesting owner, secret injection — sharded over OCaml domains.
   Pre-copy resends cost wire pages; a looser budget stops the pre-copy
   earlier, so total pages sent decreases monotonically as the budget
   grows (the guest's working set halves every round). All per-VM rows
   land in results/migrate.csv; the artifacts are deterministic at any
   domain count (the SCALING.md contract, pinned by test_migrate). *)
let migrate_fleet ?(budgets = [ 2.5; 10.0; 40.0 ]) ?(fleets = [ 8; 16 ]) () =
  Paper.header "Migrate: fleet live migration, pages sent vs downtime budget (attested key release)";
  Printf.printf "%10s %6s %10s %10s %13s %13s\n" "budget-us" "vms" "seconds" "VMs/sec"
    "total-pages" "avg-downtime";
  ignore (W.Migratebench.run ~domains:1 ~vms:2 ~budget_us:10.0 ());
  (* warmup *)
  let cells =
    List.concat_map
      (fun budget_us ->
        List.map
          (fun vms ->
            let dt, t = timed (fun () -> W.Migratebench.run ~vms ~budget_us ()) in
            if not (W.Migratebench.all_keys_delivered t) then
              failwith "migrate-fleet: a migration finished without its disk key";
            let pages = W.Migratebench.total_pages t in
            let downtime =
              List.fold_left (fun a r -> a +. r.W.Migratebench.downtime_us) 0.0
                t.W.Migratebench.rows
              /. float_of_int (max 1 vms)
            in
            Printf.printf "%10.1f %6d %10.3f %10.1f %13d %11.1fus\n" budget_us vms dt
              (float_of_int vms /. dt) pages downtime;
            (budget_us, vms, dt, pages, t))
          fleets)
      budgets
  in
  let rows = List.concat_map (fun (_, _, _, _, t) -> t.W.Migratebench.rows) cells in
  Paper.write_result "migrate.csv" (W.Migratebench.csv { W.Migratebench.rows });
  update_bench_json
    (List.concat_map
       (fun (budget_us, vms, dt, pages, _) ->
         [ (Printf.sprintf "migrate/vms-per-sec-b%g-f%d" budget_us vms, float_of_int vms /. dt);
           (Printf.sprintf "migrate/total-pages-b%g-f%d" budget_us vms, float_of_int pages) ])
       cells)
