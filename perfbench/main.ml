(* The benchmark's main program: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   It sets the workload up several times (set-up time is the median), and
   after each set-up runs a fixed prefix of ops that yields the exact,
   host-independent counters; those must agree bit-for-bit between the
   set-ups and with any earlier run of the same build, workload and seed,
   or the run fails loudly. It then runs ops back to back for S seconds of
   host time, checking each op's outputs, and prints one JSON object as
   its last line: the end-to-end metrics with --trace 0, or, with
   --trace 1, the per-layer metrics of a run split into an untraced and a
   traced half. BENCHMARK.json names the metrics and their units. *)

module Json = Fidelius_obs.Json

let workloads =
  [ ("serve", Serve_wl.setup);
    ("guest-mem", Guestmem_wl.setup);
    ("migrate", Migrate_wl.setup);
    ("fleet", Fleet_wl.setup) ]

let setups = 3

(* Ops of the traced half whose spans go into the Chrome export. *)
let exported_ops = 200

(* Per-layer metrics every workload's traced run produces. *)
let common_layer_metrics =
  [ "hw.cost.other_cycles_per_op";
    "runtime.minor_words_per_op";
    "runtime.minor_collections_per_op";
    "op.traced_us_per_op";
    "op.residual_us_per_op";
    "op.residual_share";
    "trace.overhead_pct";
    "host.slowdown" ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 3)
    fmt

(* --- the metric listing ------------------------------------------------------ *)

(* BENCHMARK.json is the one list of metric names and units; a run
   prints exactly the listed ones. *)
let listed section =
  let doc =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | text -> Json.parse text
    | exception Sys_error e -> die "cannot read BENCHMARK.json: %s" e
  in
  match Json.member section doc with
  | Some (Json.Arr entries) ->
      List.map
        (fun e ->
          match (Json.member "name" e, Json.member "unit" e) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> die "BENCHMARK.json: malformed %s entry" section)
        entries
  | _ -> die "BENCHMARK.json: no %s list" section

(* --- exact counters ---------------------------------------------------------- *)

let exact_json (e : Wl.exact) =
  Json.Obj
    [ ("ops", Json.Int e.Wl.ops);
      ("census_ops", Json.Int e.Wl.census_ops);
      ("failed", Json.Int e.Wl.failed);
      ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.Wl.counts)) ]

(* The same build and seed must give the same counts in every run: the
   first run of a workload and seed by this executable records them,
   later runs of the same executable compare. The record is keyed by the
   executable's digest, so a changed program (whose counts may rightly
   differ) starts a record of its own instead of failing the check. *)
let check_against_earlier_runs ~workload ~seed e =
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path = Util.out_path (Printf.sprintf "exact-%s-seed%d-%s.json" workload seed build) in
  let mine = exact_json e in
  if Sys.file_exists path then begin
    let recorded = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
    if recorded <> mine then
      die "exact counters differ from the earlier run recorded in %s (now: %s)" path
        (Json.to_string mine)
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string mine))

let count (e : Wl.exact) k =
  match List.assoc_opt k e.Wl.counts with Some v -> v | None -> die "no exact counter %s" k

(* --- timed phases ------------------------------------------------------------ *)

(* Host time is reported per window of at least [window_ns] of time
   inside the calls. Each window's figures are scaled by the probe taken
   as the window closes (see [Util.probe]), and each host-time figure is
   the median over the windows, so neither a burst of contention nor one
   lucky window moves it much. *)
let window_ns = 250_000_000

type window = {
  w_ops : int;
  w_busy_ns : int;
  first_sample : int;
  samples : int;
  slowdown : float;  (** probe / nominal probe: above 1 on a slowed host *)
}

type phase = {
  latencies : Util.samples;  (** host µs per op, one sample per call *)
  windows : window list;  (** complete windows, in order *)
  calls : int;
  ops : int;
  failed : int;
  busy_ns : int;  (** host time inside the calls *)
  minor_collections : int;
  rss_mib : float;  (** peak RSS once [rss_calls] calls ran (or at the end) *)
}

let slowdown () = float_of_int (Util.probe ()) /. Util.nominal_probe_ns

let run_phase (inst : Wl.instance) ~first ~seconds =
  let latencies = Util.samples () in
  let deadline = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
  let i = ref first and failed = ref 0 and busy = ref 0 and rss = ref 0.0 in
  let windows = ref [] and w_start = ref 0 and w_busy = ref 0 in
  while Util.now_ns () < deadline && not (Spans.full ()) do
    let t0 = Util.now_ns () in
    let completed =
      match inst.Wl.op !i with
      | () -> true
      | exception _ ->
          Spans.unwind ();
          false
    in
    let dt = Util.now_ns () - t0 in
    busy := !busy + dt;
    Util.add latencies (float_of_int dt /. 1000.0 /. float_of_int inst.Wl.batch);
    if not (completed && inst.Wl.check !i) then failed := !failed + inst.Wl.batch;
    incr i;
    let calls = !i - first in
    if calls = inst.Wl.rss_calls then rss := Util.peak_rss_mib ();
    if !busy - !w_busy >= window_ns then begin
      windows :=
        { w_ops = (calls - !w_start) * inst.Wl.batch;
          w_busy_ns = !busy - !w_busy;
          first_sample = !w_start;
          samples = calls - !w_start;
          slowdown = slowdown () }
        :: !windows;
      w_start := calls;
      w_busy := !busy
    end
  done;
  let calls = !i - first in
  (* A phase too short for one complete window counts as one window. *)
  let windows =
    if !windows <> [] then List.rev !windows
    else
      [ { w_ops = calls * inst.Wl.batch;
          w_busy_ns = !busy;
          first_sample = 0;
          samples = calls;
          slowdown = slowdown () } ]
  in
  { latencies;
    windows;
    calls;
    ops = calls * inst.Wl.batch;
    failed = !failed;
    busy_ns = !busy;
    minor_collections = (Gc.quick_stat ()).Gc.minor_collections - gc0;
    rss_mib = (if !rss > 0.0 then !rss else Util.peak_rss_mib ()) }

let ops_per_s p =
  Util.median
    (List.map (fun w -> float_of_int w.w_ops /. Util.ns_to_s (max 1 w.w_busy_ns) *. w.slowdown) p.windows)

(* One latency sample per call, so the percentiles are a latency
   distribution only where a call is one op and a window holds many
   calls: serve and guest-mem. A fleet call runs the whole catalogue, so
   there every percentile is the window's mean time per VM; a migrate
   window holds about five migrations, so its p90 and p99 are the
   window's slowest migration. *)
let op_us p q =
  Util.median
    (List.map
       (fun w ->
         let a = Array.sub p.latencies.Util.data w.first_sample w.samples in
         Array.sort Float.compare a;
         Util.percentile a q /. w.slowdown)
       p.windows)

(* The phase's median slowdown, for scaling figures measured over all of it. *)
let median_slowdown p = Util.median (List.map (fun w -> w.slowdown) p.windows)

(* --- per-layer figures -------------------------------------------------------- *)

(* A count per op of the stretch it was counted over: trace events and
   firmware commands come from the traced census stretch. *)
let per_op (e : Wl.exact) k v =
  let census =
    String.starts_with ~prefix:"obs.trace." k || String.starts_with ~prefix:"sev.firmware." k
  in
  float_of_int v /. float_of_int (max 1 (if census then e.Wl.census_ops else e.Wl.ops))

let exact_figures ~listed_names (e : Wl.exact) =
  let figures =
    List.concat_map (fun (k, v) -> [ (k, float_of_int v); (k ^ "_per_op", per_op e k v) ]) e.Wl.counts
  in
  (* Ledger categories the listing does not name are summed into "other",
     so the hw.cost rows always add up to the charged ledger total per op:
     sim_cycles_per_op, except on fleet, whose sim_cycles_per_op is
     run_stream's extrapolation from the sampled ledger. *)
  let named_cost =
    List.fold_left
      (fun acc (n, v) ->
        if String.starts_with ~prefix:"hw.cost." n && List.mem n listed_names then acc +. v else acc)
      0.0 figures
  in
  let ledger = if List.mem_assoc "ledger_cycles" e.Wl.counts then "ledger_cycles" else "sim_cycles" in
  ("hw.cost.other_cycles_per_op", per_op e ledger (count e ledger) -. named_cost) :: figures

(* Figures from the traced half's spans. A figure derived from a named
   span exists only if that span was recorded, so a renamed or vanished
   span shows as a missing metric rather than as a zero. *)
let span_figures (r : Spans.report) ~untraced ~traced =
  if r.Spans.ops = 0 then die "the traced half recorded no op";
  let ops = float_of_int r.Spans.ops in
  (* Span times are scaled like the end-to-end ones. *)
  let scale = 1.0 /. median_slowdown traced in
  let us ns = ns /. 1e3 *. scale and ms ns = ns /. 1e6 *. scale in
  let total n = Option.map float_of_int (List.assoc_opt n r.Spans.total_ns) in
  let p50 n = Option.map (fun s -> Util.percentile s 0.5) (List.assoc_opt n r.Spans.durations) in
  let per_name =
    List.concat_map
      (fun (n, s) ->
        let p = Util.percentile s 0.5 and t = float_of_int (List.assoc n r.Spans.total_ns) in
        [ (n ^ "_us_p50", us p); (n ^ "_ms_p50", ms p); (n ^ "_us_per_op", us t /. ops) ])
      r.Spans.durations
  in
  let per_layer =
    List.map (fun (l, ns) -> ("layer." ^ l ^ ".self_us_per_op", us (float_of_int ns) /. ops)) r.Spans.self_ns
  in
  let op_ns = float_of_int (max 1 r.Spans.op_ns) in
  let derived =
    List.filter_map
      (fun (name, v) -> Option.map (fun v -> (name, v)) v)
      [ ( "crypto.codec.share",
          match (total "crypto.codec.encode", total "crypto.codec.decode") with
          | Some e, Some d -> Some ((e +. d) /. op_ns)
          | _ -> None );
        ("core.migrate.live_ms_p50", Option.map ms (p50 "core.migrate.migrate_live"));
        ("core.migrate.mutate_us_per_op", Option.map (fun t -> us t /. ops) (total "guest.mutate"));
        ("fleet.merge.concat_ms", Option.map ms (p50 "fleet.merge.concat_spills")) ]
  in
  let named =
    [ ("op.traced_us_per_op", us op_ns /. ops);
      ("op.residual_us_per_op", us (float_of_int r.Spans.residual_ns) /. ops);
      ("op.residual_share", float_of_int r.Spans.residual_ns /. op_ns);
      ("trace.overhead_pct",
        let u = ops_per_s untraced and t = ops_per_s traced in
        (u -. t) /. u *. 100.0);
      ("runtime.minor_collections_per_op",
        float_of_int untraced.minor_collections /. float_of_int (max 1 untraced.ops));
      ("host.slowdown", median_slowdown untraced) ]
  in
  named @ derived @ per_layer @ per_name

let setup_figures () = Hashtbl.fold (fun s _ acc -> (s ^ "_ms", Wl.step_ms s) :: acc) Wl.steps []

(* --- output -------------------------------------------------------------------- *)

let host_tag ~workload ~seed ~workers =
  Json.Obj
    [ ("cpu", Json.Str (Util.cpu_model ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("workers", Json.Int workers);
      ("aes_backend", Json.Str (Fidelius_crypto.Aes.backend ()));
      ("sha256_backend", Json.Str Fidelius_crypto.Sha256.backend);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("workload", Json.Str workload);
      ("seed", Json.Int seed) ]

(* Every listed metric is printed. A metric the run must produce but did
   not is an error; the ones this workload does not exercise (the other
   workloads' layers) read 0 and are named in [not_exercised], printed on
   the line before the result. *)
let result ~correct ~attempted ~failed ~listing ~required figures =
  List.iter (fun n -> if not (List.mem_assoc n listing) then die "%s is not listed in BENCHMARK.json" n) required;
  (match List.filter (fun n -> not (List.mem_assoc n figures)) required with
  | [] -> ()
  | missing -> die "the run did not produce %s" (String.concat ", " missing));
  let not_exercised = List.filter (fun (n, _) -> not (List.mem_assoc n figures)) listing |> List.map fst in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (List.assoc_opt name figures) in
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      listing
  in
  ( not_exercised,
    Json.Obj
      [ ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj metrics) ] )

(* --- main ------------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of serve, guest-mem, migrate, fleet");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let setup =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> die "unknown workload %S" !workload
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then die "bad --seconds or --trace";
  let listing = listed (if !trace = 1 then "per_layer" else "end_to_end") in
  Util.ensure_out_dir ();
  (* Set up several times; each set-up runs the exact prefix. *)
  let setup_s = ref [] and exacts = ref [] and inst = ref None in
  for _ = 1 to setups do
    inst := None;
    Gc.full_major ();
    let slow = slowdown () in
    let t0 = Util.now_ns () in
    let i = setup ~seed:!seed in
    setup_s := Util.ns_to_s (Util.now_ns () - t0) /. slow :: !setup_s;
    Wl.end_setup ~slowdown:slow;
    exacts := i.Wl.exact () :: !exacts;
    inst := Some i
  done;
  let inst = Option.get !inst in
  let exact = List.hd !exacts in
  (* The first set-up of a process also pays one-time initialisation of
     domain-local state, which shows in minor words; the later set-ups
     must agree exactly. *)
  List.iteri
    (fun k e ->
      if k < setups - 1 && exact_json e <> exact_json exact then
        die "exact counters differ between set-ups of one run: %s vs %s"
          (Json.to_string (exact_json e))
          (Json.to_string (exact_json exact)))
    !exacts;
  check_against_earlier_runs ~workload:!workload ~seed:!seed exact;
  let first = exact.Wl.ops + exact.Wl.census_ops in
  let tag = host_tag ~workload:!workload ~seed:!seed ~workers:inst.Wl.workers in
  let phases, figures, required =
    if !trace = 0 then begin
      let p = run_phase inst ~first ~seconds:!seconds in
      ( [ p ],
        [ ("setup_s", Util.median !setup_s);
          ("ops_per_s", ops_per_s p);
          ("op_us_p50", op_us p 0.50);
          ("op_us_p90", op_us p 0.90);
          ("op_us_p99", op_us p 0.99);
          ("peak_rss_mib", p.rss_mib);
          ("sim_cycles_per_op", per_op exact "sim_cycles" (count exact "sim_cycles")) ],
        List.map fst listing )
    end
    else begin
      let untraced = run_phase inst ~first ~seconds:(!seconds /. 2.0) in
      Spans.start ();
      let traced = run_phase inst ~first:(first + untraced.calls) ~seconds:(!seconds /. 2.0) in
      let report = Spans.analyse () in
      Spans.export
        ~path:(Util.out_path (Printf.sprintf "spans-%s-seed%d.json" !workload !seed))
        ~ops:exported_ops ~process:("perfbench " ^ !workload) ~other:tag;
      let listed_names = List.map fst listing in
      ( [ untraced; traced ],
        setup_figures ()
        @ exact_figures ~listed_names exact
        @ inst.Wl.layer ()
        @ span_figures report ~untraced ~traced,
        common_layer_metrics @ inst.Wl.layer_metrics )
    end
  in
  let finished = inst.Wl.finish () in
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let attempted =
    sum (fun (e : Wl.exact) -> e.Wl.ops + e.Wl.census_ops) !exacts + sum (fun p -> p.ops) phases
  in
  let failed =
    sum (fun (e : Wl.exact) -> e.Wl.failed) !exacts
    + sum (fun p -> p.failed) phases
    + if finished then 0 else 1
  in
  let not_exercised, res = result ~correct:(failed = 0) ~attempted ~failed ~listing ~required figures in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("host", tag);
            ("exact_counters", Json.Str (Digest.to_hex (Digest.string (Json.to_string (exact_json exact)))));
            ("not_exercised", Json.Arr (List.map (fun n -> Json.Str n) not_exercised)) ]));
  print_endline (Json.to_string res)
