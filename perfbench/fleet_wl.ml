(* fleet: Workloads.Fleetbench.run_stream over the whole profile
   catalogue, one protected VM per profile, with tracing and streamed
   artifacts. One call runs the catalogue once on up to two worker
   domains; one op is one VM. Machine boot, Obs trace serialisation and
   the Fleet pool and merge do the work here.

   run_stream's jobs are a pure function of their index, so the seed
   changes nothing in this workload's inputs.

   Per-layer spans cannot reach inside run_stream, so the traced half of
   a traced run repeats its per-VM steps on the calling domain, with a
   span around each: Engine.run under Trace.record_into, then ring_iter +
   chrome_event + Json.to_buffer, then Merge.concat_spills. The exact
   prefix runs that same path once and checks its bytes against the
   reference run_stream, so the repeat is known to be faithful. Its
   trace.overhead_pct therefore compares run_stream on the workers with
   the one-worker repeat, not tracing alone. *)

module Trace = Fidelius_obs.Trace
module Json = Fidelius_obs.Json
module Merge = Fidelius_fleet.Merge
module W = Fidelius_workloads

let profiles = Array.of_list (W.Spec2006.all @ W.Parsec.all)
let vms = Array.length profiles

let s_op = Spans.name "op.fleet"
let s_engine = Spans.name "workloads.engine.run"
let s_serialize = Spans.name "obs.chrome.serialize"
let s_concat = Spans.name "fleet.merge.concat_spills"

let label vm = Printf.sprintf "vm%d:%s" vm profiles.(vm mod vms).W.Profile.name

type vm = { result : W.Engine.result; events : int; dropped : int }

(* run_stream's per-VM steps on one arena, writing the VM's CSV row and
   Chrome fragment exactly as its workers do. *)
let run_vm (a : W.Fleetbench.arena) ~rows ~frags vm =
  let p = profiles.(vm mod vms) in
  Spans.enter s_engine;
  let result = Trace.record_into a.W.Fleetbench.ring (fun () -> W.Engine.run ~mem:a.W.Fleetbench.mem p W.Engine.Fidelius_enc) in
  Spans.leave ();
  let ring = a.W.Fleetbench.ring and buf = a.W.Fleetbench.jbuf in
  let events = Trace.ring_length ring in
  Printf.fprintf rows "%d,%s,%d,%.2f,%.2f,%d\n" vm p.W.Profile.name result.W.Engine.cycles
    result.W.Engine.per_access result.W.Engine.per_exit events;
  Spans.enter s_serialize;
  Buffer.clear buf;
  if vm > 0 then Buffer.add_char buf ',';
  Json.to_buffer buf (Merge.process_meta ~pid:(vm + 1) (label vm));
  Trace.ring_iter ring (fun e ->
      Buffer.add_char buf ',';
      Json.to_buffer buf (Trace.chrome_event ~pid:(vm + 1) e));
  Buffer.output_buffer frags buf;
  Spans.leave ();
  { result; events; dropped = Trace.ring_dropped ring }

(* The whole catalogue through [run_vm], merged into [csv] and [trace].
   [each] sees every VM after its steps, with the ring still holding its
   events and the arena's buffer its Chrome fragment. Returns the
   per-VM (label, event count) listing the trace footer carries. *)
let run_catalogue a ~first_op ~csv ~trace each =
  let rows_spill = csv ^ ".rows" and frag_spill = trace ^ ".frags" in
  let rows = open_out_bin rows_spill and frags = open_out_bin frag_spill in
  let shards =
    Fun.protect
      ~finally:(fun () ->
        close_out rows;
        close_out frags)
      (fun () ->
        List.init vms (fun vm ->
            Spans.begin_op ~op:(first_op + vm) s_op;
            let r = run_vm a ~rows ~frags vm in
            each vm r;
            Trace.ring_reset a.W.Fleetbench.ring;
            Spans.leave ();
            (label vm, r.events)))
  in
  Spans.enter s_concat;
  Merge.concat_spills ~out:csv ~header:(W.Fleetbench.csv_header ^ "\n") [ rows_spill ];
  Merge.concat_spills ~out:trace ~header:Merge.chrome_header
    ~footer:(Merge.chrome_footer ~shards ^ "\n")
    [ frag_spill ];
  Spans.leave ();
  Sys.remove rows_spill;
  Sys.remove frag_spill;
  shards

let validated = ref false

let setup ~seed:(_ : int) =
  Util.ensure_out_dir ();
  let workers = min 2 (Domain.recommended_domain_count ()) in
  let ref_csv = Util.out_path "fleet-ref.csv" and ref_trace = Util.out_path "fleet-ref.json" in
  let reference =
    Wl.step "fleet.reference" (fun () ->
        W.Fleetbench.run_stream ~domains:1 ~vms ~csv:ref_csv ~trace:ref_trace ())
  in
  let expected = (Digest.file ref_csv, Digest.file ref_trace) in
  let csv = Util.out_path "fleet.csv" and trace = Util.out_path "fleet.json" in
  let arena = lazy (W.Fleetbench.arena ()) in
  let last = ref reference in
  let op i =
    if Spans.enabled () then
      ignore (run_catalogue (Lazy.force arena) ~first_op:(i * vms) ~csv ~trace (fun _ _ -> ()))
    else last := W.Fleetbench.run_stream ~domains:workers ~vms ~csv ~trace ()
  in
  let check _ =
    (Digest.file csv, Digest.file trace) = expected
    && (Spans.enabled () || !last.W.Fleetbench.vm_rows = reference.W.Fleetbench.vm_rows)
  in
  (* The exact stretch: the catalogue once through the repeated per-VM
     path, counting simulated cycles, ledger categories, trace events and
     minor words (the counting itself excluded); its artifacts must equal
     the reference run_stream's, and the trace must parse with Obs.Json. *)
  let exact () =
    let a = Lazy.force arena in
    let counts = Hashtbl.create 32 in
    let add k v = Hashtbl.replace counts k (v + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
    let minor = ref 0.0 and parses = ref true in
    let parse text = match Json.parse text with _ -> () | exception Json.Parse_error _ -> parses := false in
    let w0 = Gc.minor_words () in
    let shards =
      run_catalogue a ~first_op:0 ~csv ~trace (fun vm r ->
        let w = Gc.minor_words () in
        if not !validated then begin
          let buf = a.W.Fleetbench.jbuf and skip = if vm > 0 then 1 else 0 in
          parse ("[" ^ Buffer.sub buf skip (Buffer.length buf - skip) ^ "]")
        end;
        add "sim_cycles" r.result.W.Engine.cycles;
        List.iter
          (fun (c, v) ->
            add ("hw.cost." ^ c ^ "_cycles") v;
            add "ledger_cycles" v)
          r.result.W.Engine.breakdown;
        add "obs.trace.events" r.events;
        add "obs.trace.dropped" r.dropped;
        Trace.ring_iter a.W.Fleetbench.ring (fun e ->
            add ("obs.trace." ^ Trace.event_name e.Trace.event) 1);
        minor := !minor +. (Gc.minor_words () -. w))
    in
    let w1 = Gc.minor_words () in
    add "runtime.minor_words" (int_of_float (w1 -. w0 -. !minor));
    (* The trace is the header, the fragments and the footer; each
       fragment parsed above, and the envelope parses on its own. Every
       later trace is byte-identical to this one, so once per process
       suffices. *)
    if not !validated then parse (Merge.chrome_header ^ Merge.chrome_footer ~shards);
    validated := true;
    { Wl.ops = vms;
      census_ops = vms;
      failed = (if !parses && check 0 then 0 else vms);
      counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare }
  in
  let layer () =
    let jobs = List.map (fun g -> float_of_int g.W.Fleetbench.jobs) !last.W.Fleetbench.gc in
    [ ("fleet.pool.jobs_per_worker_max", List.fold_left Float.max 0.0 jobs);
      ("fleet.pool.jobs_per_worker_min", List.fold_left Float.min infinity jobs) ]
  in
  { Wl.batch = vms;
    workers;
    rss_calls = 3;
    op;
    check;
    finish = (fun () -> true);
    exact;
    layer;
    layer_metrics =
      [ "fleet.reference_ms";
        "workloads.engine.run_ms_p50";
        "obs.chrome.serialize_ms_p50";
        "fleet.merge.concat_ms";
        "obs.trace.events_per_op";
        "obs.trace.dropped_per_op";
        "fleet.pool.jobs_per_worker_max";
        "fleet.pool.jobs_per_worker_min";
        "hw.cost.dram_cycles_per_op";
        "hw.cost.enc-engine_cycles_per_op";
        "hw.cost.gate1_cycles_per_op";
        "hw.cost.sev-fw_cycles_per_op";
        "hw.cost.shadow_cycles_per_op";
        "hw.cost.tlb-flush_cycles_per_op";
        "hw.cost.world-switch_cycles_per_op";
        "obs.trace.vmexit_per_op";
        "obs.trace.dram_per_op";
        "obs.trace.walk_per_op";
        "obs.trace.tlb-flush_per_op";
        "obs.trace.gate_per_op";
        "layer.workloads.engine.self_us_per_op";
        "layer.obs.chrome.self_us_per_op";
        "layer.fleet.merge.self_us_per_op" ] }
