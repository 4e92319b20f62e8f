module Hw = Fidelius_hw
module Trace = Fidelius_obs.Trace
module Chrome = Fidelius_obs.Chrome
module Pool = Fidelius_fleet.Pool
module Merge = Fidelius_fleet.Merge

type vm_row = {
  vm : int;
  profile : string;
  cycles : int;
  per_access : float;
  per_exit : float;
  events : int;
}

(* The fleet cycles through the full profile catalogue so VM k's workload
   is a pure function of k — no RNG, no wall clock. *)
let profiles = Array.of_list (Spec2006.all @ Parsec.all)

let csv_header = "vm,profile,cycles,per_access_cycles,per_exit_cycles,trace_events"

let add_csv_row buf r =
  Printf.bprintf buf "%d,%s,%d,%.2f,%.2f,%d\n" r.vm r.profile r.cycles r.per_access r.per_exit
    r.events

let label_of vm = Printf.sprintf "vm%d:%s" vm profiles.(vm mod Array.length profiles).Profile.name

(* --- per-worker arenas -------------------------------------------------- *)

(* Everything a VM job needs that is expensive to allocate and safe to
   reuse: the DRAM backing (32 MiB of pages, reset to zero per job), the
   trace ring (a 64k-slot array, counters reset per job), and the two
   buffers a finished VM is rendered into: its CSV row and its Chrome
   fragment. One arena per worker domain; jobs on a worker run
   sequentially, so ownership is exclusive without a lock. VM j's
   results stay a pure function of j because every reused piece is reset
   to its fresh state before the job reads it — pinned by the arena-reuse
   qcheck property in test/test_fleet.ml. *)
type arena = {
  mem : Hw.Physmem.t;
  ring : Trace.ring;
  jbuf : Buffer.t;
  chrome : Chrome.t;
}

let arena () =
  { mem = Hw.Physmem.create ~nr_frames:Hw.Machine.default_nr_frames;
    ring = Trace.ring ();
    jbuf = Buffer.create 65536;
    chrome = Chrome.create () }

type gc_stats = {
  worker : int;
  jobs : int;
  turn_waits : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(* --- one VM ------------------------------------------------------------- *)

(* VM [vm] on worker arena [a]. Engine.boot_stack installs the ledger
   clock into this recording as soon as the VM's machine exists, so every
   event is stamped in the VM's own simulated cycles. *)
let run_vm a vm =
  let p = profiles.(vm mod Array.length profiles) in
  let result = Trace.record_into a.ring (fun () -> Engine.run ~mem:a.mem p Engine.Fidelius_enc) in
  { vm;
    profile = p.Profile.name;
    cycles = result.Engine.cycles;
    per_access = result.Engine.per_access;
    per_exit = result.Engine.per_exit;
    events = Trace.ring_length a.ring }

(* --- streaming shard output --------------------------------------------- *)

type summary = {
  vm_rows : vm_row list;
  gc : gc_stats list;
}

(* Per-worker state: the arena, the GC baseline taken in [init], and
   what [finish] reports. *)
type stream_state = {
  a : arena;
  gc0 : Gc.stat;
  mutable njobs_run : int;
  mutable turn_waits : int;
}

(* Render one VM's chrome fragment from the ring: the process_name
   metadata object, then every entry as an instant event with this VM's
   pid. Fragments after the global first carry a leading comma, so the
   trace is the header, the fragments in VM order and the footer. *)
let chrome_fragment w ~vm ring =
  Chrome.clear w;
  if vm > 0 then Chrome.add_string w ",";
  Chrome.add_json w (Merge.process_meta ~pid:(vm + 1) (label_of vm));
  Chrome.add_ring w ~pid:(vm + 1) ring

let run_stream ?domains ?(vms = 16) ~csv:csv_out ~trace:trace_out () =
  if vms < 0 then invalid_arg "Fleetbench.run_stream: vms must be >= 0";
  let ndomains = match domains with None -> Pool.recommended_domains () | Some d -> d in
  let nworkers = Pool.workers ~njobs:vms ~ndomains in
  (* One slot per worker, written only by that worker; Pool's joins
     publish the writes before we read them back — the same disjoint-
     write pattern Pool uses for job slots. *)
  let gc_slots = Array.make nworkers None in
  let csv_oc = open_out_bin csv_out in
  let trace_oc = try open_out_bin trace_out with e -> close_out_noerr csv_oc; raise e in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr csv_oc;
      close_out_noerr trace_oc)
    (fun () ->
      output_string csv_oc csv_header;
      output_char csv_oc '\n';
      output_string trace_oc Merge.chrome_header;
      let rows =
        Pool.map_with ?domains ~njobs:vms
          ~init:(fun _ -> { a = arena (); gc0 = Gc.quick_stat (); njobs_run = 0; turn_waits = 0 })
          ~finish:(fun w st ->
            let g1 = Gc.quick_stat () in
            let g0 = st.gc0 in
            gc_slots.(w) <-
              Some
                { worker = w;
                  jobs = st.njobs_run;
                  turn_waits = st.turn_waits;
                  minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
                  promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
                  major_words = g1.Gc.major_words -. g0.Gc.major_words;
                  minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
                  major_collections = g1.Gc.major_collections - g0.Gc.major_collections })
          (* VM order: the commits run one at a time, VM 0 first, so each
             appends its row and fragment straight to the outputs. *)
          ~commit:(fun st _ _ ~waited ->
            if waited then st.turn_waits <- st.turn_waits + 1;
            Buffer.output_buffer csv_oc st.a.jbuf;
            Chrome.output trace_oc st.a.chrome)
          (fun st vm ->
            let row = run_vm st.a vm in
            Buffer.clear st.a.jbuf;
            add_csv_row st.a.jbuf row;
            chrome_fragment st.a.chrome ~vm st.a.ring;
            Trace.ring_reset st.a.ring;
            st.njobs_run <- st.njobs_run + 1;
            row)
      in
      let shards = List.map (fun (r : vm_row) -> (label_of r.vm, r.events)) rows in
      output_string trace_oc (Merge.chrome_footer ~shards);
      output_char trace_oc '\n';
      close_out csv_oc;
      close_out trace_oc;
      { vm_rows = rows; gc = Array.to_list gc_slots |> List.filter_map Fun.id })
