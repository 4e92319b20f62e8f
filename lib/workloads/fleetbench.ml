module Hw = Fidelius_hw
module Trace = Fidelius_obs.Trace
module Json = Fidelius_obs.Json
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

let csv_row r =
  Printf.sprintf "%d,%s,%d,%.2f,%.2f,%d" r.vm r.profile r.cycles r.per_access r.per_exit
    r.events

let label_of vm = Printf.sprintf "vm%d:%s" vm profiles.(vm mod Array.length profiles).Profile.name

(* --- per-worker arenas -------------------------------------------------- *)

(* Everything a VM job needs that is expensive to allocate and safe to
   reuse: the DRAM backing (32 MiB of pages, reset to zero per job), the
   trace ring (a 64k-slot array, counters reset per job) and the JSON
   serialization buffer. One arena per worker domain; jobs on a worker
   run sequentially, so ownership is exclusive without a lock. VM j's
   results stay a pure function of j because every reused piece is reset
   to its fresh state before the job reads it — pinned by the arena-reuse
   qcheck property in test/test_fleet.ml. *)
type arena = {
  mem : Hw.Physmem.t;
  ring : Trace.ring;
  jbuf : Buffer.t;
}

let arena () =
  { mem = Hw.Physmem.create ~nr_frames:Hw.Machine.default_nr_frames;
    ring = Trace.ring ();
    jbuf = Buffer.create 65536 }

type gc_stats = {
  worker : int;
  jobs : int;
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

(* Per-worker streaming state: the arena plus the worker's two spill
   channels, opened in [init] and closed in [finish] even when a job
   raised. A worker runs one contiguous block of jobs in order, so its
   spills hold that block's rows and fragments in job order. *)
type stream_state = {
  a : arena;
  csv_oc : out_channel;
  trc_oc : out_channel;
  gc0 : Gc.stat;
  mutable njobs_run : int;
}

let spill_path ~dir ~kind worker = Filename.concat dir (Printf.sprintf "%s-%06d" kind worker)

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Serialize one VM's chrome fragment from the ring, in-place: the
   process_name metadata object, then every entry as an instant event
   with this VM's pid. Fragments after the global first carry a leading
   comma so the final merge is pure byte concatenation. *)
let chrome_fragment buf ~vm ring =
  Buffer.clear buf;
  if vm > 0 then Buffer.add_char buf ',';
  Json.to_buffer buf (Merge.process_meta ~pid:(vm + 1) (label_of vm));
  Trace.ring_iter ring (fun e ->
      Buffer.add_char buf ',';
      Trace.chrome_event_into buf ~pid:(vm + 1) e)

let run_stream ?domains ?(vms = 16) ~csv:csv_out ~trace:trace_out () =
  if vms < 0 then invalid_arg "Fleetbench.run_stream: vms must be >= 0";
  let ndomains = match domains with None -> Pool.recommended_domains () | Some d -> d in
  let nworkers = Pool.workers ~njobs:vms ~ndomains in
  let spill_dir = trace_out ^ ".spill" in
  mkdir_p spill_dir;
  (* One slot per worker, written only by that worker; Pool's joins
     publish the writes before we read them back — the same disjoint-
     write pattern Pool uses for job slots. *)
  let gc_slots = Array.make nworkers None in
  let rows =
    Pool.map_with ?domains ~njobs:vms
      ~init:(fun w ->
        let a = arena () in
        let csv_oc = open_out_bin (spill_path ~dir:spill_dir ~kind:"rows" w) in
        let trc_oc = open_out_bin (spill_path ~dir:spill_dir ~kind:"trace" w) in
        { a; csv_oc; trc_oc; gc0 = Gc.quick_stat (); njobs_run = 0 })
      ~finish:(fun w st ->
        close_out st.csv_oc;
        close_out st.trc_oc;
        let g1 = Gc.quick_stat () in
        let g0 = st.gc0 in
        gc_slots.(w) <-
          Some
            { worker = w;
              jobs = st.njobs_run;
              minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
              promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
              major_words = g1.Gc.major_words -. g0.Gc.major_words;
              minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
              major_collections = g1.Gc.major_collections - g0.Gc.major_collections })
      (fun st vm ->
        let row = run_vm st.a vm in
        output_string st.csv_oc (csv_row row);
        output_char st.csv_oc '\n';
        chrome_fragment st.a.jbuf ~vm st.a.ring;
        Buffer.output_buffer st.trc_oc st.a.jbuf;
        Buffer.clear st.a.jbuf;
        Trace.ring_reset st.a.ring;
        st.njobs_run <- st.njobs_run + 1;
        row)
  in
  (* Worker order = canonical job order: worker w ran the w-th
     contiguous block of jobs, in order. *)
  let paths kind = List.init nworkers (fun w -> spill_path ~dir:spill_dir ~kind w) in
  Merge.concat_spills ~out:csv_out ~header:(csv_header ^ "\n") (paths "rows");
  let shards = List.map (fun (r : vm_row) -> (label_of r.vm, r.events)) rows in
  Merge.concat_spills ~out:trace_out ~header:Merge.chrome_header
    ~footer:(Merge.chrome_footer ~shards ^ "\n")
    (paths "trace");
  List.iter (fun kind -> List.iter Sys.remove (paths kind)) [ "rows"; "trace" ];
  (try Sys.rmdir spill_dir with Sys_error _ -> ());
  { vm_rows = rows; gc = Array.to_list gc_slots |> List.filter_map Fun.id }
