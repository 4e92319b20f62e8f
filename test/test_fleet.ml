(* Tests for the fleet runner: the static stride schedule and its
   in-order commits, pool edge cases (empty job list, more domains than
   jobs, failing jobs), per-shard trace isolation, and the determinism
   contract — the fleet benchmark's artifacts and the fault matrix's
   verdicts must be byte-identical for any domain count (SCALING.md). *)

module Pool = Fidelius_fleet.Pool
module Merge = Fidelius_fleet.Merge
module Trace = Fidelius_obs.Trace
module Json = Fidelius_obs.Json
module W = Fidelius_workloads
module Matrix = Fidelius_inject_matrix.Matrix
module Site = Fidelius_inject.Site

(* --- the static schedule ---------------------------------------------------- *)

(* Each worker's jobs in the order it ran them, by worker index. *)
let run_order ~njobs ~ndomains =
  let nworkers = Pool.workers ~njobs ~ndomains in
  let ran = Array.make nworkers [] in
  let tagged =
    Pool.map_with ~domains:ndomains ~njobs
      ~init:(fun w -> (w, ref []))
      ~finish:(fun w (_, seen) -> ran.(w) <- List.rev !seen)
      (fun (w, seen) j ->
        seen := j :: !seen;
        (w, j))
  in
  (nworkers, tagged, ran)

(* Worker w of n runs jobs w, w + n, w + 2n, ... in increasing order:
   job j runs on worker j mod n, every worker is busy, and job counts
   differ by at most one. The worker count depends on the host's core
   count; the property holds on any host. *)
let test_map_with_stride =
  QCheck.Test.make ~count:100 ~name:"map_with runs a stride"
    QCheck.(pair (int_bound 40) (int_range 1 8))
    (fun (njobs, ndomains) ->
      let nworkers, tagged, ran = run_order ~njobs ~ndomains in
      let sizes = Array.to_list (Array.map List.length ran) in
      let lo = List.fold_left min max_int sizes and hi = List.fold_left max 0 sizes in
      List.map snd tagged = List.init njobs Fun.id
      && List.for_all (fun (w, j) -> w = j mod nworkers) tagged
      && Array.for_all (fun jobs -> List.sort compare jobs = jobs) ran
      && Array.to_list ran
         = List.init nworkers (fun w -> List.filter (fun j -> j mod nworkers = w) (List.init njobs Fun.id))
      && (njobs = 0 || (lo >= 1 && hi - lo <= 1)))

let test_workers_validated () =
  let cap = Pool.recommended_domains () in
  Alcotest.(check int) "13 jobs on 4 domains" (min cap 4) (Pool.workers ~njobs:13 ~ndomains:4);
  Alcotest.(check int) "2 jobs on 8 domains" (min cap 2) (Pool.workers ~njobs:2 ~ndomains:8);
  Alcotest.(check int) "no jobs, no workers" 0 (Pool.workers ~njobs:0 ~ndomains:4);
  Alcotest.check_raises "njobs < 0 rejected"
    (Invalid_argument "Pool.workers: njobs must be >= 0") (fun () ->
      ignore (Pool.workers ~njobs:(-1) ~ndomains:2));
  Alcotest.check_raises "ndomains < 1 rejected"
    (Invalid_argument "Pool.workers: ndomains must be >= 1") (fun () ->
      ignore (Pool.workers ~njobs:4 ~ndomains:0))

(* --- map: order, edge cases, failure ------------------------------------- *)

let test_map_canonical_order () =
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares in job order on %d domains" domains)
        (List.init 23 (fun j -> j * j))
        (Pool.map ~domains ~njobs:23 (fun j -> j * j)))
    [ 1; 2; 7; 64 ]

let test_map_empty () =
  Alcotest.(check (list int)) "njobs = 0 is []" [] (Pool.map ~domains:4 ~njobs:0 (fun j -> j))

let test_map_fewer_jobs_than_domains () =
  Alcotest.(check (list int)) "2 jobs on 8 domains" [ 0; 10 ]
    (Pool.map ~domains:8 ~njobs:2 (fun j -> j * 10))

let test_map_list () =
  Alcotest.(check (list string)) "map_list preserves list order"
    [ "a!"; "b!"; "c!" ]
    (Pool.map_list ~domains:2 (fun s -> s ^ "!") [ "a"; "b"; "c" ])

let test_map_failure_deterministic () =
  (* Jobs 1 and 3 raise, on different shards; the pool must finish every
     other job and then report the LOWEST failing index, whichever domain
     crashed first. *)
  let completed = Atomic.make 0 in
  let attempt () =
    Pool.map ~domains:2 ~njobs:5 (fun j ->
        if j = 1 || j = 3 then failwith (Printf.sprintf "job %d boom" j)
        else (Atomic.incr completed; j))
  in
  (match attempt () with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed { job; exn = Failure m } ->
      Alcotest.(check int) "lowest failing job reported" 1 job;
      Alcotest.(check string) "original exception preserved" "job 1 boom" m
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e));
  Alcotest.(check int) "non-failing jobs all completed" 3 (Atomic.get completed)

let test_map_validates () =
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Pool.map: domains must be >= 1") (fun () ->
      ignore (Pool.map ~domains:0 ~njobs:3 (fun j -> j)))

(* --- map_with: worker-lifetime state -------------------------------------- *)

let test_map_with_init_finish_once_per_worker () =
  (* init and finish must each run exactly once per worker domain, and
     every job on a worker must see the state its init returned. *)
  let njobs = 13 and domains = 4 in
  let nworkers = Pool.workers ~njobs ~ndomains:domains in
  let inits = Atomic.make 0 and finishes = Atomic.make 0 in
  let results =
    Pool.map_with ~domains ~njobs
      ~init:(fun w -> Atomic.incr inits; (w, ref 0))
      ~finish:(fun w (w', jobs_seen) ->
        Atomic.incr finishes;
        Alcotest.(check int) "finish sees its own worker's state" w w';
        Alcotest.(check bool) "worker ran at least one job" true (!jobs_seen > 0))
      (fun (w, jobs_seen) j -> incr jobs_seen; (w, j))
  in
  Alcotest.(check int) "one init per worker" nworkers (Atomic.get inits);
  Alcotest.(check int) "one finish per worker" nworkers (Atomic.get finishes);
  Alcotest.(check (list int)) "jobs in canonical order"
    (List.init njobs (fun j -> j))
    (List.map snd results);
  (* The stride: job j ran on worker j mod nworkers. *)
  List.iter
    (fun (w, j) ->
      Alcotest.(check int) (Printf.sprintf "job %d ran on worker %d" j (j mod nworkers))
        (j mod nworkers) w)
    results

let test_map_with_shared_state_sequential () =
  (* Jobs on one worker reuse the same state sequentially: a per-worker
     counter must count that worker's jobs without ever racing. *)
  let rows =
    Pool.map_with ~domains:2 ~njobs:10
      ~init:(fun _ -> ref 0)
      (fun c j -> incr c; (j, !c))
  in
  List.iter
    (fun (j, nth) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d is its worker's %dth (1-based)" j nth)
        true
        (nth >= 1 && nth <= 10))
    rows;
  (* First job of the run is always some worker's first. *)
  Alcotest.(check int) "job 0 is its worker's first" 1 (List.assoc 0 rows)

let test_map_with_finish_runs_on_job_failure () =
  let finished = Atomic.make 0 in
  (match
     Pool.map_with ~domains:2 ~njobs:6
       ~init:(fun _ -> ())
       ~finish:(fun _ () -> Atomic.incr finished)
       (fun () j -> if j = 2 then failwith "boom" else j)
   with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed { job; _ } ->
      Alcotest.(check int) "lowest failing job" 2 job);
  Alcotest.(check int) "finish ran on every worker despite the failure"
    (Pool.workers ~njobs:6 ~ndomains:2)
    (Atomic.get finished)

(* --- map_with ~commit: turns in job order ------------------------------------ *)

(* Spin for longer on low jobs, so later jobs tend to finish first and
   must wait for their turn. *)
let spin j ~njobs =
  let x = ref 0 in
  for i = 1 to (njobs - j) * 20_000 do
    x := !x + Sys.opaque_identity i
  done;
  ignore (Sys.opaque_identity !x)

(* Runs [njobs] jobs with a commit that appends the job to a shared log
   (safe only because commits never overlap); [fail_job j] and
   [fail_commit j] pick the jobs that raise in the job or in its commit,
   [fail_init w] the workers whose init raises. Returns the outcome and
   the commit log, oldest first. *)
let committed ?(fail_job = fun _ -> false) ?(fail_commit = fun _ -> false)
    ?(fail_init = fun _ -> false) ~domains njobs =
  let log = ref [] in
  let outcome =
    match
      Pool.map_with ~domains ~njobs
        ~init:(fun w -> if fail_init w then failwith (Printf.sprintf "init %d" w))
        ~commit:(fun () j v ~waited:_ ->
          if fail_commit j then failwith (Printf.sprintf "commit %d" j);
          log := (j, v) :: !log)
        (fun () j ->
          spin j ~njobs;
          if fail_job j then failwith (Printf.sprintf "job %d" j);
          j * j)
    with
    | vs -> Ok vs
    | exception e -> Error e
  in
  (outcome, List.rev !log)

let test_commit_in_job_order () =
  List.iter
    (fun domains ->
      let outcome, log = committed ~domains 11 in
      let expected = List.init 11 (fun j -> (j, j * j)) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "commits in job order on %d domains" domains)
        expected log;
      Alcotest.(check bool) "results returned" true (outcome = Ok (List.map snd expected)))
    [ 1; 2; 3 ]

let test_commit_turn_passes_on_failure () =
  (* Job 3 raises in the job, job 5 in its commit: every other commit
     still runs, in order, and the lowest failing job is reported. *)
  let outcome, log =
    committed ~fail_job:(( = ) 3) ~fail_commit:(( = ) 5) ~domains:2 9
  in
  Alcotest.(check (list int)) "every other turn came round, in order"
    [ 0; 1; 2; 4; 6; 7; 8 ] (List.map fst log);
  match outcome with
  | Error (Pool.Job_failed { job; exn = Failure m }) ->
      Alcotest.(check int) "lowest failing job" 3 job;
      Alcotest.(check string) "its own exception" "job 3" m
  | Error e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | Ok _ -> Alcotest.fail "expected Job_failed"

let test_commit_turn_passes_on_init_failure () =
  (* The last worker's init raises: its jobs never run, but their turns
     pass, so every other worker's commits still run, in order, and the
     init exception is re-raised. *)
  let njobs = 10 and domains = 3 in
  let nworkers = Pool.workers ~njobs ~ndomains:domains in
  let dead = nworkers - 1 in
  let outcome, log = committed ~fail_init:(( = ) dead) ~domains njobs in
  Alcotest.(check (list int)) "the live workers' turns came round, in order"
    (List.filter (fun j -> j mod nworkers <> dead) (List.init njobs Fun.id))
    (List.map fst log);
  match outcome with
  | Error (Failure m) -> Alcotest.(check string) "init exception" (Printf.sprintf "init %d" dead) m
  | Error e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | Ok _ -> Alcotest.fail "expected the init failure"

let test_map_with_validates () =
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Pool.map_with: domains must be >= 1") (fun () ->
      ignore
        (Pool.map_with ~domains:0 ~njobs:3 ~init:(fun _ -> ()) (fun () j -> j)))

(* --- per-shard trace isolation ------------------------------------------- *)

let test_shard_trace_isolation () =
  (* A recording on the caller's domain must be invisible to pool jobs
     (they start from pristine DLS state), and their captures must not
     perturb it. *)
  let ring = Trace.ring () in
  let inside =
    Trace.record_into ring (fun () ->
        Trace.emit (Trace.Mark "outer");
        Pool.map ~domains:2 ~njobs:4 (fun j ->
            let enabled_at_entry = Trace.enabled () in
            let (), entries = Trace.capture (fun () -> Trace.emit (Trace.Mark "inner")) in
            (enabled_at_entry, List.length entries, j)))
  in
  let outer = Trace.ring_entries ring in
  List.iter
    (fun (enabled_at_entry, n, j) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d starts with tracing off" j)
        false enabled_at_entry;
      Alcotest.(check int) (Printf.sprintf "job %d captured its own event" j) 1 n)
    inside;
  Alcotest.(check int) "outer recording untouched by shards" 1 (List.length outer)

(* --- the streamed Chrome document ------------------------------------------ *)

let profiles = Array.of_list (W.Spec2006.all @ W.Parsec.all)
let label vm = Printf.sprintf "vm%d:%s" vm profiles.(vm mod Array.length profiles).W.Profile.name

(* A streamed fleet trace assembled from [Fleetbench.chrome_fragment]
   exactly as run_stream writes it: header, one fragment per VM in VM
   order, footer. VM k records [counts.(k)] Mark events; one VM records
   none. *)
let counts = [| 3; 0; 2 |]

let streamed_document () =
  let ring = Trace.ring () and w = Fidelius_obs.Chrome.create () in
  let doc = Buffer.create 1024 in
  Buffer.add_string doc Merge.chrome_header;
  Array.iteri
    (fun vm n ->
      Trace.record_into ring (fun () ->
          for i = 0 to n - 1 do
            Trace.emit (Trace.Mark (Printf.sprintf "vm%d-%d" vm i))
          done);
      W.Fleetbench.chrome_fragment w ~vm ring;
      Buffer.add_string doc (Fidelius_obs.Chrome.contents w))
    counts;
  Buffer.add_string doc
    (Merge.chrome_footer ~shards:(Array.to_list (Array.mapi (fun vm n -> (label vm, n)) counts)));
  Buffer.contents doc

let test_streamed_chrome_shape () =
  let doc = Json.parse (streamed_document ()) in
  let field k v = Option.bind v (Json.member k) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr events) -> events
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let metadata = List.filter (fun e -> Json.member "ph" e = Some (Json.Str "M")) events in
  Alcotest.(check int) "one metadata event per VM" (Array.length counts) (List.length metadata);
  List.iteri
    (fun k e ->
      Alcotest.(check bool)
        (Printf.sprintf "VM %d's metadata names pid %d %s" k (k + 1) (label k))
        true
        (Json.member "pid" e = Some (Json.Int (k + 1))
        && field "name" (Json.member "args" e) = Some (Json.Str (label k))))
    metadata;
  Array.iteri
    (fun k n ->
      let instants =
        List.filter
          (fun e ->
            Json.member "ph" e = Some (Json.Str "i") && Json.member "pid" e = Some (Json.Int (k + 1)))
          events
      in
      Alcotest.(check int) (Printf.sprintf "VM %d's events under pid %d" k (k + 1)) n
        (List.length instants))
    counts;
  let other = Json.member "otherData" doc in
  Alcotest.(check bool) "otherData shard count" true
    (field "shards" other = Some (Json.Int (Array.length counts)));
  Array.iteri
    (fun k n ->
      Alcotest.(check bool)
        (Printf.sprintf "otherData counts VM %d's %d events" k n)
        true
        (field (label k) (field "events_per_shard" other) = Some (Json.Int n)))
    counts

(* --- reusable rings: wraparound and reuse hygiene -------------------------- *)

let test_ring_wraparound_and_reuse () =
  let r = Trace.ring ~capacity:4 () in
  Trace.record_into r (fun () ->
      for i = 0 to 9 do
        Trace.emit (Trace.Mark (Printf.sprintf "m%d" i))
      done);
  Alcotest.(check int) "emitted counts past capacity" 10 (Trace.ring_emitted r);
  Alcotest.(check int) "dropped = emitted - capacity" 6 (Trace.ring_dropped r);
  Alcotest.(check int) "length capped at capacity" 4 (Trace.ring_length r);
  let seqs = List.map (fun (e : Trace.entry) -> e.Trace.seq) (Trace.ring_entries r) in
  Alcotest.(check (list int)) "survivors are the newest, oldest first" [ 6; 7; 8; 9 ] seqs;
  (* ring_iter must agree with ring_entries byte for byte. *)
  let via_iter = ref [] in
  Trace.ring_iter r (fun e -> via_iter := e :: !via_iter);
  Alcotest.(check bool) "ring_iter = ring_entries" true
    (List.rev !via_iter = Trace.ring_entries r);
  (* Reuse after a wrapped run: nothing stale may leak into the next job. *)
  Trace.record_into r (fun () -> Trace.emit (Trace.Mark "fresh"));
  Alcotest.(check int) "reused ring: emitted reset" 1 (Trace.ring_emitted r);
  Alcotest.(check int) "reused ring: dropped reset" 0 (Trace.ring_dropped r);
  (match Trace.ring_entries r with
  | [ { Trace.seq = 0; event = Trace.Mark "fresh"; _ } ] -> ()
  | _ -> Alcotest.fail "stale entries leaked across ring reuse");
  Alcotest.check_raises "capacity <= 0 rejected"
    (Invalid_argument "Trace.ring: capacity must be positive") (fun () ->
      ignore (Trace.ring ~capacity:0 ()))

(* --- streaming merge: header/footer composition and spill concat ----------- *)

let test_chrome_streaming_envelope () =
  (* The streamed document (header ^ fragments ^ footer) must be the
     bytes the tree printer writes for the same document: no stray or
     missing separator at a fragment boundary (the zero-event VM is one),
     no whitespace the printer would not write. *)
  let streamed = streamed_document () in
  Alcotest.(check string) "streamed document = Json.to_string of its parse"
    (Json.to_string (Json.parse streamed)) streamed

let test_concat_spills () =
  let dir = Filename.temp_file "fleet-spill" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let spill n contents =
    let p = Filename.concat dir (Printf.sprintf "s-%d" n) in
    let oc = open_out_bin p in
    output_string oc contents; close_out oc; p
  in
  let paths = [ spill 0 "alpha,"; spill 1 ""; spill 2 "beta" ] in
  let out = Filename.concat dir "merged" in
  Merge.concat_spills ~out ~header:"H[" ~footer:"]F" paths;
  let ic = open_in_bin out in
  let merged = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "header + spills in order + footer" "H[alpha,beta]F" merged;
  List.iter Sys.remove (out :: paths);
  Sys.rmdir dir

(* --- the determinism contract --------------------------------------------- *)

(* The arena-reuse property, at the pool/ring level: a run whose workers
   reuse one ring + one scratch buffer across all their jobs must produce
   bytes identical to a run that captures into fresh state per job, for
   random (njobs, ndomains, seed). The job itself is seed-dependent so
   reuse bugs (stale counters, stale clock, stale scratch) have plenty of
   surface to corrupt. *)
let test_arena_reuse_byte_identical =
  QCheck.Test.make ~count:40 ~name:"arena reuse is byte-invisible"
    QCheck.(triple (int_bound 24) (int_range 1 6) (int_bound 1000))
    (fun (njobs, ndomains, seed) ->
      let job_events j =
        (* deterministic, seed- and job-dependent event stream *)
        let n = 1 + ((seed + (j * 7)) mod 5) in
        for i = 0 to n - 1 do
          Trace.emit (Trace.Mark (Printf.sprintf "s%d-j%d-e%d" seed j i))
        done;
        n
      in
      let serialize buf j entries =
        Buffer.clear buf;
        List.iter
          (fun e -> Json.to_buffer buf (Trace.chrome_event ~pid:(j + 1) e))
          entries;
        Buffer.contents buf
      in
      let fresh =
        Pool.map ~domains:ndomains ~njobs (fun j ->
            let n, entries = Trace.capture (fun () -> job_events j) in
            (n, serialize (Buffer.create 64) j entries))
      in
      let reused =
        Pool.map_with ~domains:ndomains ~njobs
          ~init:(fun _ -> (Trace.ring ~capacity:8 (), Buffer.create 64))
          (fun (ring, buf) j ->
            let n = Trace.record_into ring (fun () -> job_events j) in
            (n, serialize buf j (Trace.ring_entries ring)))
      in
      fresh = reused)

(* A streamed fleet's artifacts and rows at [domains], read back. *)
let stream ~domains ~vms =
  let csv_f = Filename.temp_file "fleet" ".csv" and trc_f = Filename.temp_file "fleet" ".json" in
  let read f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove csv_f; Sys.remove trc_f)
    (fun () ->
      let summary = W.Fleetbench.run_stream ~domains ~vms ~csv:csv_f ~trace:trc_f () in
      (read csv_f, read trc_f, summary.W.Fleetbench.vm_rows))

(* The same property end-to-end: run_stream (arenas + ordered writes) must
   write the same bytes and return the same rows at any domain count as
   on one worker, for random population and domain counts. *)
let test_stream_domain_invariant =
  QCheck.Test.make ~count:6 ~name:"run_stream output = 1-domain output"
    QCheck.(pair (int_bound 5) (int_range 1 3))
    (fun (vms, domains) -> stream ~domains ~vms = stream ~domains:1 ~vms)

(* The artifacts of a 24-VM streamed fleet (the whole profile catalogue),
   pinned by MD5 at one and two workers. The digests were re-pinned when
   boot's direct map became one [Mark] instead of a [Pte_write] and a
   [Tlb_flush] per store; the CSV moved only in its trace_events column
   and the trace only by the dropped events and the new marks. The
   census below names what such a change moves. *)
let test_fleet_golden_md5 () =
  let csv_f = Filename.temp_file "fleet" ".csv" and trc_f = Filename.temp_file "fleet" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove csv_f; Sys.remove trc_f)
    (fun () ->
      List.iter
        (fun domains ->
          ignore (W.Fleetbench.run_stream ~domains ~vms:24 ~csv:csv_f ~trace:trc_f ());
          let md5 f = Digest.to_hex (Digest.file f) in
          Alcotest.(check string) (Printf.sprintf "fleet.csv at %d domains" domains)
            "fb4c37ad328a93cce5584f6ef93fec5f" (md5 csv_f);
          Alcotest.(check string) (Printf.sprintf "fleet trace at %d domains" domains)
            "075d8541d005eacf0533916486f74196" (md5 trc_f))
        [ 1; 2 ])

(* The same catalogue's trace volume, by event name, counted the way
   perfbench's census counts it: each VM recorded into one reused arena,
   its ring read with [Trace.ring_iter]. A store path that starts tracing
   per-store events again fails here with the event's name and count,
   not as an opaque digest mismatch. Boot's direct map is the one [mark]
   per VM; every [pte-write] and [tlb-flush] left comes after paging is
   enforced. *)
let test_fleet_event_census () =
  let a = W.Fleetbench.arena () in
  let counts = Hashtbl.create 16 in
  for vm = 0 to Array.length profiles - 1 do
    ignore
      (Trace.record_into a.W.Fleetbench.ring (fun () ->
           W.Engine.run ~mem:a.W.Fleetbench.mem profiles.(vm) W.Engine.Fidelius_enc));
    Alcotest.(check int) (Printf.sprintf "vm%d: nothing dropped" vm) 0
      (Trace.ring_dropped a.W.Fleetbench.ring);
    Trace.ring_iter a.W.Fleetbench.ring (fun e ->
        let k = Trace.event_name e.Trace.event in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
  done;
  let census = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare in
  Alcotest.(check (list (pair string int)))
    "24-VM event census"
    [ ("dram", 12384); ("fw-cmd", 144); ("gate", 3504); ("hypercall", 792); ("mark", 24);
      ("pte-write", 5016); ("shadow-capture", 792); ("shadow-verify", 792);
      ("tlb-flush", 5016); ("vmexit", 792); ("vmrun", 816); ("walk", 720) ]
    census;
  Alcotest.(check int) "24-VM events" 30792 (List.fold_left (fun n (_, v) -> n + v) 0 census)

(* Bounded memory for the 1,000-VM story: a streamed 100-VM run must not
   grow the live heap with per-VM state. Rows are about a dozen words
   each; every trace event must have been spilled and collected, and the
   arenas freed with their worker domains. The 2M-word (~16 MiB) ceiling
   is far above the rows yet far below what one retained trace shard
   population (100 rings' worth of entries) would cost. *)
let test_stream_live_heap_bounded () =
  let csv_f = Filename.temp_file "fleet" ".csv" and trc_f = Filename.temp_file "fleet" ".json" in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove csv_f; Sys.remove trc_f)
    (fun () ->
      ignore (W.Fleetbench.run_stream ~domains:2 ~vms:8 ~csv:csv_f ~trace:trc_f ());
      let before = live_words () in
      ignore (W.Fleetbench.run_stream ~domains:4 ~vms:100 ~csv:csv_f ~trace:trc_f ());
      let growth = live_words () - before in
      Alcotest.(check bool)
        (Printf.sprintf "100 streamed VMs grew the live heap by %d words (<= 2M)" growth)
        true (growth <= 2_000_000))

(* --- the ordered writer leaves nothing behind --------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A fresh directory for one run's outputs; removed with what is left in it. *)
let with_dir f =
  let dir = Filename.temp_file "fleet-out" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

let test_stream_writes_only_outputs () =
  with_dir (fun dir ->
      let fds = open_fds () in
      let csv = Filename.concat dir "fleet.csv" and trace = Filename.concat dir "fleet.json" in
      ignore (W.Fleetbench.run_stream ~domains:2 ~vms:3 ~csv ~trace ());
      Alcotest.(check (list string)) "no spill or temporary file" [ "fleet.csv"; "fleet.json" ]
        (listing dir);
      Alcotest.(check int) "both outputs closed" fds (open_fds ()))

let test_stream_failed_write_strands_no_worker () =
  (* Every write to the trace fails (/dev/full), from VM 0's commit on:
     each VM's turn must still come round, the lowest failing VM is
     reported, and both outputs end closed with nothing else left. *)
  with_dir (fun dir ->
      let fds = open_fds () in
      let csv = Filename.concat dir "fleet.csv" in
      (match W.Fleetbench.run_stream ~domains:2 ~vms:3 ~csv ~trace:"/dev/full" () with
      | _ -> Alcotest.fail "expected Job_failed"
      | exception Pool.Job_failed { job; exn = Sys_error _ } ->
          Alcotest.(check int) "lowest failing VM" 0 job
      | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e));
      Alcotest.(check (list string)) "no spill or temporary file" [ "fleet.csv" ] (listing dir);
      Alcotest.(check int) "both outputs closed" fds (open_fds ()))

let test_fleetbench_domain_count_invariance () =
  let csv1, trace1, rows = stream ~domains:1 ~vms:3 in
  let csv3, trace3, rows3 = stream ~domains:3 ~vms:3 in
  Alcotest.(check string) "per-VM CSV byte-identical across domain counts" csv1 csv3;
  Alcotest.(check string) "merged Chrome trace byte-identical across domain counts" trace1
    trace3;
  Alcotest.(check bool) "rows identical across domain counts" true (rows = rows3);
  List.iter
    (fun (r : W.Fleetbench.vm_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "vm %d recorded trace events" r.W.Fleetbench.vm)
        true (r.W.Fleetbench.events > 0))
    rows

let reduced_attacks () =
  match Fidelius_attacks.Suite.all with
  | a :: b :: _ -> [ a; b ]
  | _ -> Alcotest.fail "attack suite too small"

let test_matrix_domain_count_invariance () =
  let run domains =
    Matrix.run ~seed:11L ~domains
      ~sites:[ Site.Snapshot_truncate; Site.Fw_drop ]
      ~attacks:(reduced_attacks ()) ()
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "identical report on 1 and 4 domains" true (r1 = r4)

let () =
  Alcotest.run "fleet"
    [ ( "schedule",
        [ QCheck_alcotest.to_alcotest test_map_with_stride;
          Alcotest.test_case "workers capped and validated" `Quick test_workers_validated ] );
      ( "pool",
        [ Alcotest.test_case "canonical order" `Quick test_map_canonical_order;
          Alcotest.test_case "empty job list" `Quick test_map_empty;
          Alcotest.test_case "fewer jobs than domains" `Quick test_map_fewer_jobs_than_domains;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "deterministic failure" `Quick test_map_failure_deterministic;
          Alcotest.test_case "validates domains" `Quick test_map_validates ] );
      ( "map_with",
        [ Alcotest.test_case "init/finish once per worker" `Quick
            test_map_with_init_finish_once_per_worker;
          Alcotest.test_case "shared state is sequential" `Quick
            test_map_with_shared_state_sequential;
          Alcotest.test_case "finish survives job failure" `Quick
            test_map_with_finish_runs_on_job_failure;
          Alcotest.test_case "validates domains" `Quick test_map_with_validates ] );
      ( "commit",
        [ Alcotest.test_case "commits in job order" `Quick test_commit_in_job_order;
          Alcotest.test_case "a failing job passes its turn" `Quick
            test_commit_turn_passes_on_failure;
          Alcotest.test_case "a failing init passes its turns" `Quick
            test_commit_turn_passes_on_init_failure ] );
      ( "isolation",
        [ Alcotest.test_case "shard traces isolated" `Quick test_shard_trace_isolation ] );
      ( "arena",
        [ Alcotest.test_case "ring wraparound and reuse" `Quick
            test_ring_wraparound_and_reuse;
          QCheck_alcotest.to_alcotest test_arena_reuse_byte_identical ] );
      ( "merge",
        [ Alcotest.test_case "chrome shards" `Quick test_streamed_chrome_shape;
          Alcotest.test_case "streaming envelope" `Quick test_chrome_streaming_envelope;
          Alcotest.test_case "concat_spills" `Quick test_concat_spills ] );
      ( "determinism",
        [ Alcotest.test_case "fleet bench artifacts" `Quick
            test_fleetbench_domain_count_invariance;
          QCheck_alcotest.to_alcotest test_stream_domain_invariant;
          Alcotest.test_case "24-VM artifact MD5s" `Quick test_fleet_golden_md5;
          Alcotest.test_case "100 VMs leave the live heap bounded" `Quick
            test_stream_live_heap_bounded;
          Alcotest.test_case "fault matrix verdicts" `Quick
            test_matrix_domain_count_invariance;
          Alcotest.test_case "run_stream writes only its outputs" `Quick
            test_stream_writes_only_outputs;
          Alcotest.test_case "a failed write strands no worker" `Quick
            test_stream_failed_write_strands_no_worker;
          Alcotest.test_case "24-VM event census" `Quick test_fleet_event_census ] ) ]
