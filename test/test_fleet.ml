(* Tests for the fleet runner: the chunked-scheduling partition property,
   pool edge cases (empty job list, more domains than jobs, failing jobs),
   per-shard trace isolation, and the determinism contract — the fleet
   benchmark's merged artifacts and the fault matrix's verdicts must be
   byte-identical for any domain count (SCALING.md). *)

module Pool = Fidelius_fleet.Pool
module Merge = Fidelius_fleet.Merge
module Trace = Fidelius_obs.Trace
module Json = Fidelius_obs.Json
module W = Fidelius_workloads
module Matrix = Fidelius_inject_matrix.Matrix
module Site = Fidelius_inject.Site

(* --- chunks: the static schedule ----------------------------------------- *)

let test_chunks_partition =
  QCheck.Test.make ~count:200 ~name:"chunks partition 0..njobs-1 evenly"
    QCheck.(pair (int_bound 200) (int_range 1 32))
    (fun (njobs, ndomains) ->
      let cs = Pool.chunks ~njobs ~ndomains in
      let covered = List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) cs in
      let lens = List.map snd cs in
      let lo = List.fold_left min max_int lens and hi = List.fold_left max 0 lens in
      (* contiguous in-order cover of the job range... *)
      covered = List.init njobs (fun j -> j)
      (* ...with chunk sizes differing by at most one... *)
      && (njobs = 0 || hi - lo <= 1)
      (* ...and never more domains than jobs. *)
      && List.length cs <= max njobs 1)

let test_chunks_pure () =
  Alcotest.(check bool) "same inputs, same schedule" true
    (Pool.chunks ~njobs:17 ~ndomains:4 = Pool.chunks ~njobs:17 ~ndomains:4);
  Alcotest.(check (list (pair int int))) "13 jobs over 4 domains"
    [ (0, 4); (4, 3); (7, 3); (10, 3) ]
    (Pool.chunks ~njobs:13 ~ndomains:4);
  Alcotest.check_raises "njobs < 0 rejected"
    (Invalid_argument "Pool.chunks: njobs must be >= 0") (fun () ->
      ignore (Pool.chunks ~njobs:(-1) ~ndomains:2));
  Alcotest.check_raises "ndomains < 1 rejected"
    (Invalid_argument "Pool.chunks: ndomains must be >= 1") (fun () ->
      ignore (Pool.chunks ~njobs:4 ~ndomains:0))

(* Chunks beyond the worker cap go to workers in contiguous blocks: along
   the chunk order the worker index never decreases, so each worker's
   chunks form one run, in order, and when there are at least as many
   chunks as workers every worker gets a block, the blocks differing in
   size by at most one. 1000 draws cover all 64 shapes. *)
let test_worker_of_chunk_blocks =
  QCheck.Test.make ~count:1000 ~name:"worker_of_chunk deals contiguous ordered blocks"
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (nchunks, nworkers) ->
      let owner = List.init nchunks (Pool.worker_of_chunk ~nchunks ~nworkers) in
      let sizes = List.init nworkers (fun w -> List.length (List.filter (( = ) w) owner)) in
      let lo = List.fold_left min max_int sizes and hi = List.fold_left max 0 sizes in
      List.for_all (fun w -> w >= 0 && w < nworkers) owner
      && List.sort compare owner = owner
      && (nworkers > nchunks || (lo >= 1 && hi - lo <= 1)))

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
  (* A worker's jobs are its chunk: contiguous, so each worker index must
     tag a contiguous run of job indices. *)
  let chunk_workers = List.map fst results in
  let deduped =
    List.fold_left (fun acc w -> match acc with x :: _ when x = w -> acc | _ -> w :: acc) []
      chunk_workers
  in
  Alcotest.(check int) "each worker owns one contiguous job range" nworkers
    (List.length deduped)

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
        (Printf.sprintf "job %d is its worker's %dth (1-based, within chunk)" j nth)
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
   exactly as run_stream assembles its spills: header, one fragment per
   VM, footer. VM k records [counts.(k)] Mark events; one VM records
   none. *)
let counts = [| 3; 0; 2 |]

let streamed_document () =
  let ring = Trace.ring () and buf = Buffer.create 256 in
  let doc = Buffer.create 1024 in
  Buffer.add_string doc Merge.chrome_header;
  Array.iteri
    (fun vm n ->
      Trace.record_into ring (fun () ->
          for i = 0 to n - 1 do
            Trace.emit (Trace.Mark (Printf.sprintf "vm%d-%d" vm i))
          done);
      W.Fleetbench.chrome_fragment buf ~vm ring;
      Buffer.add_buffer doc buf)
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

(* The same property end-to-end: run_stream (arenas + spill files) must
   write the same bytes and return the same rows at any domain count as
   on one worker, for random population and domain counts. *)
let test_stream_domain_invariant =
  QCheck.Test.make ~count:6 ~name:"run_stream output = 1-domain output"
    QCheck.(pair (int_bound 5) (int_range 1 3))
    (fun (vms, domains) -> stream ~domains ~vms = stream ~domains:1 ~vms)

(* The artifacts of a 24-VM streamed fleet (the whole profile catalogue),
   pinned by MD5 at one and two workers. The digests were recorded when
   every event still went through [Trace.chrome_event] and
   [Json.to_buffer], so they hold the streaming writer to the bytes of the
   tree printer on real traces, and hold both to the bytes every earlier
   run wrote. *)
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
            "568fb1719b8d99550f1ceafac16459ab" (md5 csv_f);
          Alcotest.(check string) (Printf.sprintf "fleet trace at %d domains" domains)
            "120031c2649237798ee84524fffa9b5b" (md5 trc_f))
        [ 1; 2 ])

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
    [ ( "chunks",
        [ QCheck_alcotest.to_alcotest test_chunks_partition;
          Alcotest.test_case "pure and validated" `Quick test_chunks_pure;
          QCheck_alcotest.to_alcotest test_worker_of_chunk_blocks ] );
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
          Alcotest.test_case "fault matrix verdicts" `Quick
            test_matrix_domain_count_invariance ] ) ]
