let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let chunks ~njobs ~ndomains =
  if njobs < 0 then invalid_arg "Pool.chunks: njobs must be >= 0";
  if ndomains < 1 then invalid_arg "Pool.chunks: ndomains must be >= 1";
  let d = min ndomains (max njobs 1) in
  let q = njobs / d and r = njobs mod d in
  List.init d (fun i -> ((i * q) + min i r, q + if i < r then 1 else 0))

let workers ~njobs ~ndomains =
  min (recommended_domains ()) (List.length (chunks ~njobs ~ndomains))

let worker_of_chunk ~nchunks ~nworkers i = i * nworkers / nchunks

exception Job_failed of { job : int; exn : exn }

(* One slot per job, written by exactly one worker domain; [Domain.join]
   publishes every write before the main domain reads any slot back. *)
type 'a slot =
  | Pending
  | Done of 'a
  | Raised of exn

let map_gen ~who ?domains ~njobs ~init ~finish f =
  let ndomains =
    match domains with
    | None -> recommended_domains ()
    | Some d ->
        if d < 1 then invalid_arg (Printf.sprintf "Pool.%s: domains must be >= 1" who) else d
  in
  if njobs < 0 then invalid_arg (Printf.sprintf "Pool.%s: njobs must be >= 0" who);
  if njobs = 0 then []
  else begin
    let slots = Array.make njobs Pending in
    (* Jobs run on spawned domains even when the pool has a single worker,
       so no job ever inherits the caller's domain-local state (trace
       ring, fault plan) — otherwise [~domains:1] and [~domains:n] could
       observably differ.

       At most [recommended_domains ()] worker domains exist per call:
       chunks beyond the cap are dealt out in contiguous blocks
       ([worker_of_chunk]), each worker running its block in order, so a
       worker's jobs form one contiguous range. Two failure modes are
       avoided at once. Spawning all requested domains concurrently
       oversubscribes the cores, and OCaml 5's minor GC is a
       stop-the-world rendezvous across running domains, so every
       allocation pause waits on timesliced stragglers — that is what made
       [~domains:2] run slower than [~domains:1] on a single-core host.
       And spawning them sequentially pays a domain lifecycle
       (spawn/teardown against a warm major heap measures ~10ms) per
       chunk. With the cap, [~domains:n] on one core spawns exactly one
       domain and executes jobs 0..njobs-1 in the same order as
       [~domains:1]. The job → chunk assignment is untouched: the cap only
       changes which OS-level domain hosts a chunk, never the chunking or
       the slot each job writes, so results and artifacts stay
       byte-identical for every domain count. *)
    let chunk_list = chunks ~njobs ~ndomains in
    let nchunks = List.length chunk_list in
    let nworkers = min (recommended_domains ()) nchunks in
    let groups = Array.make nworkers [] in
    List.iteri
      (fun i c ->
        let w = worker_of_chunk ~nchunks ~nworkers i in
        groups.(w) <- c :: groups.(w))
      chunk_list;
    let spawned =
      Array.to_list
        (Array.mapi
           (fun w rev_chunks ->
             let mine = List.rev rev_chunks in
             Domain.spawn (fun () ->
                 (* Worker-local state (an arena) lives for the whole worker:
                    [init] runs before the first chunk, [finish] after the
                    last — even when jobs raise, since job exceptions are
                    confined to their slots. *)
                 let st = init w in
                 Fun.protect
                   ~finally:(fun () -> finish w st)
                   (fun () ->
                     List.iter
                       (fun (start, len) ->
                         for j = start to start + len - 1 do
                           slots.(j) <- (try Done (f st j) with e -> Raised e)
                         done)
                       mine)))
           groups)
    in
    (* Join every worker before propagating anything: an [init]/[finish]
       failure on one worker must not leave others unjoined (their slot
       writes would be unpublished and their domains leaked). The lowest
       worker's exception wins, deterministically. *)
    let worker_failure =
      List.fold_left
        (fun acc d ->
          match Domain.join d with
          | () -> acc
          | exception e -> ( match acc with None -> Some e | some -> some))
        None spawned
    in
    (match worker_failure with Some e -> raise e | None -> ());
    (* Report the lowest failing job, not the first domain to crash. *)
    Array.iteri
      (fun job -> function Raised exn -> raise (Job_failed { job; exn }) | _ -> ())
      slots;
    Array.to_list (Array.map (function Done v -> v | Raised _ | Pending -> assert false) slots)
  end

let map ?domains ~njobs f =
  map_gen ~who:"map" ?domains ~njobs ~init:(fun _ -> ()) ~finish:(fun _ _ -> ())
    (fun () j -> f j)

let map_with ?domains ~njobs ~init ?(finish = fun _ _ -> ()) f =
  map_gen ~who:"map_with" ?domains ~njobs ~init ~finish f

let map_list ?domains f xs =
  let arr = Array.of_list xs in
  map ?domains ~njobs:(Array.length arr) (fun j -> f arr.(j))
