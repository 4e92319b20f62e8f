let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let workers ~njobs ~ndomains =
  if njobs < 0 then invalid_arg "Pool.workers: njobs must be >= 0";
  if ndomains < 1 then invalid_arg "Pool.workers: ndomains must be >= 1";
  min (recommended_domains ()) (min ndomains njobs)

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
  let slots = Array.make njobs Pending in
  (* Jobs run on spawned domains even when the pool has a single worker,
     so no job ever inherits the caller's domain-local state (trace ring,
     fault plan) — otherwise [~domains:1] and [~domains:n] could
     observably differ.

     At most [recommended_domains ()] worker domains exist per call, and
     worker [w] runs the [w]-th of [nworkers] contiguous blocks of jobs,
     in order. Spawning more domains than cores oversubscribes them, and
     OCaml 5's minor GC is a stop-the-world rendezvous across running
     domains, so every allocation pause would wait on timesliced
     stragglers — that is what once made [~domains:2] run slower than
     [~domains:1] on a single-core host. So [~domains:n] on one core
     spawns exactly one domain and executes jobs 0..njobs-1 in order,
     as [~domains:1] does. Every job writes only its own slot, so the
     schedule reaches no result. *)
  let nworkers = workers ~njobs ~ndomains in
  let spawned =
    List.init nworkers (fun w ->
        Domain.spawn (fun () ->
            (* Worker-local state (an arena) lives for the whole worker:
               [init] runs before the first job, [finish] after the last
               — even when jobs raise, since job exceptions are confined
               to their slots. *)
            let st = init w in
            Fun.protect
              ~finally:(fun () -> finish w st)
              (fun () ->
                for j = w * njobs / nworkers to ((w + 1) * njobs / nworkers) - 1 do
                  slots.(j) <- (try Done (f st j) with e -> Raised e)
                done)))
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

let map ?domains ~njobs f =
  map_gen ~who:"map" ?domains ~njobs ~init:(fun _ -> ()) ~finish:(fun _ _ -> ())
    (fun () j -> f j)

let map_with ?domains ~njobs ~init ?(finish = fun _ _ -> ()) f =
  map_gen ~who:"map_with" ?domains ~njobs ~init ~finish f

let map_list ?domains f xs =
  let arr = Array.of_list xs in
  map ?domains ~njobs:(Array.length arr) (fun j -> f arr.(j))
