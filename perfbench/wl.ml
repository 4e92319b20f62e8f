(* What every workload hands the main loop, and the machinery they
   share: set-up step timers and the deterministic exact-counter prefix. *)

module Hw = Fidelius_hw
module Trace = Fidelius_obs.Trace

(* Simulated counts over a fixed stretch of ops. They are a pure function
   of the seed, so they must repeat bit-for-bit between set-ups in one
   run and between runs. Each count is named after the metric it becomes
   (a count [k] is reported as [k] and as [k_per_op]). [ops] divides
   [counts]; [census_ops] divides the obs.trace and sev.firmware counts,
   which come from a separate traced stretch; [failed] counts the ops of
   both stretches whose output check failed. *)
type exact = {
  ops : int;
  census_ops : int;
  failed : int;
  counts : (string * int) list;
}

type instance = {
  batch : int;  (** ops one call performs: 1, or the VMs of one fleet call *)
  workers : int;  (** worker domains the calls use *)
  rss_calls : int;
      (** timed calls after which peak RSS is read: a fixed amount of work
          (about two seconds' worth on a 2-core Xeon), so the figure does not
          depend on how many calls a run's host time allowed *)
  op : int -> unit;  (** the timed call [i]; keeps its outputs for [check] *)
  check : int -> bool;  (** whether call [i]'s outputs were correct *)
  finish : unit -> bool;  (** end-of-run output check *)
  exact : unit -> exact;  (** runs the exact-counter prefix, once, right after set-up *)
  layer : unit -> (string * float) list;
      (** per-layer figures the workload measures itself (traced run only) *)
  layer_metrics : string list;
      (** the per-layer metrics a traced run of this workload must produce,
          besides the ones every workload produces *)
}

(* --- set-up steps ---------------------------------------------------------- *)

(* Host time of each named set-up step, summed per set-up and kept for
   every set-up of the run, so the traced run can report each step's
   median. *)
let steps : (string, float list) Hashtbl.t = Hashtbl.create 8
let current : (string * int) list ref = ref []

let step name f =
  let t0 = Util.now_ns () in
  let r = f () in
  let dt = Util.now_ns () - t0 in
  let prev = Option.value ~default:0 (List.assoc_opt name !current) in
  current := (name, prev + dt) :: List.remove_assoc name !current;
  r

(* Close one set-up: file its step times, scaled like every host time
   (see [Util.probe]). *)
let end_setup ~slowdown =
  List.iter
    (fun (name, ns) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt steps name) in
      Hashtbl.replace steps name ((float_of_int ns /. 1e6 /. slowdown) :: prev))
    !current;
  current := []

let step_ms name = match Hashtbl.find_opt steps name with Some xs -> Util.median xs | None -> 0.0

(* The per-layer metrics of the steps that boot a host and a protected
   guest on it, which serve, guest-mem and migrate all take. *)
let boot_step_metrics =
  [ "hw.machine.create_ms";
    "xen.hypervisor.boot_ms";
    "core.fidelius.install_ms";
    "sev.transport.owner_prepare_ms";
    "core.fidelius.boot_protected_vm_ms" ]

(* --- exact counters ---------------------------------------------------------- *)

let ledger_counts ledgers =
  let tbl = Hashtbl.create 32 in
  let add k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun l ->
      add "sim_cycles" (Hw.Cost.total l);
      List.iter (fun (c, v) -> add ("hw.cost." ^ c ^ "_cycles") v) (Hw.Cost.categories l))
    ledgers;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let delta before after =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after
  |> List.sort compare

(* Run one call under a fresh trace recording and count the instant
   events it emitted by event name, and firmware commands by mnemonic.
   Returns whether the call completed. *)
let census ring op tbl =
  let completed = match Trace.record_into ring op with () -> true | exception _ -> false in
  if Trace.ring_dropped ring > 0 then failwith "perfbench: trace census ring overflowed";
  let add k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Trace.ring_iter ring (fun e ->
      add ("obs.trace." ^ Trace.event_name e.Trace.event);
      match e.Trace.event with Trace.Fw_cmd mn -> add ("sev.firmware." ^ mn) | _ -> ());
  Trace.ring_reset ring;
  completed

(* The prefix the stateful workloads share: [n] untraced calls measuring
   counter deltas and the minor words the calls themselves allocate (the
   output checks excluded), then [m] calls under a trace recording
   counting instant events. *)
let prefix ~n ~m ~counters ~op ~check =
  let failed = ref 0 and words = ref 0.0 in
  let c0 = counters () in
  for i = 0 to n - 1 do
    let w0 = Gc.minor_words () in
    let completed = match op i with () -> true | exception _ -> false in
    words := !words +. (Gc.minor_words () -. w0);
    if not (completed && check i) then incr failed
  done;
  let c1 = counters () in
  let events = Hashtbl.create 32 in
  let ring = Trace.ring ~capacity:(1 lsl 18) () in
  for i = n to n + m - 1 do
    if not (census ring (fun () -> op i) events && check i) then incr failed
  done;
  { ops = n;
    census_ops = m;
    failed = !failed;
    counts =
      (("runtime.minor_words", int_of_float !words) :: delta c0 c1)
      @ (Hashtbl.fold (fun k v acc -> (k, v) :: acc) events [] |> List.sort compare) }
