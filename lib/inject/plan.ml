type t = {
  seed : int64;
  site : Site.t;
  mutable fired : bool;
  mutable draws : int;  (* parameter draws so far *)
}

let make ?(seed = 2026L) site = { seed; site; fired = false; draws = 0 }

(* The active plan is domain-local: each fleet shard arms and clears its
   own plan without a lock, and a freshly spawned domain starts with no
   plan installed whatever its parent had armed. *)
let slot : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let installed () = !(Domain.DLS.get slot)

let armed () = installed () <> None

let install t = Domain.DLS.get slot := Some t

let uninstall () = Domain.DLS.get slot := None

let fire site =
  match installed () with
  | Some t when (not t.fired) && Site.index t.site = Site.index site ->
      t.fired <- true;
      if Fidelius_obs.Trace.enabled () then
        Fidelius_obs.Trace.emit (Fault { site = Site.to_string site; hit = 1 });
      true
  | _ -> false

(* splitmix64 finalizer — each parameter is a pure hash of (seed, site,
   counter), so nothing else's state can shift it. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let draw site ~bound =
  if bound <= 0 then invalid_arg "Plan.draw: bound must be positive";
  match installed () with
  | None -> invalid_arg "Plan.draw: no plan installed"
  | Some t ->
      let k = t.draws in
      t.draws <- k + 1;
      let h =
        mix64
          (Int64.logxor
             (Int64.add t.seed 0x9e3779b97f4a7c15L)
             (mix64 (Int64.of_int ((Site.index site * 0x10001) + k))))
      in
      Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int bound))

let fired t = t.fired
