type row = {
  attack : Surface.attack;
  baseline : Surface.outcome;
  sev_es : Surface.outcome;
  fidelius : Surface.outcome;
}

(* Only exceptions that model a defense mechanism turning the attacker
   away count as [Blocked]. Anything else — [Failure], [Invalid_argument],
   a programming error in an attack — is a harness fault and must surface
   as [Errored]: mapping it to [Blocked] would count simulator crashes as
   successful defenses. *)
let guard f =
  try f ()
  with
  | Fidelius_hw.Denial.Denied m -> Surface.Blocked m
  | Fidelius_xen.Hypervisor.Npf_unresolved m -> Surface.Blocked ("NPF handler refused: " ^ m)
  | Fidelius_hw.Mmu.Fault { reason; _ } -> Surface.Blocked ("page fault: " ^ reason)
  | e -> Surface.Errored (Printexc.to_string e)

(* The per-attack seed hashes the attack *id*, not its position in
   [Suite.all], so reordering the catalogue (or running a single attack in
   isolation) can never change any attack's stacks. *)
let seed_of ~seed (attack : Surface.attack) =
  Int64.add seed (Fidelius_crypto.Rng.seed_of_label attack.Surface.id)

let run_one ?(seed = 2024L) attack =
  let seed = seed_of ~seed attack in
  let base_stack = Env.baseline ~seed in
  let es_stack = Env.baseline_es ~seed:(Int64.add seed 2L) in
  let fid_stack = Env.protected_ ~seed:(Int64.add seed 1L) in
  { attack;
    baseline = guard (fun () -> attack.Surface.run base_stack);
    sev_es = guard (fun () -> attack.Surface.run es_stack);
    fidelius = guard (fun () -> attack.Surface.run fid_stack) }

let run_all ?(seed = 2024L) ?domains () =
  Fidelius_fleet.Pool.map_list ?domains (fun a -> run_one ~seed a) Suite.all

let errors rows =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (stack, o) ->
          match o with Surface.Errored m -> Some (r.attack.Surface.id, stack, m) | _ -> None)
        [ ("baseline", r.baseline); ("sev-es", r.sev_es); ("fidelius", r.fidelius) ])
    rows

let summary rows =
  let total = List.length rows in
  let defended =
    List.length (List.filter (fun r -> Surface.is_defended r.fidelius) rows)
  in
  let baseline_vulnerable =
    List.length (List.filter (fun r -> not (Surface.is_defended r.baseline)) rows)
  in
  (total, defended, baseline_vulnerable)

let pp_table fmt rows =
  let w = 34 in
  let trunc s = if String.length s > w then String.sub s 0 (w - 3) ^ "..." else s in
  Format.fprintf fmt "@[<v>%-22s | %-*s | %-*s | %-*s@," "attack" w "plain SEV" w "SEV-ES" w
    "Fidelius";
  Format.fprintf fmt "%s@," (String.make (25 + (3 * (w + 3))) '-');
  List.iter
    (fun r ->
      Format.fprintf fmt "%-22s | %-*s | %-*s | %-*s@," r.attack.Surface.id w
        (trunc (Surface.outcome_to_string r.baseline))
        w
        (trunc (Surface.outcome_to_string r.sev_es))
        w
        (trunc (Surface.outcome_to_string r.fidelius)))
    rows;
  let total, defended, base_vuln = summary rows in
  let es_vuln =
    List.length (List.filter (fun r -> not (Surface.is_defended r.sev_es)) rows)
  in
  Format.fprintf fmt "%s@," (String.make (25 + (3 * (w + 3))) '-');
  Format.fprintf fmt
    "%d attacks: plain SEV vulnerable to %d, SEV-ES still vulnerable to %d, Fidelius defends %d/%d@]"
    total base_vuln es_vuln defended total
