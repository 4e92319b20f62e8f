module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Attacks = Fidelius_attacks
module Site = Fidelius_inject.Site
module Plan = Fidelius_inject.Plan
module Surface = Attacks.Surface
module Wire = Core.Migrate.Wire

type stack_kind = Plain_sev | Fidelius

type verdict = Fail_closed | Detected | Silent_corruption | Harness_error

let verdict_to_string = function
  | Fail_closed -> "fail-closed"
  | Detected -> "detected"
  | Silent_corruption -> "SILENT-CORRUPTION"
  | Harness_error -> "HARNESS-ERROR"

let severity = function
  | Fail_closed -> 0
  | Detected -> 1
  | Silent_corruption -> 2
  | Harness_error -> 3

type cell = {
  site : Site.t;
  stack : stack_kind;
  verdict : verdict;
  detail : string;
}

type report = {
  seed : int64;
  cells : cell list;
}

(* Every probe arms a fresh single-shot plan: the site fires exactly once,
   on its first guarded occurrence, making each cell's perturbation both
   minimal and perfectly reproducible. *)
let with_plan ~seed site f =
  Plan.install (Plan.make ~seed site);
  Fun.protect ~finally:Plan.uninstall f

let build kind ~seed =
  match kind with
  | Plain_sev -> Attacks.Env.baseline ~seed
  | Fidelius -> Attacks.Env.protected_ ~seed

let ctor = function
  | Surface.Leaked _ -> `Leaked
  | Surface.Tampered _ -> `Tampered
  | Surface.Degraded _ -> `Degraded
  | Surface.Blocked _ -> `Blocked
  | Surface.Errored _ -> `Errored

let defended o = Surface.is_defended o

(* --- probe 1: the attack suite ---------------------------------------- *)

(* A fault must never flip an attack from defended to undefended without a
   defence noticing. Outcomes are compared by constructor: messages may
   legitimately carry fault-dependent payloads (ciphertext samples etc.). *)
let score_attack ~reference ~faulted =
  match faulted with
  | Surface.Errored m -> (Harness_error, "attack errored: " ^ m)
  | _ when ctor faulted = ctor reference -> (Fail_closed, "outcome unchanged")
  | _ when defended faulted ->
      (Detected, "outcome became " ^ Surface.outcome_to_string faulted)
  | _ when defended reference ->
      (Silent_corruption, "defended became " ^ Surface.outcome_to_string faulted)
  | _ ->
      (* undefended in both runs, but the failure mode changed unnoticed *)
      (Silent_corruption, "undefended outcome drifted to " ^ Surface.outcome_to_string faulted)

let attack_probe ~seed ~references site kind attacks =
  List.fold_left
    (fun (worst, detail) (i, (attack : Surface.attack)) ->
      let stack_seed = Int64.add seed (Int64.of_int (i * 10)) in
      let stack = build kind ~seed:stack_seed in
      let faulted =
        with_plan ~seed site (fun () ->
            Attacks.Runner.guard (fun () -> attack.Surface.run stack))
      in
      let reference = List.assoc attack.Surface.id references in
      let v, d = score_attack ~reference ~faulted in
      if severity v > severity worst then (v, attack.Surface.id ^ ": " ^ d)
      else (worst, detail))
    (Fail_closed, "attack outcomes unchanged")
    (List.mapi (fun i a -> (i, a)) attacks)

(* --- probe 2: migration round trip ------------------------------------ *)

let secret_survives machine hv dom =
  let b =
    Xen.Hypervisor.in_guest hv dom (fun () ->
        Xen.Domain.read machine dom ~addr:Attacks.Env.secret_gva
          ~len:(String.length Attacks.Env.secret))
  in
  Bytes.to_string b = Attacks.Env.secret

(* Fidelius migration: the product path, Core.Migrate.migrate_live with an
   attesting owner — every wire frame crosses the instrumented untrusted
   channel, a mutator keeps the dirty rounds nonzero, and the disk key is
   gated on the target's quote, so the channel sites (Round_truncate and
   both Snapshot sites) and the attestation sites (Stale_firmware,
   Secret_before_attest) all strike the path production code uses. *)
let fidelius_migration_probe ~seed site =
  let src = Attacks.Env.protected_ ~seed in
  let fid1 = Option.get src.Surface.fid in
  let dom = src.Surface.victim in
  let m2 = Hw.Machine.create ~seed:(Int64.add seed 31L) () in
  let hv2 = Xen.Hypervisor.boot m2 in
  let fid2 = Core.Fidelius.install hv2 in
  let owner = Core.Migrate.Owner.create m2.Hw.Machine.rng in
  let mutate _round =
    Xen.Hypervisor.in_guest src.Surface.hv dom (fun () ->
        Xen.Domain.write src.Surface.machine dom ~addr:0x7000
          (Bytes.of_string "pre-copy dirtier"))
  in
  let outcome =
    with_plan ~seed site (fun () ->
        try `Result (Core.Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom) with
        | Hw.Denial.Denied m -> `Denied m
        | Xen.Hypervisor.Npf_unresolved m -> `Denied m
        | Hw.Mmu.Fault { reason; _ } -> `Denied reason
        | e -> `Exn (Printexc.to_string e))
  in
  match outcome with
  | `Denied m -> (Detected, "migration denied: " ^ m)
  | `Exn m -> (Harness_error, "migration raised: " ^ m)
  | `Result (Error (Core.Migrate.Truncated _ as e))
  | `Result (Error (Core.Migrate.Malformed _ as e))
  | `Result (Error (Core.Migrate.Rejected _ as e))
  | `Result (Error (Core.Migrate.Unknown_version _ as e))
  | `Result (Error (Core.Migrate.Protocol_violation _ as e))
  | `Result (Error (Core.Migrate.Stale_firmware _ as e))
  | `Result (Error (Core.Migrate.Attest_refused _ as e)) ->
      (* a defence (framing, measurement, state machine or the owner's
         attestation policy) named the fault; the key was never released *)
      (Detected, Core.Migrate.error_to_string e)
  | `Result (Error e) ->
      (* refused or rolled back before any guest ran: closed, undetected *)
      (Fail_closed, Core.Migrate.error_to_string e)
  | `Result (Ok (dom', report)) ->
      if not (secret_survives m2 hv2 dom') then
        (Silent_corruption, "guest resumed with corrupted state")
      else if
        (not report.Core.Migrate.secret_released)
        || not (Bytes.equal (Core.Lifecycle.kblk_of_guest fid2 dom') (Core.Migrate.Owner.disk_key owner))
      then (Silent_corruption, "disk key not delivered intact")
      else (Fail_closed, "round trip intact")

(* Plain-SEV migration: the same firmware commands, driven by the stock
   (untrusted) hypervisor with no Fidelius validation layer — the
   configuration the paper's Section 2.2 analyzes. *)
let plain_migration_probe ~seed site =
  let ( let* ) = Result.bind in
  let src = Attacks.Env.baseline ~seed in
  let machine1 = src.Surface.machine in
  let fw1 = src.Surface.hv.Xen.Hypervisor.fw in
  let m2 = Hw.Machine.create ~seed:(Int64.add seed 31L) () in
  let hv2 = Xen.Hypervisor.boot m2 in
  let fw2 = hv2.Xen.Hypervisor.fw in
  let handle1 = Option.get src.Surface.victim.Xen.Domain.sev_handle in
  let nonce = Fidelius_crypto.Rng.next64 machine1.Hw.Machine.rng in
  (* Send side runs clean — the channel and the target are what the fault
     plan perturbs. *)
  let sent =
    let* wrapped_keys =
      Sev.Firmware.send_start fw1 ~handle:handle1
        ~target_public:(Sev.Firmware.platform_public fw2) ~nonce
    in
    let mapped =
      Hw.Pagetable.mapped_frames src.Surface.victim.Xen.Domain.npt
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let* pages =
      List.fold_left
        (fun acc (gfn, (npte : Hw.Pagetable.proto)) ->
          let* acc = acc in
          let* cipher =
            Sev.Firmware.send_update fw1 ~handle:handle1 ~index:gfn
              ~src_pfn:npte.Hw.Pagetable.frame
          in
          Ok ((gfn, cipher) :: acc))
        (Ok []) mapped
    in
    let* measurement = Sev.Firmware.send_finish fw1 ~handle:handle1 in
    let pages = List.rev pages in
    Ok
      [ Wire.Start
          { name = "victim";
            memory_pages = List.length pages;
            policy = Sev.Firmware.policy_nodbg;
            nonce;
            wrapped_keys;
            origin_public = Sev.Firmware.platform_public fw1 };
        Wire.Update { round = 0; pages };
        Wire.Finish { measurement; gpt_entries = [] } ]
  in
  match sent with
  | Error e -> (Harness_error, "plain send failed clean: " ^ e)
  | Ok frames -> (
      let received =
        with_plan ~seed site (fun () ->
            try
              (* Every frame crosses the untrusted channel before the
                 target acts on any of them. *)
              let* frames =
                List.fold_left
                  (fun acc f ->
                    let* acc = acc in
                    match Wire.decode (Wire.transmit (Wire.encode f)) with
                    | Ok f -> Ok (f :: acc)
                    | Error e -> Error (`Wire (Core.Migrate.error_to_string e)))
                  (Ok []) frames
              in
              match List.rev frames with
              | [ Wire.Start { memory_pages; policy; nonce; wrapped_keys; origin_public; _ };
                  Wire.Update { pages; _ };
                  Wire.Finish { measurement; _ } ] ->
                  let dom2 = Xen.Hypervisor.create_domain hv2 ~name:"victim" ~memory_pages in
                  let* handle2 =
                    Result.map_error (fun e -> `Rejected e)
                      (Sev.Firmware.receive_start fw2 ~wrapped:wrapped_keys ~origin_public
                         ~nonce ~policy ())
                  in
                  let* () =
                    List.fold_left
                      (fun acc (index, cipher) ->
                        let* () = acc in
                        let gfn = Core.Migrate.gfn_of_index index in
                        match Hw.Pagetable.lookup dom2.Xen.Domain.npt gfn with
                        | None -> Error (`Mechanical (Printf.sprintf "gfn 0x%x unbacked" gfn))
                        | Some npte ->
                            Result.map_error
                              (fun e -> `Rejected e)
                              (Sev.Firmware.receive_update fw2 ~handle:handle2 ~index ~cipher
                                 ~dst_pfn:npte.Hw.Pagetable.frame))
                      (Ok ()) pages
                  in
                  let* () =
                    Result.map_error (fun e -> `Rejected e)
                      (Sev.Firmware.receive_finish fw2 ~handle:handle2 ~expected:measurement)
                  in
                  let* () =
                    Result.map_error (fun e -> `Mechanical e)
                      (Sev.Firmware.activate fw2 ~handle:handle2 ~asid:dom2.Xen.Domain.asid)
                  in
                  dom2.Xen.Domain.sev_handle <- Some handle2;
                  dom2.Xen.Domain.sev_protected <- true;
                  Hw.Vmcb.set dom2.Xen.Domain.vmcb Hw.Vmcb.Sev_enabled 1L;
                  for gvfn = 0 to memory_pages - 1 do
                    Xen.Domain.guest_map dom2 ~gvfn ~gfn:gvfn ~writable:true ~executable:true
                      ~c_bit:true
                  done;
                  Ok dom2
              | _ -> Error (`Wire "unexpected frame sequence")
            with
            | Hw.Denial.Denied m -> Error (`Denied m)
            | Xen.Hypervisor.Npf_unresolved m -> Error (`Denied m)
            | Hw.Mmu.Fault { reason; _ } -> Error (`Denied reason)
            | e -> Error (`Exn (Printexc.to_string e)))
      in
      match received with
      | Error (`Wire e) -> (Detected, "channel damage detected: " ^ e)
      | Error (`Rejected e) -> (Detected, "target firmware refused: " ^ e)
      | Error (`Denied m) -> (Detected, "denied: " ^ m)
      | Error (`Mechanical e) -> (Fail_closed, "receive failed closed: " ^ e)
      | Error (`Exn m) -> (Harness_error, "plain receive raised: " ^ m)
      | Ok dom2 ->
          if secret_survives m2 hv2 dom2 then (Fail_closed, "round trip intact")
          else (Silent_corruption, "guest resumed with corrupted state"))

let migration_probe ~seed site kind =
  match kind with
  | Fidelius -> fidelius_migration_probe ~seed site
  | Plain_sev -> plain_migration_probe ~seed site

(* --- probe 3: runtime secret readback --------------------------------- *)

(* DRAM-level faults strike during an ordinary guest read. Plain SEV has
   nothing watching — a flipped or misrouted fetch garbles state silently.
   The Fidelius stack reads through the hardware-integrity extension,
   whose inline fetch check turns the same fault into a denial. The probe
   reads the whole page holding the secret so a fault anywhere in it is
   visible, and compares against a fault-free read of the same page. *)
let runtime_probe ~seed site kind =
  let stack = build kind ~seed in
  let page_gva = Hw.Addr.addr_of (Hw.Addr.frame_of Attacks.Env.secret_gva) 0 in
  let len = Hw.Addr.page_size in
  let read =
    match kind with
    | Plain_sev ->
        fun () ->
          Ok
            (Bytes.to_string
               (Xen.Hypervisor.in_guest stack.Surface.hv stack.Surface.victim (fun () ->
                    Xen.Domain.read stack.Surface.machine stack.Surface.victim
                      ~addr:page_gva ~len)))
    | Fidelius ->
        let fid = Option.get stack.Surface.fid in
        let integ = Core.Integrity.protect fid stack.Surface.victim in
        fun () ->
          Result.map Bytes.to_string (Core.Integrity.verified_read integ ~addr:page_gva ~len)
  in
  match read () with
  | Error e -> (Harness_error, "fault-free read failed: " ^ e)
  | Ok clean -> (
      (* Evict the page's cache lines so the faulted read actually reaches
         DRAM — the untrusted hypervisor controls WBINVD, so a disturbance
         attack always gets to pair with an eviction. *)
      Hw.Cache.invalidate_page stack.Surface.machine.Hw.Machine.cache
        (Attacks.Env.resolve_secret_frame stack);
      let outcome =
        with_plan ~seed site (fun () ->
            try `Result (read ()) with
            | Hw.Denial.Denied m -> `Denied m
            | Xen.Hypervisor.Npf_unresolved m -> `Denied m
            | Hw.Mmu.Fault { reason; _ } -> `Denied reason
            | e -> `Exn (Printexc.to_string e))
      in
      match outcome with
      | `Denied m -> (Detected, "read denied: " ^ m)
      | `Exn m -> (Harness_error, "read raised: " ^ m)
      | `Result (Error e) -> (Detected, "verified read refused: " ^ e)
      | `Result (Ok s) ->
          if s = clean then (Fail_closed, "guest page intact")
          else (Silent_corruption, "guest page garbled unnoticed"))

(* --- the matrix -------------------------------------------------------- *)

let run ?(seed = 2026L) ?domains ?(sites = Site.all) ?(attacks = Attacks.Suite.all) () =
  let kinds = [ Plain_sev; Fidelius ] in
  (* Fault-free references, one per (kind, attack), with the same stack
     seeds the faulted runs use. Each reference is an independent job —
     fresh stack, no plan installed — so the pool shards them freely. *)
  let ref_jobs =
    List.concat_map (fun kind -> List.mapi (fun i a -> (kind, i, a)) attacks) kinds
  in
  let ref_rows =
    Fidelius_fleet.Pool.map_list ?domains
      (fun (kind, i, (attack : Surface.attack)) ->
        let stack = build kind ~seed:(Int64.add seed (Int64.of_int (i * 10))) in
        (kind, attack.Surface.id, Attacks.Runner.guard (fun () -> attack.Surface.run stack)))
      ref_jobs
  in
  let references =
    List.map
      (fun kind ->
        ( kind,
          List.filter_map
            (fun (k, id, o) -> if k = kind then Some (id, o) else None)
            ref_rows ))
      kinds
  in
  (* One pool job per (site × stack) cell. Every probe builds its own
     stacks and arms its own single-shot plan in the worker's domain-local
     slot, so cells never interact; results come back in canonical
     (site-major, kind-minor) order whatever the domain count. *)
  let cell_jobs = List.concat_map (fun site -> List.map (fun kind -> (site, kind)) kinds) sites in
  let cells =
    Fidelius_fleet.Pool.map_list ?domains
      (fun (site, kind) ->
        let probes =
          [ attack_probe ~seed ~references:(List.assoc kind references) site kind
              attacks;
            migration_probe ~seed site kind;
            runtime_probe ~seed site kind ]
        in
        let verdict, detail =
          List.fold_left
            (fun (wv, wd) (v, d) -> if severity v > severity wv then (v, d) else (wv, wd))
            (List.hd probes) (List.tl probes)
        in
        { site; stack = kind; verdict; detail })
      cell_jobs
  in
  { seed; cells }

let fidelius_clean report =
  List.for_all
    (fun c ->
      c.stack <> Fidelius || severity c.verdict < severity Silent_corruption)
    report.cells

let find report site kind =
  List.find (fun c -> c.site = site && c.stack = kind) report.cells

let pp_table fmt report =
  let sites = List.sort_uniq compare (List.map (fun c -> c.site) report.cells) in
  let sites = List.filter (fun s -> List.mem s sites) Site.all in
  let w = 18 in
  Format.fprintf fmt "@[<v>%-18s | %-*s | %-*s | notes (Fidelius column)@," "fault site" w
    "plain SEV" w "Fidelius";
  Format.fprintf fmt "%s@," (String.make (21 + (2 * (w + 3)) + 24) '-');
  List.iter
    (fun site ->
      let plain = find report site Plain_sev in
      let fid = find report site Fidelius in
      let note = if fid.verdict = Fail_closed then "" else fid.detail in
      let note =
        if String.length note > 48 then String.sub note 0 45 ^ "..." else note
      in
      Format.fprintf fmt "%-18s | %-*s | %-*s | %s@," (Site.to_string site) w
        (verdict_to_string plain.verdict) w
        (verdict_to_string fid.verdict) note)
    sites;
  Format.fprintf fmt "%s@," (String.make (21 + (2 * (w + 3)) + 24) '-');
  let worst col =
    List.fold_left
      (fun acc c -> if c.stack = col && severity c.verdict > severity acc then c.verdict else acc)
      Fail_closed report.cells
  in
  Format.fprintf fmt "seed %Ld: worst plain-SEV verdict %s, worst Fidelius verdict %s@]"
    report.seed
    (verdict_to_string (worst Plain_sev))
    (verdict_to_string (worst Fidelius))
