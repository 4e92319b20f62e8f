(* The security evaluation as a test suite: every attack in the catalogue
   must be defended under Fidelius, and the attacks the paper says plain SEV
   is vulnerable to must indeed succeed on the baseline. *)

module Surface = Fidelius_attacks.Surface
module Suite = Fidelius_attacks.Suite
module Runner = Fidelius_attacks.Runner

let rows = lazy (Runner.run_all ())

let find_row id =
  match List.find_opt (fun r -> r.Runner.attack.Surface.id = id) (Lazy.force rows) with
  | Some r -> r
  | None -> Alcotest.fail ("no such attack: " ^ id)

let expect_defended id () =
  let r = find_row id in
  Alcotest.(check bool)
    (id ^ " defended by Fidelius: " ^ Surface.outcome_to_string r.Runner.fidelius)
    true
    (Surface.is_defended r.Runner.fidelius)

let expect_baseline_vulnerable id () =
  let r = find_row id in
  Alcotest.(check bool)
    (id ^ " succeeds on plain SEV: " ^ Surface.outcome_to_string r.Runner.baseline)
    false
    (Surface.is_defended r.Runner.baseline)

let expect_baseline_defended id () =
  (* Attacks the SEV hardware itself already stops (physical channels). *)
  let r = find_row id in
  Alcotest.(check bool)
    (id ^ " already held by SEV hardware")
    true
    (Surface.is_defended r.Runner.baseline)

let fidelius_blocked_by id fragment () =
  let r = find_row id in
  match r.Runner.fidelius with
  | Surface.Blocked msg ->
      let contains hay needle =
        let n = String.length hay and m = String.length needle in
        let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s blocked by %s (got: %s)" id fragment msg)
        true (contains msg fragment)
  | other ->
      Alcotest.fail (id ^ ": expected Blocked, got " ^ Surface.outcome_to_string other)

let test_no_harness_errors () =
  (* A simulator crash must never be scored as a defense: the runner maps
     unexpected exceptions to [Errored], and the shipped suite must have
     none on any stack — every Blocked row is a genuine denial reason. *)
  (match Runner.errors (Lazy.force rows) with
  | [] -> ()
  | errs ->
      Alcotest.failf "%d harness error(s): %s" (List.length errs)
        (String.concat "; "
           (List.map (fun (id, stack, m) -> id ^ "/" ^ stack ^ ": " ^ m) errs)));
  List.iter
    (fun r ->
      List.iter
        (fun o ->
          match o with
          | Surface.Errored m ->
              Alcotest.failf "%s errored but is_defended scored it: %s"
                r.Runner.attack.Surface.id m
          | _ -> ())
        [ r.Runner.baseline; r.Runner.sev_es; r.Runner.fidelius ])
    (Lazy.force rows)

let test_errored_not_defended () =
  Alcotest.(check bool) "Errored is not a defense" false
    (Surface.is_defended (Surface.Errored "boom"));
  Alcotest.(check string) "rendering" "ERRORED: boom"
    (Surface.outcome_to_string (Surface.Errored "boom"))

(* The one classifier, every verdict: the three defence exceptions come
   back as [`Denied] with guard's messages and anything else as [`Exn];
   guard turns them into Blocked and Errored. No attack in the catalogue
   raises a non-defence exception, so this is the Errored path's test. *)
let test_attempt_verdicts () =
  let verdict = function
    | Ok () -> "ok"
    | Error (`Denied m) -> "denied: " ^ m
    | Error (`Exn m) -> "exn: " ^ m
  in
  let cases =
    [ ( "Denial.Denied",
        (fun () -> raise (Fidelius_hw.Denial.Denied "gate refused")),
        "denied: gate refused",
        Surface.Blocked "gate refused" );
      ( "Npf_unresolved",
        (fun () -> raise (Fidelius_xen.Hypervisor.Npf_unresolved "gfn 0x5")),
        "denied: NPF handler refused: gfn 0x5",
        Surface.Blocked "NPF handler refused: gfn 0x5" );
      ( "Mmu.Fault",
        (fun () ->
          raise
            (Fidelius_hw.Mmu.Fault
               { space = 0; vfn = 7; access = Fidelius_hw.Mmu.Write; reason = "read-only" })),
        "denied: page fault: read-only",
        Surface.Blocked "page fault: read-only" );
      ( "Failure",
        (fun () -> failwith "harness bug"),
        "exn: Failure(\"harness bug\")",
        Surface.Errored "Failure(\"harness bug\")" ) ]
  in
  Alcotest.(check string) "a body that returns" "ok" (verdict (Runner.attempt (fun () -> ())));
  List.iter
    (fun (name, raiser, expected, outcome) ->
      Alcotest.(check string) ("attempt: " ^ name) expected (verdict (Runner.attempt raiser));
      Alcotest.(check string) ("guard: " ^ name)
        (Surface.outcome_to_string outcome)
        (Surface.outcome_to_string
           (Runner.guard (fun () -> raiser (); Surface.Leaked "unreached"))))
    cases

let test_summary () =
  let total, defended, baseline_vulnerable = Runner.summary (Lazy.force rows) in
  Alcotest.(check int) "catalogue size" (List.length Suite.all) total;
  Alcotest.(check int) "Fidelius defends everything" total defended;
  (* The paper's Section 2.2 analysis: plain SEV is broken on most of the
     host-software surface. *)
  Alcotest.(check bool) "baseline broadly vulnerable" true (baseline_vulnerable >= 15)

let test_catalogue_structure () =
  Alcotest.(check bool) "has hardware subset" true (List.length Suite.hardware >= 4);
  Alcotest.(check bool) "has host-software subset" true (List.length Suite.host_software >= 15);
  List.iter
    (fun (a : Surface.attack) ->
      Alcotest.(check bool) (a.Surface.id ^ " has paper ref") true
        (String.length a.Surface.paper_ref > 0))
    Suite.all;
  (* The front end's [--id] is a cmdliner enum over these ids: they must
     be distinct, and name the catalogue. *)
  let ids = List.map (fun (a : Surface.attack) -> a.Surface.id) Suite.all in
  Alcotest.(check int) "ids are distinct" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  Alcotest.(check bool) "cold-boot is an id" true (List.mem "cold-boot" ids);
  Alcotest.(check bool) "nope is not" false (List.mem "nope" ids)

let vulnerable_baseline =
  [ "vmcb-register-harvest"; "vmcb-control-tamper"; "vmcb-sev-disable"; "direct-map-read";
    "host-remap"; "inter-vm-remap"; "grant-forgery"; "grant-widening"; "mapping-widening"; "balloon-reclaim";
    "exit-reason-forgery"; "double-map"; "iago-forged-return";
    "keyshare-abuse"; "wp-disable"; "smep-disable"; "nxe-disable"; "rogue-vmrun"; "rogue-cr3";
    "code-injection"; "unmap-monitor-text"; "io-snoop"; "dma-overwrite-pt" ]

let hardware_held_by_sev = [ "cold-boot"; "bus-snoop"; "dma-read-guest"; "rowhammer" ]

(* The paper's Section 2.2: SEV-ES closes the VMCB/register surfaces... *)
let es_defends = [ "vmcb-register-harvest"; "vmcb-sev-disable"; "exit-reason-forgery" ]

(* ...but the second-level mapping and the handle/ASID key-sharing surfaces
   remain ("this handle-ASID relationship is not protected by SEV-ES"). *)
let es_still_vulnerable =
  [ "vmcb-control-tamper"; "direct-map-read"; "host-remap"; "inter-vm-remap";
    "grant-forgery"; "grant-widening"; "keyshare-abuse"; "wp-disable"; "rogue-vmrun";
    "io-snoop"; "dma-overwrite-pt" ]

let expect_es_defended id () =
  let r = find_row id in
  Alcotest.(check bool)
    (id ^ " held by SEV-ES: " ^ Surface.outcome_to_string r.Runner.sev_es)
    true
    (Surface.is_defended r.Runner.sev_es)

let expect_es_vulnerable id () =
  let r = find_row id in
  Alcotest.(check bool)
    (id ^ " still breaks SEV-ES: " ^ Surface.outcome_to_string r.Runner.sev_es)
    false
    (Surface.is_defended r.Runner.sev_es)

let mechanism_checks =
  [ ("vmcb-control-tamper", "shadow");
    ("vmcb-sev-disable", "shadow");
    ("inter-vm-remap", "PIT");
    ("grant-forgery", "GIT");
    ("grant-widening", "GIT");
    ("mapping-widening", "PIT");
    ("balloon-reclaim", "teardown");
    ("exit-reason-forgery", "shadow");
    ("double-map", "double mapping");
    ("wp-disable", "CR0 policy");
    ("smep-disable", "CR4 policy");
    ("nxe-disable", "EFER policy");
    ("rogue-vmrun", "#PF(fetch)");
    ("rogue-cr3", "#PF(fetch)");
    ("unmap-monitor-text", "may not be revoked");
    ("dma-overwrite-pt", "IOMMU") ]

(* --- isolation regressions (SCALING.md) ---------------------------------

   The conspirator used to live in a module-global list keyed by physical
   equality on the hypervisor, and per-attack seeds used to come from the
   attack's *position* in the catalogue — both made an attack's outcome
   depend on what ran before it. These pin the fix: an attack's row is a
   pure function of (attack, base seed). *)

let rows_equal (a : Runner.row) (b : Runner.row) =
  a.Runner.attack.Surface.id = b.Runner.attack.Surface.id
  && a.Runner.baseline = b.Runner.baseline
  && a.Runner.sev_es = b.Runner.sev_es
  && a.Runner.fidelius = b.Runner.fidelius

let test_outcomes_independent_of_suite_order () =
  (* Running the catalogue in reverse must give each attack the same row
     the forward suite gave it. *)
  let forward = Lazy.force rows in
  let reverse = List.map Runner.run_one (List.rev Suite.all) in
  List.iter
    (fun (fwd : Runner.row) ->
      let id = fwd.Runner.attack.Surface.id in
      match
        List.find_opt (fun r -> r.Runner.attack.Surface.id = id) reverse
      with
      | None -> Alcotest.fail ("missing from reverse run: " ^ id)
      | Some rev ->
          Alcotest.(check bool)
            (id ^ " row identical when the suite runs in reverse")
            true (rows_equal fwd rev))
    forward

let test_outcomes_independent_of_domains () =
  let one = Runner.run_all ~domains:1 () in
  let many = Runner.run_all ~domains:5 () in
  Alcotest.(check int) "same row count" (List.length one) (List.length many);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Runner.attack.Surface.id ^ " row identical on 1 and 5 domains")
        true (rows_equal a b))
    one many

let () =
  Alcotest.run "attacks"
    [ ( "fidelius-defends",
        List.map
          (fun (a : Surface.attack) ->
            Alcotest.test_case a.Surface.id `Quick (expect_defended a.Surface.id))
          Suite.all );
      ( "baseline-vulnerable",
        List.map
          (fun id -> Alcotest.test_case id `Quick (expect_baseline_vulnerable id))
          vulnerable_baseline );
      ( "sev-es-closes (paper 2.2)",
        List.map (fun id -> Alcotest.test_case id `Quick (expect_es_defended id)) es_defends );
      ( "sev-es-remains-open (paper 2.2)",
        List.map (fun id -> Alcotest.test_case id `Quick (expect_es_vulnerable id))
          es_still_vulnerable );
      ( "sev-hardware-holds",
        List.map
          (fun id -> Alcotest.test_case id `Quick (expect_baseline_defended id))
          hardware_held_by_sev );
      ( "mechanisms",
        List.map
          (fun (id, frag) ->
            Alcotest.test_case (id ^ " via " ^ frag) `Quick (fidelius_blocked_by id frag))
          mechanism_checks );
      ( "isolation",
        [ Alcotest.test_case "order-independent outcomes" `Quick
            test_outcomes_independent_of_suite_order;
          Alcotest.test_case "domain-count-independent outcomes" `Quick
            test_outcomes_independent_of_domains ] );
      ( "summary",
        [ Alcotest.test_case "totals" `Quick test_summary;
          Alcotest.test_case "no harness errors" `Quick test_no_harness_errors;
          Alcotest.test_case "errored scoring" `Quick test_errored_not_defended;
          Alcotest.test_case "one classifier, every verdict" `Quick test_attempt_verdicts;
          Alcotest.test_case "catalogue" `Quick test_catalogue_structure ] ) ]
