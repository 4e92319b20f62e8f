(* Tests for the observability subsystem: the Cost scope-attribution
   invariant, the trace ring buffer, and both exporters. The golden JSONL
   trace pins the determinism contract — ledger-clock timestamps mean the
   same seed yields a byte-identical trace. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng
module Cost = Hw.Cost
module Obs = Fidelius_obs
module Trace = Obs.Trace
module Json = Obs.Json

(* --- Cost scope attribution -------------------------------------------- *)

let test_scope_basics () =
  let l = Cost.ledger () in
  Cost.charge l "a" 10;
  Cost.with_scope l "dom1" (fun () -> Cost.charge l "a" 5);
  Alcotest.(check int) "total" 15 (Cost.total l);
  Alcotest.(check int) "dom1" 5 (Cost.scope_total l "dom1");
  Alcotest.(check int) "root remainder" 10 (Cost.scope_total l Cost.root_scope);
  Alcotest.(check (list (pair string int))) "scopes listing"
    [ ("(root)", 10); ("dom1", 5) ]
    (Cost.scopes l)

let test_scope_innermost_only () =
  let l = Cost.ledger () in
  Cost.with_scope l "outer" (fun () ->
      Cost.charge l "a" 1;
      Cost.with_scope l "inner" (fun () -> Cost.charge l "a" 2);
      Cost.charge l "a" 4);
  Alcotest.(check int) "outer books its own charges only" 5
    (Cost.scope_total l "outer");
  Alcotest.(check int) "inner" 2 (Cost.scope_total l "inner");
  Alcotest.(check int) "no root residue" 0 (Cost.scope_total l Cost.root_scope)

let test_scope_exception_safety () =
  let l = Cost.ledger () in
  (try Cost.with_scope l "doomed" (fun () -> Cost.charge l "a" 3; failwith "boom")
   with Failure _ -> ());
  Cost.charge l "a" 7;
  Alcotest.(check int) "scope popped on raise" 7 (Cost.scope_total l Cost.root_scope);
  Alcotest.(check int) "charges inside kept" 3 (Cost.scope_total l "doomed")

let test_negative_charge_rejected () =
  let l = Cost.ledger () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Cost.charge: negative charge -4 to \"dram\"") (fun () ->
      Cost.charge l "dram" (-4));
  Alcotest.(check int) "nothing booked" 0 (Cost.total l)

let test_root_scope_reserved () =
  let l = Cost.ledger () in
  Alcotest.(check bool) "with_scope rejects (root)" true
    (try
       Cost.with_scope l Cost.root_scope (fun () -> false)
     with Invalid_argument _ -> true)

let test_categories_tie_break () =
  let l = Cost.ledger () in
  List.iter (fun c -> Cost.charge l c 5) [ "zeta"; "alpha"; "mid" ];
  Cost.charge l "big" 9;
  Alcotest.(check (list (pair string int))) "desc count, asc name on ties"
    [ ("big", 9); ("alpha", 5); ("mid", 5); ("zeta", 5) ]
    (Cost.categories l)

(* Property: under arbitrary nesting and charging, per-scope attribution
   sums exactly to the global total, and scope_categories agree with the
   per-scope totals. *)
type op = Charge of int | Scoped of int * op list

let op_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then map (fun c -> Charge c) (int_bound 1000)
          else
            frequency
              [ (2, map (fun c -> Charge c) (int_bound 1000));
                ( 1,
                  map2
                    (fun s ops -> Scoped (s, ops))
                    (int_bound 4)
                    (list_size (int_bound 4) (self (n / 2))) ) ])
        n)

let rec op_print = function
  | Charge c -> Printf.sprintf "Charge %d" c
  | Scoped (s, ops) ->
      Printf.sprintf "Scoped (%d, [%s])" s (String.concat "; " (List.map op_print ops))

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 8) op_gen)

let scope_name i = Printf.sprintf "scope%d" i

let rec interpret l = function
  | Charge c -> Cost.charge l "work" c
  | Scoped (s, ops) ->
      Cost.with_scope l (scope_name s) (fun () -> List.iter (interpret l) ops)

let prop_scope_sums_to_total =
  QCheck.Test.make ~count:300 ~name:"sum(scopes) = total under nesting"
    arbitrary_ops (fun ops ->
      let l = Cost.ledger () in
      List.iter (interpret l) ops;
      let scope_sum = List.fold_left (fun a (_, v) -> a + v) 0 (Cost.scopes l) in
      let per_scope_cats_ok =
        List.for_all
          (fun (s, v) ->
            v
            = List.fold_left (fun a (_, c) -> a + c) 0 (Cost.scope_categories l s))
          (Cost.scopes l)
      in
      scope_sum = Cost.total l && per_scope_cats_ok)

(* --- trace ring buffer -------------------------------------------------- *)

(* Every test that records does so into a ring of its own. *)
let test_ring_wrap () =
  let r = Trace.ring ~capacity:4 () in
  Trace.record_into r (fun () ->
      for i = 0 to 9 do
        Trace.emit (Trace.Gate (1 + (i mod 3)))
      done);
  Alcotest.(check int) "emitted" 10 (Trace.ring_emitted r);
  Alcotest.(check int) "dropped" 6 (Trace.ring_dropped r);
  let es = Trace.ring_entries r in
  Alcotest.(check int) "retained" 4 (List.length es);
  Alcotest.(check (list int)) "oldest-first, newest retained" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Trace.seq) es)

let test_disabled_emits_nothing () =
  let r = Trace.ring () in
  Trace.record_into r (fun () -> ());
  Alcotest.(check bool) "off" false (Trace.enabled ());
  Trace.emit (Trace.Mark "ignored");
  Alcotest.(check int) "no entries" 0 (Trace.ring_length r)

let test_clock_and_scope_tagging () =
  let l = Cost.ledger () in
  let r = Trace.ring () in
  Trace.record_into r ~clock:(fun () -> Cost.total l) (fun () ->
      Cost.charge l "setup" 100;
      Trace.emit (Trace.Mark "before");
      Cost.with_scope l "dom7" (fun () ->
          Cost.charge l "work" 23;
          Trace.emit (Trace.Mark "inside")));
  match Trace.ring_entries r with
  | [ a; b ] ->
      Alcotest.(check int) "ledger timestamp" 100 a.Trace.ts;
      Alcotest.(check string) "unscoped" "" a.Trace.scope;
      Alcotest.(check int) "later timestamp" 123 b.Trace.ts;
      Alcotest.(check string) "scope mirrored from Cost.with_scope" "dom7" b.Trace.scope
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

(* --- golden JSONL trace -------------------------------------------------- *)

(* The demo scenario distilled to its post-boot core: a protected guest
   writes a secret, the hypervisor round-trips a hypercall. Boot noise is
   excluded (tracing starts after install) to keep the golden file small;
   the full demo trace is pinned by the behaviour contract (test/contract). *)
let demo_slice () =
  let machine = Hw.Machine.create ~seed:2026L () in
  let ledger = machine.Hw.Machine.ledger in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Core.Fidelius.install hv in
  let rng = Rng.create 77L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng
      ~platform_public:(Core.Fidelius.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  let dom =
    match
      Core.Fidelius.boot_protected_vm fid ~name:"golden" ~memory_pages:8 ~prepared
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let ring = Trace.ring () in
  Trace.record_into ring ~clock:(fun () -> Cost.total ledger) (fun () ->
      Trace.emit (Trace.Mark "slice-start");
      Xen.Hypervisor.in_guest hv dom (fun () ->
          Xen.Domain.write machine dom ~addr:0x3000 (Bytes.of_string "golden secret"));
      ignore (Xen.Hypervisor.hypercall hv dom (Xen.Hypercall.Console_write "hi"));
      Trace.emit (Trace.Mark "slice-end"));
  (ledger, ring)

(* cwd is test/ under `dune runtest`, the workspace root under `dune exec`. *)
let read_golden name =
  let candidates =
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.failf "golden file %s not found" name

let test_golden_jsonl () =
  let _ledger, ring = demo_slice () in
  let actual = Trace.to_jsonl ring in
  let golden = read_golden "trace_demo.jsonl" in
  if golden <> actual then begin
    (* Dump next to the runner so a deliberate regeneration is one copy. *)
    Out_channel.with_open_bin "trace_demo.actual.jsonl" (fun oc ->
        output_string oc actual);
    Alcotest.failf
      "golden trace mismatch (%d vs %d bytes); actual dumped to %s"
      (String.length golden) (String.length actual)
      (Filename.concat (Sys.getcwd ()) "trace_demo.actual.jsonl")
  end

let test_jsonl_well_formed () =
  let ledger, ring = demo_slice () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Trace.to_jsonl ring))
  in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  let last_seq = ref (-1) and last_ts = ref (-1) in
  List.iter
    (fun line ->
      let j = Json.parse line in
      let geti k =
        match Json.member k j with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "missing int %S in %s" k line
      in
      let seq = geti "seq" and ts = geti "ts" in
      Alcotest.(check bool) "seq strictly increasing" true (seq > !last_seq);
      Alcotest.(check bool) "ts non-decreasing" true (ts >= !last_ts);
      Alcotest.(check bool) "ts within ledger" true (ts <= Cost.total ledger);
      last_seq := seq;
      last_ts := ts)
    lines

(* --- Chrome exporter round-trip ----------------------------------------- *)

let test_chrome_roundtrip () =
  let ledger, ring = demo_slice () in
  let attribution = Cost.scopes ledger in
  let total = Cost.total ledger in
  let events = Trace.ring_length ring in
  let json = Trace.to_chrome ~attribution ~total_cycles:total ring in
  let reparsed = Json.parse (Json.to_string json) in
  Alcotest.(check bool) "print/parse round-trips structurally" true
    (reparsed = json);
  (match Json.member "traceEvents" reparsed with
  | Some (Json.Arr evs) -> Alcotest.(check int) "all events exported" events (List.length evs)
  | _ -> Alcotest.fail "traceEvents missing");
  match Option.bind (Json.member "otherData" reparsed) (Json.member "attribution") with
  | Some (Json.Obj fields) ->
      let s =
        List.fold_left
          (fun a (_, v) -> match v with Json.Int n -> a + n | _ -> a)
          0 fields
      in
      Alcotest.(check int) "attribution sums to ledger total" total s
  | _ -> Alcotest.fail "otherData.attribution missing"

(* --- Json parser --------------------------------------------------------- *)

let test_json_escapes () =
  let j = Json.Obj [ ("k\"\\\n", Json.Str "v\t\x01") ] in
  Alcotest.(check bool) "escape round-trip" true (Json.parse (Json.to_string j) = j)

let test_json_values () =
  List.iter
    (fun (s, v) -> Alcotest.(check bool) s true (Json.parse s = v))
    [ ("null", Json.Null);
      ("true", Json.Bool true);
      ("-42", Json.Int (-42));
      ("2.5", Json.Float 2.5);
      ("[1,[2],{}]", Json.Arr [ Json.Int 1; Json.Arr [ Json.Int 2 ]; Json.Obj [] ]);
      ("  {\"a\" : 1}  ", Json.Obj [ ("a", Json.Int 1) ]);
      ({|"\u0041\u00e9"|}, Json.Str "A\xe9") ]

let test_json_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (try
           ignore (Json.parse s);
           false
         with Json.Parse_error _ -> true))
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "1 2"; "";
      (* a \u escape is exactly four hex digits *)
      {|"\uZZZZ"|}; {|"\u00zz"|}; {|"\u-123"|}; {|"\u+123"|}; {|"\u_1_2"|}; {|"\u 12 "|};
      {|"\u12"|} ]

(* The parser recurses once per nesting level: under an 800 KB stack a
   megabyte of '[' must still come back as [Parse_error], not
   [Stack_overflow]. 512 levels is the documented limit. *)
let test_json_deep_nesting () =
  let g = Gc.get () in
  Gc.set { g with Gc.stack_limit = 100_000 };
  let outcome =
    Fun.protect
      ~finally:(fun () -> Gc.set g)
      (fun () ->
        match Json.parse (String.make 1_000_000 '[') with
        | _ -> "parsed"
        | exception Json.Parse_error _ -> "Parse_error"
        | exception Stack_overflow -> "Stack_overflow")
  in
  Alcotest.(check string) "a megabyte of '[' refused" "Parse_error" outcome;
  let nested n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "512 levels parse" true (Json.parse (nested 512) <> Json.Null);
  Alcotest.(check bool) "513 levels refused" true
    (try
       ignore (Json.parse (nested 513));
       false
     with Json.Parse_error _ -> true)

(* A real Chrome export under byte flips, truncations and insertions,
   drawn toward escape starts, quotes, hex and non-hex digits, signs,
   blanks, brackets and the buffer ends: the parser returns a tree or
   raises [Parse_error], never anything else. *)
type json_mutation =
  | Set of [ `Start of int | `End of int | `Any of int ] * char
  | Cut of [ `Start of int | `End of int | `Any of int ]
  | Insert of [ `Start of int | `End of int | `Any of int ] * string

let resolve len = function
  | `Start k -> min k len
  | `End k -> max 0 (len - k)
  | `Any n -> n mod (len + 1)

let apply_json_mutation s = function
  | Set (p, ch) ->
      let i = resolve (String.length s) p in
      if i >= String.length s then s
      else String.mapi (fun j c -> if j = i then ch else c) s
  | Cut p -> String.sub s 0 (resolve (String.length s) p)
  | Insert (p, ins) ->
      let i = resolve (String.length s) p in
      String.sub s 0 i ^ ins ^ String.sub s i (String.length s - i)

let json_mutation_gen =
  let open QCheck.Gen in
  let hot =
    frequency
      [ ( 4,
          oneofl
            [ '\\'; 'u'; '"'; '0'; '7'; '9'; 'a'; 'F'; 'g'; 'z'; '-'; '+'; '_'; ' '; '[';
              ']'; '{'; '}'; ','; ':' ] );
        (1, char) ]
  in
  let pos =
    frequency
      [ (1, map (fun k -> `Start k) (int_bound 8));
        (1, map (fun k -> `End k) (int_bound 8));
        (4, map (fun n -> `Any n) nat) ]
  in
  let snippet =
    frequency
      [ (2, string_size ~gen:hot (int_range 1 6));
        (2, map (fun t -> "\\u" ^ t) (string_size ~gen:hot (int_bound 4))) ]
  in
  list_size (int_range 1 4)
    (frequency
       [ (3, map2 (fun p c -> Set (p, c)) pos hot);
         (1, map (fun p -> Cut p) pos);
         (3, map2 (fun p ins -> Insert (p, ins)) pos snippet) ])

let print_json_mutation m =
  let pos = function
    | `Start k -> Printf.sprintf "start+%d" k
    | `End k -> Printf.sprintf "end-%d" k
    | `Any n -> Printf.sprintf "any %d" n
  in
  match m with
  | Set (p, c) -> Printf.sprintf "Set (%s, %C)" (pos p) c
  | Cut p -> Printf.sprintf "Cut %s" (pos p)
  | Insert (p, s) -> Printf.sprintf "Insert (%s, %S)" (pos p) s

let chrome_export =
  lazy
    (let ledger, ring = demo_slice () in
     Json.to_string
       (Trace.to_chrome ~attribution:(Cost.scopes ledger) ~total_cycles:(Cost.total ledger) ring))

let prop_json_parse_total =
  QCheck.Test.make ~count:3000 ~name:"Json.parse is total on a mutated chrome export"
    (QCheck.make
       ~print:(fun ms -> String.concat "; " (List.map print_json_mutation ms))
       json_mutation_gen)
    (fun ms ->
      let s = List.fold_left apply_json_mutation (Lazy.force chrome_export) ms in
      match Json.parse s with _ -> true | exception Json.Parse_error _ -> true)

(* --- streaming Chrome writer and the leaf printers ------------------------ *)

(* The printer as it stood before [Json.add_int]/[Json.add_str]:
   [string_of_int] and a per-character escape. It is the reference both
   primitives, and [Json.to_buffer] built on them, must reproduce. *)
let reference_escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec reference_print buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Json.Int i -> Buffer.add_string buf (string_of_int i)
  | Json.Float _ as f -> Json.to_buffer buf f
  | Json.Str s -> reference_escape buf s
  | Json.Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          reference_print buf item)
        items;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          reference_escape buf k;
          Buffer.add_char buf ':';
          reference_print buf v)
        fields;
      Buffer.add_char buf '}'

let render f x =
  let buf = Buffer.create 64 in
  f buf x;
  Buffer.contents buf

(* Ints at the edges of the printer (sign, digit-count boundaries, the
   one integer with no positive counterpart) and strings dense in bytes
   that need escaping or that must pass through untouched. *)
let edge_int =
  QCheck.Gen.(
    frequency
      [ (3, oneofl [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ]);
        (3, int);
        (2, small_signed_int) ])

let edge_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [ (3, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\x01'; '\x1f'; '\x7f'; '\x80'; '\xff' ]);
             (3, printable);
             (1, char) ])
      (int_bound 12))

let event_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun domid -> Trace.Vmrun { domid }) edge_int;
      map2 (fun domid reason -> Trace.Vmexit { domid; reason }) edge_int edge_string;
      map2 (fun domid gfn -> Trace.Npf { domid; gfn }) edge_int edge_int;
      map (fun s -> Trace.Hypercall s) edge_string;
      map (fun n -> Trace.Gate n) edge_int;
      map (fun s -> Trace.Shadow_capture s) edge_string;
      map (fun ok -> Trace.Shadow_verify { ok }) bool;
      map (fun s -> Trace.Fw_cmd s) edge_string;
      map2 (fun blocks encrypted -> Trace.Dram { blocks; encrypted }) edge_int bool;
      map2 (fun space vfn -> Trace.Walk { space; vfn }) edge_int edge_int;
      map (fun full -> Trace.Tlb_flush { full }) bool;
      map (fun vfn -> Trace.Pte_write { vfn }) edge_int;
      map2 (fun site hit -> Trace.Fault { site; hit }) edge_string edge_int;
      map (fun s -> Trace.Mark s) edge_string ]

let entry_gen =
  QCheck.Gen.(
    map
      (fun (seq, ts, scope, event) -> { Trace.seq; ts; scope; event })
      (quad edge_int edge_int (frequency [ (1, return ""); (3, edge_string) ]) event_gen))

let pid_gen =
  QCheck.Gen.(oneof [ int_range 1 64; return max_int; map (fun n -> max 1 (n land max_int)) int ])

let arbitrary_chrome_event =
  QCheck.make
    ~print:(fun (pid, e) -> Json.to_string (Trace.chrome_event ~pid e))
    QCheck.Gen.(pair pid_gen entry_gen)

(* Runs of events through one writer, with pids drawn from few values so
   the writer's per-pid literal is both reused and re-rendered. *)
let arbitrary_chrome_events =
  QCheck.make
    ~print:(fun evs ->
      String.concat "\n" (List.map (fun (pid, e) -> Json.to_string (Trace.chrome_event ~pid e)) evs))
    QCheck.Gen.(
      list_size (int_range 1 8)
        (pair (frequency [ (3, oneofl [ 1; 2; 3 ]); (1, pid_gen) ]) entry_gen))

let prop_chrome_add_event_matches_spec =
  QCheck.Test.make ~count:1000 ~name:"Chrome.add_event = Json.to_buffer (chrome_event)"
    arbitrary_chrome_events (fun evs ->
      let w = Obs.Chrome.create () in
      List.iter (fun (pid, e) -> Obs.Chrome.add_event w ~pid e) evs;
      Obs.Chrome.contents w
      = String.concat "" (List.map (fun (pid, e) -> Json.to_string (Trace.chrome_event ~pid e)) evs))

let prop_to_buffer_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"Json.to_buffer = pre-primitive printer"
    arbitrary_chrome_event (fun (pid, e) ->
      let j = Trace.chrome_event ~pid e in
      Json.to_string j = render reference_print j)

let prop_leaf_printers =
  QCheck.Test.make ~count:2000 ~name:"add_int = string_of_int, add_str = reference escape"
    QCheck.(pair (make ~print:string_of_int edge_int) (make ~print:String.escaped edge_string))
    (fun (n, s) ->
      render Json.add_int n = string_of_int n
      && render Json.add_str s = render reference_escape s)

let test_escape_classes () =
  Alcotest.(check string) "every escape class" "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f\x7f\xff\""
    (render Json.add_str "q\"b\\n\nr\rt\tc\x01\x1f\x7f\xff")

let () =
  Alcotest.run "obs"
    [ ( "cost-scopes",
        [ Alcotest.test_case "basics" `Quick test_scope_basics;
          Alcotest.test_case "innermost-only booking" `Quick test_scope_innermost_only;
          Alcotest.test_case "exception safety" `Quick test_scope_exception_safety;
          Alcotest.test_case "negative charge" `Quick test_negative_charge_rejected;
          Alcotest.test_case "root reserved" `Quick test_root_scope_reserved;
          Alcotest.test_case "tie-break" `Quick test_categories_tie_break;
          QCheck_alcotest.to_alcotest prop_scope_sums_to_total ] );
      ( "ring",
        [ Alcotest.test_case "wrap" `Quick test_ring_wrap;
          Alcotest.test_case "disabled" `Quick test_disabled_emits_nothing;
          Alcotest.test_case "clock and scope" `Quick test_clock_and_scope_tagging ] );
      ( "export",
        [ Alcotest.test_case "golden jsonl" `Slow test_golden_jsonl;
          Alcotest.test_case "jsonl well-formed" `Quick test_jsonl_well_formed;
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          QCheck_alcotest.to_alcotest prop_chrome_add_event_matches_spec ] );
      ( "json",
        [ Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "escape classes" `Quick test_escape_classes;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          QCheck_alcotest.to_alcotest prop_json_parse_total;
          QCheck_alcotest.to_alcotest prop_leaf_printers;
          QCheck_alcotest.to_alcotest prop_to_buffer_matches_reference ] ) ]
