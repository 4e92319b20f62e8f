(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6.2's XSA analysis, Section 7's Figures 5-6,
   Table 3 and the three micro-benchmarks), the design-matrix Tables 1-2,
   the security matrix, the ablations of DESIGN.md §4, and Bechamel
   wall-clock measurements of the hot primitives.

   Usage: main.exe [fig5|fig6|tab3|micro|xsa|attacks|tab1|tab2|ablate|bechamel|perf|fleet|migrate|all]
          main.exe fleet [--vms N] [--domains 1,2,4,8] [--gc-stats]
          main.exe fleet-scale [--vms N]
          main.exe migrate [--budgets 2.5,10,40] [--fleets 8,16]
   With no argument (or "all"), everything runs in paper order.
   `perf` re-measures the bechamel primitives and prints the speedup of
   this build against the recorded results/bench.json baseline. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module W = Fidelius_workloads
module Attacks = Fidelius_attacks
module Xsa = Fidelius_xsa
module Rng = Fidelius_crypto.Rng
module Json = Fidelius_obs.Json

let results_dir = "results"

let write_result name contents =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat results_dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Printf.printf "  [written: %s]\n" path

let write_csv name header rows = write_result name (Fidelius_fleet.Merge.csv ~header [ rows ])

let header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let bar pct =
  let n = max 0 (min 40 (int_of_float (pct *. 2.0))) in
  String.make n '#'

(* ---- protected stack helper ------------------------------------------------ *)

let installed_stack seed =
  let m = Hw.Machine.create ~seed () in
  let hv = Xen.Hypervisor.boot m in
  let fid = Core.Fidelius.install hv in
  (m, hv, fid)

let protected_guest (m, hv, fid) name memory_pages =
  ignore m;
  ignore hv;
  let rng = Rng.create 1234L in
  let kernel = [ Bytes.make Hw.Addr.page_size '\000' ] in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Core.Fidelius.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:kernel
  in
  match Core.Fidelius.boot_protected_vm fid ~name ~memory_pages ~prepared with
  | Ok dom -> dom
  | Error e -> failwith ("bench: protected boot: " ^ e)

(* ---- Figures 5 and 6 -------------------------------------------------------- *)

let figure suite profiles paper_fid_avg paper_enc_avg highlights =
  (* [suite] doubles as the CSV stem, e.g. "Figure 5" -> figure_5.csv *)
  header
    (Printf.sprintf "%s normalized overhead vs stock Xen  [paper: Fidelius avg %s, Fidelius-enc avg %s]"
       suite paper_fid_avg paper_enc_avg);
  Printf.printf "%-15s %13s %17s   %s\n" "benchmark" "Fidelius" "Fidelius-enc" "";
  let rows = W.Engine.run_suite profiles in
  let n = float_of_int (List.length rows) in
  let sum_f, sum_e =
    List.fold_left
      (fun (a, b) (p, f, e, _) ->
        Printf.printf "%-15s %+12.2f%% %+16.2f%%   %s\n" p.W.Profile.name f e (bar e);
        (a +. f, b +. e))
      (0.0, 0.0) rows
  in
  Printf.printf "%-15s %+12.2f%% %+16.2f%%\n" "AVERAGE" (sum_f /. n) (sum_e /. n);
  List.iter (fun h -> Printf.printf "  paper reference: %s\n" h) highlights;
  write_csv
    (Printf.sprintf "%s.csv" (String.map (fun c -> if c = ' ' || c = ':' then '_' else c)
                                (String.lowercase_ascii (List.hd (String.split_on_char ':' suite)))))
    "benchmark,fidelius_pct,fidelius_enc_pct"
    (List.map (fun (p, f, e, _) -> Printf.sprintf "%s,%.3f,%.3f" p.W.Profile.name f e) rows)

let fig5 () =
  figure "Figure 5: SPECCPU 2006" W.Spec2006.all "0.88%" "5.38%"
    [ "mcf 17.3%, omnetpp 16.3%; bzip2/hmmer/h264ref nearly free" ]

let fig6 () =
  figure "Figure 6: PARSEC" W.Parsec.all "0.43%" "1.97%"
    [ "canneal 14.27% (unstructured data model); everything else small" ]

(* ---- Table 3 ----------------------------------------------------------------- *)

let tab3 () =
  header "Table 3: fio, Xen vs Fidelius (AES-NI I/O protection)";
  Printf.printf "%-12s %14s %16s %12s   %s\n" "operation" "Xen" "Fidelius AES-NI" "slowdown" "paper";
  let paper = [ ("rand-read", "1.38%"); ("seq-read", "22.91%"); ("rand-write", "0.70%"); ("seq-write", "3.61%") ] in
  let rows = W.Fio.table () in
  List.iter
    (fun r ->
      let name = r.W.Fio.pattern.W.Fio.pat_name in
      Printf.printf "%-12s %10.1f %s %12.1f %s %11.2f%%   %s\n" name r.W.Fio.xen_rate
        r.W.Fio.pattern.W.Fio.unit_name r.W.Fio.fidelius_rate r.W.Fio.pattern.W.Fio.unit_name
        r.W.Fio.slowdown_pct
        (try List.assoc name paper with Not_found -> ""))
    rows;
  write_csv "table_3.csv" "operation,xen_rate,fidelius_rate,unit,slowdown_pct"
    (List.map
       (fun r ->
         Printf.sprintf "%s,%.2f,%.2f,%s,%.3f" r.W.Fio.pattern.W.Fio.pat_name r.W.Fio.xen_rate
           r.W.Fio.fidelius_rate r.W.Fio.pattern.W.Fio.unit_name r.W.Fio.slowdown_pct)
       rows)

(* ---- micro benchmarks (Section 7.2) ------------------------------------------ *)

let measure_gate1 stack iters =
  let m, _, fid = stack in
  let ledger = m.Hw.Machine.ledger in
  let t0 = Hw.Cost.category ledger "gate1" in
  for _ = 1 to iters do
    ignore (Core.Gate.with_type1 fid (fun () -> Ok ()))
  done;
  float_of_int (Hw.Cost.category ledger "gate1" - t0) /. float_of_int iters

let measure_gate2 stack iters =
  let m, hv, _ = stack in
  let ledger = m.Hw.Machine.ledger in
  let t0 = Hw.Cost.category ledger "gate2" in
  let exec_ok = Hw.Mmu.exec_ok m hv.Xen.Hypervisor.host_space in
  let smep_on = Hw.Insn.cr4 ~smep:true in
  for _ = 1 to iters do
    (* A legitimate (policy-passing) pass through the checking loop. *)
    ignore (Hw.Insn.execute m.Hw.Machine.insns ~exec_ok Hw.Insn.Mov_cr4 smep_on)
  done;
  float_of_int (Hw.Cost.category ledger "gate2" - t0) /. float_of_int iters

let measure_gate3 stack iters =
  let m, _, fid = stack in
  let ledger = m.Hw.Machine.ledger in
  let t0 = Hw.Cost.category ledger "gate3" in
  for _ = 1 to iters do
    ignore
      (Core.Gate.with_type3 fid ~pfns:[ fid.Core.Ctx.vmrun_page ] ~executable:true (fun () ->
           Ok ()))
  done;
  float_of_int (Hw.Cost.category ledger "gate3" - t0) /. float_of_int iters

let measure_shadow stack dom iters =
  let m, hv, _ = stack in
  let ledger = m.Hw.Machine.ledger in
  let t0 = Hw.Cost.category ledger "shadow" in
  for _ = 1 to iters do
    match Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Void with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  float_of_int (Hw.Cost.category ledger "shadow" - t0) /. float_of_int iters

let micro () =
  header "Micro-benchmarks (Section 7.2)";
  let stack = installed_stack 91L in
  let iters = 1000 in
  Printf.printf "gate transition costs (average of %d runs):\n" iters;
  Printf.printf "  type 1 (disable WP)      %7.1f cycles   [paper: 306]\n" (measure_gate1 stack iters);
  Printf.printf "  type 2 (checking loop)   %7.1f cycles   [paper: 16]\n" (measure_gate2 stack iters);
  Printf.printf "  type 3 (add new mapping) %7.1f cycles   [paper: 339, of which TLB flush 128]\n"
    (measure_gate3 stack iters);
  let dom = protected_guest stack "micro" 8 in
  Printf.printf "shadow+check round trip (void hypercall): %7.1f cycles   [paper: 661]\n"
    (measure_shadow stack dom 200);
  (* The 512 MB copy under the three encoders: per-block rates from the
     calibrated cost model, validated against a real 64 KiB run through
     each codec. *)
  let costs = Hw.Cost.default in
  let slowdown rate =
    100.0 *. (float_of_int rate -. float_of_int costs.Hw.Cost.memcpy_block)
    /. float_of_int costs.Hw.Cost.memcpy_block
  in
  Printf.printf "512 MB in-guest copy with encoding (vs plain copy):\n";
  Printf.printf "  AES-NI                   %+7.2f%%        [paper: +11.49%%]\n"
    (slowdown costs.Hw.Cost.aesni_block);
  Printf.printf "  SEV/SME engine           %+7.2f%%        [paper: +8.69%%]\n"
    (slowdown costs.Hw.Cost.sev_engine_block);
  Printf.printf "  software AES             %+7.1fx         [paper: >20x]\n"
    (float_of_int costs.Hw.Cost.sw_aes_block /. float_of_int costs.Hw.Cost.memcpy_block)

(* ---- Tables 1 and 2 ------------------------------------------------------------ *)

let tab1 () =
  header "Table 1: resource permissions under Fidelius (verified live)";
  let _, hv, fid = installed_stack 92L in
  let dom = protected_guest (hv.Xen.Hypervisor.machine, hv, fid) "t1" 8 in
  let host = hv.Xen.Hypervisor.host_space in
  let perm pfn =
    match Hw.Pagetable.lookup host pfn with
    | None -> "no access"
    | Some p -> if p.Hw.Pagetable.writable then "WRITABLE" else "read-only"
  in
  let row name pfns policy =
    let perms = List.sort_uniq compare (List.map perm pfns) in
    Printf.printf "%-28s %-12s %s\n" name (String.concat "/" perms) policy
  in
  Printf.printf "%-28s %-12s %s\n" "resource" "Xen perm" "policy";
  row "Page tables (Xen)" (Hw.Pagetable.backing_frames host) "PIT based policy";
  row "NPT (guest VM)" (Hw.Pagetable.backing_frames dom.Xen.Domain.npt) "PIT based policy";
  row "Grant tables" (Xen.Granttab.backing_frames hv.Xen.Hypervisor.granttab) "GIT based policy";
  row "Page info table" (Core.Pit.tree_frames fid.Core.Ctx.pit) "Xen not accessible";
  row "Grant info table" (Core.Git_table.backing_frames fid.Core.Ctx.git) "Xen not accessible";
  (match Hashtbl.find_opt fid.Core.Ctx.shadows dom.Xen.Domain.domid with
  | Some s -> row "Shadow states" [ Core.Shadow.backing s ] "exit-reason based"
  | None -> ());
  row "Fidelius text" fid.Core.Ctx.fid_text "write-forbidding"

let tab2 () =
  header "Table 2: privileged instructions under Fidelius (verified live)";
  let m, hv, fid = installed_stack 93L in
  Printf.printf "%-10s %-12s %-18s %s\n" "insn" "monopolized" "home" "gate";
  let where op =
    match Hw.Insn.instances m.Hw.Machine.insns op with
    | [ p ] when List.mem p fid.Core.Ctx.fid_text -> ("fidelius-text", "type 2: checking loop")
    | [ p ] when p = fid.Core.Ctx.vmrun_page || p = fid.Core.Ctx.cr3_page ->
        ("unmapped page", "type 3: add mapping")
    | _ -> ("MULTIPLE", "NONE")
  in
  ignore hv;
  List.iter
    (fun op ->
      let home, gate = where op in
      Printf.printf "%-10s %-12b %-18s %s\n" (Hw.Insn.op_to_string op)
        (Hw.Insn.monopolized m.Hw.Machine.insns op)
        home gate)
    Hw.Insn.all_ops

(* ---- security matrix + XSA ------------------------------------------------------ *)

let attacks () =
  header "Security matrix: attack catalogue on plain SEV vs Fidelius (Section 6)";
  Format.printf "%a@." Attacks.Runner.pp_table (Attacks.Runner.run_all ())

let xsa () =
  header "Quantitative XSA analysis (Section 6.2)";
  Format.printf "%a@." Xsa.Report.pp (Xsa.Report.compute ());
  Printf.printf "\nsample thwarted advisories:\n";
  List.iter
    (fun r ->
      Printf.printf "  XSA-%-4d %-22s %s\n" r.Xsa.Db.xsa
        (Xsa.Db.category_to_string r.Xsa.Db.category)
        r.Xsa.Db.title)
    (Xsa.Report.sample_thwarted 6)

(* ---- ablations (DESIGN.md §4) ----------------------------------------------------- *)

let ablate () =
  header "Ablation 1: gate design - WP-toggle vs full address-space switch";
  let stack = installed_stack 94L in
  let m, _, _ = stack in
  let g1 = measure_gate1 stack 500 in
  (* The rejected design: each crossing switches CR3 twice, each switch a
     full TLB flush on AMD. *)
  let ledger = m.Hw.Machine.ledger in
  let t0 = Hw.Cost.total ledger in
  let host_cr3 = Hw.Cpu.cr3 m.Hw.Machine.cpu in
  for _ = 1 to 500 do
    Hw.Cpu.priv_set_cr3 m.Hw.Machine.cpu host_cr3;
    Hw.Tlb.flush_all m.Hw.Machine.tlb;
    Hw.Cpu.priv_set_cr3 m.Hw.Machine.cpu host_cr3;
    Hw.Tlb.flush_all m.Hw.Machine.tlb
  done;
  let cr3_cost = float_of_int (Hw.Cost.total ledger - t0) /. 500.0 in
  Printf.printf "  type-1 gate (chosen):        %8.1f cycles per crossing\n" g1;
  Printf.printf "  CR3 switch (rejected):       %8.1f cycles per crossing (%.1fx)\n" cr3_cost
    (cr3_cost /. g1);
  header "Ablation 2: VMCB shadowing vs strict write-protection";
  let dom = protected_guest stack "ab2" 8 in
  let shadow_cost = measure_shadow stack dom 200 in
  (* Strict write-protection would trap every VMCB access through a type-1
     gate; a typical exit handler touches RIP, RAX, exit fields... ~6. *)
  let strict = 6.0 *. g1 in
  Printf.printf "  shadowing (chosen):          %8.1f cycles per exit\n" shadow_cost;
  Printf.printf "  strict trapping (rejected):  %8.1f cycles per exit (~6 accesses x gate1, %.1fx)\n"
    strict (strict /. shadow_cost);
  header "Ablation 3: I/O encoders on non-AES-NI hardware";
  let costs = Hw.Cost.default in
  Printf.printf "  SEV-API reuse (the paper's novelty): +%.1f%% per block\n"
    (100.0 *. float_of_int (costs.Hw.Cost.sev_engine_block - costs.Hw.Cost.memcpy_block)
     /. float_of_int costs.Hw.Cost.memcpy_block);
  Printf.printf "  software AES (only alternative):     %.0fx per block\n"
    (float_of_int costs.Hw.Cost.sw_aes_block /. float_of_int costs.Hw.Cost.memcpy_block);
  header "Ablation 4: BMT hardware integrity (Section 8 suggestion 1) - what it buys and costs";
  let stack4 = installed_stack 96L in
  let m4, hv4, fid4 = stack4 in
  ignore hv4;
  let dom4 = protected_guest stack4 "ab4" 16 in
  let integ = Core.Integrity.protect fid4 dom4 in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "row");
  let ledger = m4.Hw.Machine.ledger in
  let t0 = Hw.Cost.total ledger in
  let n = 200 in
  for _ = 1 to n do
    match Core.Integrity.verified_read integ ~addr:0x3000 ~len:64 with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let verified = float_of_int (Hw.Cost.total ledger - t0) /. float_of_int n in
  let _, hv4b, _ = stack4 in
  let t1 = Hw.Cost.total ledger in
  for _ = 1 to n do
    ignore
      (Xen.Hypervisor.in_guest hv4b dom4 (fun () ->
           Xen.Domain.read m4 dom4 ~addr:0x3000 ~len:64))
  done;
  let plain = float_of_int (Hw.Cost.total ledger - t1) /. float_of_int n in
  Printf.printf "  plain guest read (64B):      %8.1f cycles\n" plain;
  Printf.printf "  BMT-verified read (64B):     %8.1f cycles (%.1fx)\n" verified (verified /. plain);
  Printf.printf "  in exchange: Rowhammer and physical ciphertext replay become *detected*\n";
  Printf.printf "  (see examples/hardware_extensions.exe and test/test_extensions.ml)\n"

(* ---- Bechamel wall-clock measurements ---------------------------------------------- *)

(* results/bench.json is one JSON object mapping each key to a number.
   Several sections record into it (bechamel, fleet, serve, migrate), each
   merging into what is there. A missing file is an empty baseline; one
   that does not parse is an error naming the file, never a silent loss
   of keys. *)
let bench_json = Filename.concat results_dir "bench.json"

let read_bench_json ~who =
  if not (Sys.file_exists bench_json) then Json.Obj []
  else
    let fail why =
      Printf.printf "%s: FAIL — cannot parse %s (%s); move it aside to record a fresh one.\n"
        who bench_json why;
      exit 1
    in
    match Json.parse (In_channel.with_open_bin bench_json In_channel.input_all) with
    | Json.Obj _ as j -> j
    | _ -> fail "not a JSON object"
    | exception Json.Parse_error e -> fail e

let bench_value k baseline =
  match Json.member k baseline with Some (Json.Float v) -> Some v | _ -> None

let update_bench_json kvs =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let kept =
    match read_bench_json ~who:"bench.json" with
    | Json.Obj fields -> List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) fields
    | _ -> []
  in
  let j = Json.Obj (kept @ List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  Out_channel.with_open_bin bench_json (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n');
  Printf.printf "  [written: %s]\n" bench_json

(* [quota] bounds the measurement time per test; the smoke variant uses a
   tiny quota so CI can catch perf-path breakage (a primitive that stops
   running at all, or regresses by an order of magnitude) in seconds.
   Smoke numbers are noisy, so only the full run records results/bench.json
   (the machine-readable perf trajectory future PRs compare against). *)
let bechamel ?(quota = 0.25) ?(record = true) () =
  header "Bechamel: real wall-clock cost of the hot primitives (ns/run)";
  (* Which silicon ran the crypto numbers below — without this a bench.json
     delta between two machines (or a VM masking AES-NI) is uninterpretable. *)
  Printf.printf "  crypto backends: aes=%s sha256=%s (cpu: %s)\n\n"
    (Fidelius_crypto.Aes.backend ()) Fidelius_crypto.Sha256.backend
    (String.concat " " (Fidelius_crypto.Aes.cpu_features ()));
  let open Bechamel in
  let open Toolkit in
  let rng = Rng.create 99L in
  let key = Fidelius_crypto.Aes.expand (Rng.bytes rng 16) in
  let block = Rng.bytes rng 16 in
  let page = Rng.bytes rng 4096 in
  let kilobyte = Rng.bytes rng 1024 in
  let sixty_four = Rng.bytes rng 64 in
  let stack = installed_stack 95L in
  let m, hv, fid = stack in
  let dom = protected_guest stack "bench" 8 in
  let pit = fid.Core.Ctx.pit in
  let exec_ok = Hw.Mmu.exec_ok m hv.Xen.Hypervisor.host_space in
  let smep_on = Hw.Insn.cr4 ~smep:true in
  (* The BMT entries run against their own machine so their tree/ledger
     traffic can't perturb the stack the gate benchmarks measure. The
     fetch-check input is dumped once, outside the staged closure: the
     entry times the O(1) check itself, not a page copy per run. *)
  let bm = Hw.Machine.create ~nr_frames:256 ~seed:97L () in
  let bmt_frames = List.init 256 (fun i -> i) in
  let bmt = Hw.Bmt.create bm ~frames:bmt_frames in
  let fetched = Hw.Physmem.dump bm.Hw.Machine.mem 100 in
  let batch64 = List.init 64 (fun i -> 3 * i) in
  (* xex-span-4KiB writes into this preallocated buffer so the entry times
     the cipher alone; the allocating xex-page-4KiB entry above it keeps
     measuring what callers of the wrapper actually pay. *)
  let span_dst = Bytes.create 4096 in
  (* Built once: the staged closure below would otherwise allocate this
     thunk per run, charging closure construction to the guest-read entry. *)
  let read64 () = Xen.Domain.read m dom ~addr:0x2000 ~len:64 in
  let tests =
    Test.make_grouped ~name:"fidelius"
      [ Test.make ~name:"aes-128-block" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Aes.encrypt_block key block)));
        Test.make ~name:"xex-page-4KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Modes.xex_encrypt key ~tweak:0x40L page)));
        Test.make ~name:"xex-span-4KiB" (Staged.stage (fun () ->
            Fidelius_crypto.Modes.xex_encrypt_span key ~tweak0:0x40L ~tweak_step:16L
              ~src:page ~src_off:0 ~dst:span_dst ~dst_off:0 ~len:4096));
        Test.make ~name:"ctr-4KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Modes.ctr_transform key ~nonce:0x99L page)));
        Test.make ~name:"ecb-4KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Modes.ecb_encrypt key page)));
        Test.make ~name:"sha256-1KiB" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Sha256.digest kilobyte)));
        Test.make ~name:"sha256-64B" (Staged.stage (fun () ->
            ignore (Fidelius_crypto.Sha256.digest sixty_four)));
        Test.make ~name:"bmt-fetch-check" (Staged.stage (fun () ->
            ignore (Hw.Bmt.verify_fetched bmt 100 ~data:fetched)));
        Test.make ~name:"bmt-update-batch-64pages" (Staged.stage (fun () ->
            Hw.Bmt.update_many bmt batch64));
        Test.make ~name:"pit-lookup" (Staged.stage (fun () -> ignore (Core.Pit.get pit 100)));
        Test.make ~name:"gate1-crossing" (Staged.stage (fun () ->
            ignore (Core.Gate.with_type1 fid (fun () -> Ok ()))));
        Test.make ~name:"checking-loop" (Staged.stage (fun () ->
            ignore (Hw.Insn.execute m.Hw.Machine.insns ~exec_ok Hw.Insn.Mov_cr4 smep_on)));
        Test.make ~name:"void-hypercall" (Staged.stage (fun () ->
            ignore (Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Void)));
        Test.make ~name:"guest-read-64B" (Staged.stage (fun () ->
            ignore (Xen.Hypervisor.in_guest hv dom read64))) ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  let estimates =
    List.filter_map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] ->
            Printf.printf "  %-28s %12.1f ns/run\n" name est;
            Some (name, est)
        | _ ->
            Printf.printf "  %-28s (no estimate)\n" name;
            None)
      (benchmark ())
  in
  (* Fail loudly (smoke included) if a tracked primitive stops producing a
     number — a silently vanished key would otherwise survive in
     bench.json as a stale measurement forever. *)
  List.iter
    (fun k ->
      if not (List.mem_assoc k estimates) then
        failwith (Printf.sprintf "bechamel: no estimate for required benchmark %S" k))
    [ "fidelius/aes-128-block"; "fidelius/xex-page-4KiB"; "fidelius/xex-span-4KiB";
      "fidelius/ctr-4KiB"; "fidelius/ecb-4KiB"; "fidelius/sha256-1KiB";
      "fidelius/sha256-64B"; "fidelius/bmt-fetch-check"; "fidelius/bmt-update-batch-64pages";
      "fidelius/pit-lookup"; "fidelius/gate1-crossing"; "fidelius/checking-loop";
      "fidelius/void-hypercall"; "fidelius/guest-read-64B" ];
  (* Merge, don't clobber: the fleet section owns the fleet/* keys. *)
  if record then update_bench_json estimates;
  estimates

(* ---- fleet scaling (SCALING.md) ---------------------------------------------------- *)

let results_path name =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat results_dir name

(* Per-worker GC/alloc report — the reproducible diagnosis behind the
   arena refactor (SCALING.md "Profiling a flat curve"): words allocated
   per VM tell you how often each worker drags every other domain into a
   stop-the-world minor-GC rendezvous. *)
let print_gc_stats gc =
  Printf.printf "  %8s %6s %14s %14s %14s %8s %8s %12s\n" "worker" "jobs" "minor-words"
    "promoted" "major-words" "minorGC" "majorGC" "minor/VM";
  List.iter
    (fun (g : W.Fleetbench.gc_stats) ->
      Printf.printf "  %8d %6d %14.3e %14.3e %14.3e %8d %8d %12.3e\n" g.W.Fleetbench.worker
        g.W.Fleetbench.jobs g.W.Fleetbench.minor_words g.W.Fleetbench.promoted_words
        g.W.Fleetbench.major_words g.W.Fleetbench.minor_collections
        g.W.Fleetbench.major_collections
        (g.W.Fleetbench.minor_words /. float_of_int (max 1 g.W.Fleetbench.jobs)))
    gc

(* The deterministic artifacts (per-VM CSV, merged Chrome trace) are
   streamed to disk by every run — the fleet determinism contract
   (pinned in test/test_fleet.ml) says every run writes identical bytes.
   Only the VMs/sec column is wall-clock. *)
let fleet ?(vms = 16) ?(domain_counts = [ 1; 2; 4; 8 ]) ?(gc_stats = false) ?(record = true) ()
    =
  header
    (Printf.sprintf
       "Fleet: %d protected-VM simulations sharded across OCaml domains (see SCALING.md)" vms);
  let csv = results_path "fleet.csv" and trace = results_path "fleet_trace.json" in
  (* Each timed entry must see the same heap: one untimed warmup so
     first-run effects (code paging, lazy init) don't land on the first
     entry, and a compaction before each run so all start from the same
     major-heap state. Since the streaming refactor no entry retains
     anything heavier than its per-VM row list — every shard's trace
     events go to a spill file as the VM finishes — so back-to-back
     entries no longer drift the heap (what once read as a scaling
     inversion). *)
  ignore (W.Fleetbench.run_stream ~domains:1 ~vms:(min vms 4) ~csv ~trace ());
  Printf.printf "%8s %10s %10s %10s\n" "domains" "seconds" "VMs/sec" "speedup";
  let timed =
    List.map
      (fun d ->
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let s = W.Fleetbench.run_stream ~domains:d ~vms ~csv ~trace () in
        let dt = Unix.gettimeofday () -. t0 in
        (d, dt, s.W.Fleetbench.gc))
      domain_counts
  in
  let base_dt = match timed with (_, dt, _) :: _ -> dt | [] -> 1.0 in
  let curve =
    List.map
      (fun (d, dt, _) ->
        let rate = float_of_int vms /. dt in
        Printf.printf "%8d %10.3f %10.1f %9.2fx\n" d dt rate (base_dt /. dt);
        (Printf.sprintf "fleet/vms-per-sec-d%d" d, rate))
      timed
  in
  if gc_stats then
    List.iter
      (fun (d, _, gc) ->
        Printf.printf "\n  GC per worker domain at --domains %d:\n" d;
        print_gc_stats gc)
      timed;
  Printf.printf "  [written: %s]\n  [written: %s]\n" csv trace;
  if record then update_bench_json curve

(* CI gate for the scaling curve: d4 must beat d1 by at least 2.0x — a
   soft floor below the 2.5x acceptance target so a noisy shared 4-core
   runner does not flake — and the gate self-skips (exit 0, loud
   message) where the hardware cannot express the property at all. *)
let fleet_scale ?(vms = 32) () =
  header "Fleet scale gate: d4 vs d1 VMs/sec (soft floor 2.0x, target 2.5x)";
  let rec_d = Fidelius_fleet.Pool.recommended_domains () in
  if rec_d < 4 then
    Printf.printf
      "fleet-scale: SKIP — recommended_domains() = %d < 4: the worker-domain cap multiplexes \
       --domains 4 onto %d worker(s) here, so d4/d1 is structurally ~1.0x and asserting on it \
       would only measure noise. Run on a 4+-core host.\n"
      rec_d rec_d
  else begin
    let csv = results_path "fleet.csv" and trace = results_path "fleet_trace.json" in
    let timed d =
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      ignore (W.Fleetbench.run_stream ~domains:d ~vms ~csv ~trace ());
      float_of_int vms /. (Unix.gettimeofday () -. t0)
    in
    ignore (W.Fleetbench.run_stream ~domains:1 ~vms:(min vms 4) ~csv ~trace ());
    let r1 = timed 1 in
    let r4 = timed 4 in
    let ratio = r4 /. r1 in
    Printf.printf "%8s %10s\n%8d %10.1f\n%8d %10.1f\n  d4/d1 = %.2fx\n" "domains" "VMs/sec" 1
      r1 4 r4 ratio;
    if ratio < 2.0 then begin
      Printf.printf
        "fleet-scale: FAIL — d4 ran only %.2fx faster than d1 (floor 2.0x): the curve has gone \
         flat again; profile with `bench fleet --gc-stats` (SCALING.md, \"Profiling a flat \
         curve\").\n"
        ratio;
      exit 1
    end
    else Printf.printf "fleet-scale: OK (%.2fx >= 2.0x)\n" ratio
  end

(* Fleet wall-clock smoke: asking for more domains must not make the run
   slower (the scaling inversion the worker-domain cap fixed), in a few
   seconds. Generous slack (d2 may be up to 1/0.7 = 1.43x slower) because
   a smoke box is noisy; the real curve is recorded by the full fleet
   section. Before the worker-domain cap in Fidelius_fleet.Pool, d2 was
   reliably beyond even this slack on a single-core host. The exact
   fleet checks (artifacts at any domain count, the bounded live heap)
   are test_fleet's. *)
let fleet_smoke () =
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("fidelius-" ^ name) in
  let csv = tmp "fleet-smoke.csv" and trace = tmp "fleet-smoke-trace.json" in
  let timed d =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    ignore (W.Fleetbench.run_stream ~domains:d ~vms:8 ~csv ~trace ());
    Unix.gettimeofday () -. t0
  in
  (* One untimed run first, so first-run effects land on neither side. *)
  ignore (timed 2);
  let t1 = timed 1 in
  let t2 = timed 2 in
  Sys.remove csv;
  Sys.remove trace;
  let rate1 = 8.0 /. t1 and rate2 = 8.0 /. t2 in
  if rate2 < 0.7 *. rate1 then
    failwith
      (Printf.sprintf
         "fleet-smoke: scaling inversion: domains=2 ran at %.1f VMs/s vs %.1f VMs/s for \
          domains=1 (below the 0.7x slack)"
         rate2 rate1);
  Printf.printf "fleet-smoke: 8 VMs, d1 %.1f VMs/s vs d2 %.1f VMs/s: no inversion\n" rate1 rate2

(* ---- serve: traffic over the batched PV datapath --------------------------------------- *)

(* Wall-clock requests/second through the shared ring: the same kernel at
   1 and [batch] descriptors per doorbell. Median of three runs — the
   doorbell (a full protected-guest world switch) dominates the synchronous
   path, so the ratio is what the batching actually buys. *)
let ring_rates ?(iters = 4000) ?(runs = 3) batch =
  let kernel = W.Serve.ring_workload ~batch ~iters in
  kernel ();
  (* warmup *)
  let sample () =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    kernel ();
    float_of_int iters /. (Unix.gettimeofday () -. t0)
  in
  let samples = List.sort compare (List.init runs (fun _ -> sample ())) in
  List.nth samples (runs / 2)

let serve ?(requests = 512) ?(batches = [ 1; 2; 4; 8 ]) ?(record = true) () =
  header "Serve: open-loop mixed blk/net traffic over the batched PV datapath";
  let sync_rate = ring_rates 1 in
  let batch_rate = ring_rates 8 in
  Printf.printf
    "ring wall-clock: sync %.0f req/s, batch-8 %.0f req/s  (%.2fx per doorbell amortization)\n\n"
    sync_rate batch_rate (batch_rate /. sync_rate);
  Printf.printf "%6s %10s %10s %10s %10s %12s %10s\n" "batch" "req/s" "p50 us" "p90 us"
    "p99 us" "hypercalls" "blk-doorb";
  let rows =
    List.map (fun b -> W.Serve.run { W.Serve.batch = b; requests }) batches
  in
  List.iter
    (fun (r : W.Serve.report) ->
      Printf.printf "%6d %10.0f %10.1f %10.1f %10.1f %12d %10d\n" r.W.Serve.batch
        r.W.Serve.rps r.W.Serve.p50_us r.W.Serve.p90_us r.W.Serve.p99_us
        r.W.Serve.hypercalls r.W.Serve.blk_notifications)
    rows;
  let kvs =
    [ ("serve/ring-req-per-sec-sync", sync_rate);
      ("serve/ring-req-per-sec-b8", batch_rate);
      ("serve/ring-speedup-b8", batch_rate /. sync_rate) ]
    @ List.concat_map
        (fun (r : W.Serve.report) ->
          let b = r.W.Serve.batch in
          [ (Printf.sprintf "serve/req-per-sec-b%d" b, r.W.Serve.rps);
            (Printf.sprintf "serve/p50-us-b%d" b, r.W.Serve.p50_us);
            (Printf.sprintf "serve/p99-us-b%d" b, r.W.Serve.p99_us);
            (Printf.sprintf "serve/hypercalls-b%d" b, float_of_int r.W.Serve.hypercalls) ])
        rows
  in
  if record then update_bench_json kvs

(* Serve wall-clock smoke: the batched datapath must still amortize the
   doorbell. Seconds, not minutes. The exact serve checks (a
   deterministic batch-1 report, fewer world switches at batch 8) are
   test_workloads'.

   Floor calibration: the original 3.5x slack (against a 5x full-bench
   ratio) dated from when the doorbell crossing cost ~14.5us of wall
   clock. The zero-alloc fast path cut the crossing roughly 3x, so the
   fixed cost that batching amortizes is a smaller share of each request
   and the honest wall-clock ratio landed at 2.3-3.7x on a 1-core box.
   The amortization claim itself (fewer world switches per request, ratio
   well above 1) is unchanged — the simulated-cycle ledger still shows the
   full doorbell saving — so the smoke floor is now 1.8x. *)
let serve_smoke () =
  let sync_rate = ring_rates ~iters:2000 1 in
  let batch_rate = ring_rates ~iters:2000 8 in
  let ratio = batch_rate /. sync_rate in
  if ratio < 1.8 then
    failwith
      (Printf.sprintf
         "serve-smoke: batch-8 ring throughput only %.2fx the synchronous path (smoke floor \
          1.8x)"
         ratio);
  Printf.printf "serve-smoke: ring batch-8 %.2fx sync\n" ratio

(* ---- migrate: fleet live migration under a downtime budget ----------------------------- *)

(* The pages-sent vs downtime-budget trade-off across fleet sizes: every
   (budget, fleet) cell is a complete fleet of live migrations — both
   hosts, attesting owner, secret injection — sharded over OCaml domains.
   Pre-copy resends cost wire pages; a looser budget stops the pre-copy
   earlier, so total pages sent decreases monotonically as the budget
   grows (the guest's working set halves every round). All per-VM rows
   land in results/migrate.csv; the artifacts are deterministic at any
   domain count (the SCALING.md contract, pinned by test_migrate). *)
let migrate_bench ?(budgets = [ 2.5; 10.0; 40.0 ]) ?(fleets = [ 8; 16 ]) ?(record = true) () =
  header "Migrate: fleet live migration, pages sent vs downtime budget (attested key release)";
  Printf.printf "%10s %6s %10s %10s %13s %13s\n" "budget-us" "vms" "seconds" "VMs/sec"
    "total-pages" "avg-downtime";
  ignore (W.Migratebench.run ~domains:1 ~vms:2 ~budget_us:10.0 ());
  (* warmup *)
  let cells =
    List.concat_map
      (fun budget_us ->
        List.map
          (fun vms ->
            Gc.compact ();
            let t0 = Unix.gettimeofday () in
            let t = W.Migratebench.run ~vms ~budget_us () in
            let dt = Unix.gettimeofday () -. t0 in
            if not (W.Migratebench.all_keys_delivered t) then
              failwith "bench migrate: a migration finished without its disk key";
            let pages = W.Migratebench.total_pages t in
            let downtime =
              List.fold_left (fun a r -> a +. r.W.Migratebench.downtime_us) 0.0
                t.W.Migratebench.rows
              /. float_of_int (max 1 vms)
            in
            Printf.printf "%10.1f %6d %10.3f %10.1f %13d %11.1fus\n" budget_us vms dt
              (float_of_int vms /. dt) pages downtime;
            (budget_us, vms, dt, pages, t))
          fleets)
      budgets
  in
  let rows = List.concat_map (fun (_, _, _, _, t) -> t.W.Migratebench.rows) cells in
  write_result "migrate.csv" (W.Migratebench.csv { W.Migratebench.rows });
  if record then
    update_bench_json
      (List.concat_map
         (fun (budget_us, vms, dt, pages, _) ->
           [ (Printf.sprintf "migrate/vms-per-sec-b%g-f%d" budget_us vms,
              float_of_int vms /. dt);
             (Printf.sprintf "migrate/total-pages-b%g-f%d" budget_us vms, float_of_int pages) ])
         cells)

(* ---- perf delta ------------------------------------------------------------------------ *)

(* Compare the recorded perf trajectory (results/bench.json, written by the
   last full `bechamel`/`fleet` run; results/ is untracked, so the
   baseline is per-checkout)
   against a fresh measurement of the same primitives. *)
let perf () =
  let baseline = read_bench_json ~who:"perf" in
  let empty = baseline = Json.Obj [] in
  if empty then Printf.printf "perf: no results/bench.json baseline; recording one first.\n";
  let fresh = bechamel ~record:empty () in
  header "Perf delta: recorded baseline -> this build";
  Printf.printf "  %-28s %14s %14s %9s\n" "benchmark" "baseline" "now" "speedup";
  List.iter
    (fun (name, now) ->
      match bench_value name baseline with
      | Some was ->
          Printf.printf "  %-28s %11.1f ns %11.1f ns %8.2fx\n" name was now (was /. now)
      | None -> Printf.printf "  %-28s %14s %11.1f ns\n" name "(new)" now)
    fresh

(* ---- perf gate ------------------------------------------------------------------------ *)

(* CI regression gate over the per-access fast path. The pinned keys are
   the primitives this repo has specifically optimised; anything else in
   bench.json (crypto throughput, fleet numbers) is tracked by `perf` but
   not gated, so an unrelated PR is not blocked by a noisy AES run.

   A key fails when the fresh measurement is more than [threshold] times
   the recorded baseline. 2x is deliberately loose: the 1-core CI
   container jitters by tens of percent run to run, and the gate exists to
   catch structural regressions (a closure reintroduced on the crossing, a
   gate re-copying the VMCB), which cost integer factors, not percents.
   Keys that look regressed are re-measured once and judged on the better
   of the two runs before the gate fails.

   PERF_GATE_SKIP=1 skips the gate (for hosts where wall-clock measurement
   is meaningless, e.g. heavily shared builders). *)
let perf_gate_keys =
  [ "fidelius/void-hypercall"; "fidelius/guest-read-64B";
    "fidelius/gate1-crossing"; "fidelius/checking-loop";
    "fidelius/bmt-update-batch-64pages" ]

let perf_gate () =
  if Sys.getenv_opt "PERF_GATE_SKIP" = Some "1" then
    Printf.printf "perf-gate: SKIPPED (PERF_GATE_SKIP=1)\n"
  else begin
    let threshold = 2.0 in
    (* A fresh checkout has no results/bench.json (results/ is regenerable and
       untracked): nothing to gate against, so SKIP loudly rather than fail.
       A baseline that exists but lacks a pinned key is different — that is a
       key silently falling out of the perf trajectory, and it fails. *)
    if not (Sys.file_exists (Filename.concat results_dir "bench.json")) then begin
      Printf.printf
        "perf-gate: SKIP — no results/bench.json baseline on this checkout; \
         run `make perf` on a quiet host to record one.\n";
      exit 0
    end;
    let baseline = read_bench_json ~who:"perf-gate" in
    let missing = List.filter (fun k -> bench_value k baseline = None) perf_gate_keys in
    if missing <> [] then begin
      Printf.printf
        "perf-gate: FAIL — results/bench.json lacks pinned key(s) %s; run `make perf` \
         on a quiet host to refresh the recorded baseline.\n"
        (String.concat ", " missing);
      exit 1
    end;
    let measure () = bechamel ~record:false () in
    let judge fresh k =
      let was = Option.get (bench_value k baseline) in
      match List.assoc_opt k fresh with
      | None -> Some (k, was, nan)
      | Some now -> if now > threshold *. was then Some (k, was, now) else None
    in
    let fresh = measure () in
    let regressed = List.filter_map (judge fresh) perf_gate_keys in
    let regressed =
      if regressed = [] then []
      else begin
        Printf.printf "perf-gate: %d key(s) look regressed; re-measuring once...\n"
          (List.length regressed);
        let again = measure () in
        let best =
          List.map
            (fun (k, v) ->
              match List.assoc_opt k again with
              | Some v' when v' < v -> (k, v')
              | _ -> (k, v))
            fresh
        in
        List.filter_map (judge best) perf_gate_keys
      end
    in
    header "Perf gate: pinned fast-path keys vs recorded baseline";
    List.iter
      (fun k ->
        let was = Option.get (bench_value k baseline) in
        let now = Option.value ~default:nan (List.assoc_opt k fresh) in
        let flag = if List.mem_assoc k (List.map (fun (k, w, n) -> (k, (w, n))) regressed)
          then "FAIL" else "ok" in
        Printf.printf "  %-34s %11.1f ns -> %11.1f ns  %s\n" k was now flag)
      perf_gate_keys;
    if regressed <> [] then begin
      List.iter
        (fun (k, was, now) ->
          Printf.printf
            "perf-gate: FAIL — %s regressed beyond %.1fx (baseline %.1f ns, now %.1f ns)\n"
            k threshold was now)
        regressed;
      exit 1
    end;
    Printf.printf "perf-gate: OK (all pinned keys within %.1fx of baseline)\n" threshold
  end

(* ---- driver --------------------------------------------------------------------------- *)

let all () =
  tab1 ();
  tab2 ();
  attacks ();
  xsa ();
  fig5 ();
  fig6 ();
  tab3 ();
  micro ();
  ablate ();
  serve ();
  migrate_bench ();
  fleet ();
  ignore (bechamel ())

(* [--flag v] scanned from the section's trailing arguments. *)
let flag_arg name =
  let rec go i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 2

(* Bare [--flag] (no value) present in the section's trailing arguments. *)
let has_flag name =
  let rec go i =
    if i >= Array.length Sys.argv then false
    else Sys.argv.(i) = name || go (i + 1)
  in
  go 2

let fleet_cli () =
  let vms = Option.map int_of_string (flag_arg "--vms") in
  let domain_counts =
    Option.map
      (fun s -> List.map int_of_string (String.split_on_char ',' s))
      (flag_arg "--domains")
  in
  fleet ?vms ?domain_counts ~gc_stats:(has_flag "--gc-stats") ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "fig5" -> fig5 ()
  | "fig6" -> fig6 ()
  | "tab3" -> tab3 ()
  | "micro" -> micro ()
  | "xsa" -> xsa ()
  | "attacks" -> attacks ()
  | "tab1" -> tab1 ()
  | "tab2" -> tab2 ()
  | "ablate" -> ablate ()
  | "bechamel" -> ignore (bechamel ())
  | "bechamel-smoke" -> ignore (bechamel ~quota:0.01 ~record:false ())
  | "perf" -> perf ()
  | "perf-gate" -> perf_gate ()
  | "fleet" -> fleet_cli ()
  | "fleet-smoke" -> fleet_smoke ()
  | "fleet-scale" ->
      let vms = Option.map int_of_string (flag_arg "--vms") in
      fleet_scale ?vms ()
  | "serve" ->
      let requests = Option.map int_of_string (flag_arg "--requests") in
      let batches =
        Option.map
          (fun s -> List.map int_of_string (String.split_on_char ',' s))
          (flag_arg "--batches")
      in
      serve ?requests ?batches ()
  | "serve-smoke" -> serve_smoke ()
  | "migrate" ->
      let budgets =
        Option.map
          (fun s -> List.map float_of_string (String.split_on_char ',' s))
          (flag_arg "--budgets")
      in
      let fleets =
        Option.map
          (fun s -> List.map int_of_string (String.split_on_char ',' s))
          (flag_arg "--fleets")
      in
      migrate_bench ?budgets ?fleets ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown section %S; expected \
         fig5|fig6|tab3|micro|xsa|attacks|tab1|tab2|ablate|bechamel|bechamel-smoke|perf|\
         fleet|fleet-smoke|fleet-scale|serve|serve-smoke|migrate|all\n"
        other;
      exit 1
