(* The paper's deterministic artifacts, one renderer each: Figures 5/6,
   Table 3, the Section 7.2 micro-benchmarks, Tables 1-2, the Section 6
   security matrix, the Section 6.2 XSA analysis, the ablations of
   DESIGN.md §4 and the serve sweep. Every section prints its banner, then
   its rows; the figures and Table 3 also write their CSV under results/.
   The shared protected-stack and output-path helpers live here too. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module W = Fidelius_workloads
module Attacks = Fidelius_attacks
module Xsa = Fidelius_xsa
module Rng = Fidelius_crypto.Rng

(* ---- protected stack -------------------------------------------------------- *)

let stack_on machine =
  let hv = Xen.Hypervisor.boot machine in
  let fid = Fid.install hv in
  (machine, hv, fid)

let stack seed = stack_on (Hw.Machine.create ~seed ())

let boot_guest fid name pages =
  let rng = Rng.create 77L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  match Fid.boot_protected_vm fid ~name ~memory_pages:pages ~prepared with
  | Ok d -> d
  | Error e -> failwith e

(* ---- output ------------------------------------------------------------------ *)

(* [path], once every missing parent directory of it exists. *)
let output_path path =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  path

let write_result name contents =
  let path = output_path (Filename.concat "results" name) in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Printf.printf "  [written: %s]\n" path

let write_csv name header rows = write_result name (Fidelius_fleet.Merge.csv ~header [ rows ])

let header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let bar pct = String.make (max 0 (min 40 (int_of_float (pct *. 2.0)))) '#'

(* ---- Figures 5 and 6 ---------------------------------------------------------- *)

let pp_counts label counts =
  Printf.printf "    %-12s %s\n" label
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts))

(* [breakdown] adds, under each row, the Fidelius-enc run's ledger
   categories and per-scope attribution. *)
let figure ~breakdown ~csv suite profiles paper_fid_avg paper_enc_avg highlight =
  header
    (Printf.sprintf "%s normalized overhead vs stock Xen  [paper: Fidelius avg %s, Fidelius-enc avg %s]"
       suite paper_fid_avg paper_enc_avg);
  Printf.printf "%-15s %13s %17s   %s\n" "benchmark" "Fidelius" "Fidelius-enc" "";
  let rows = W.Engine.run_suite profiles in
  let n = float_of_int (List.length rows) in
  let sum_f, sum_e =
    List.fold_left
      (fun (a, b) (p, f, e, enc) ->
        Printf.printf "%-15s %+12.2f%% %+16.2f%%   %s\n" p.W.Profile.name f e (bar e);
        if breakdown then begin
          pp_counts "cycles:" enc.W.Engine.breakdown;
          pp_counts "scopes:" enc.W.Engine.attribution
        end;
        (a +. f, b +. e))
      (0.0, 0.0) rows
  in
  Printf.printf "%-15s %+12.2f%% %+16.2f%%\n" "AVERAGE" (sum_f /. n) (sum_e /. n);
  Printf.printf "  paper reference: %s\n" highlight;
  write_csv csv "benchmark,fidelius_pct,fidelius_enc_pct"
    (List.map (fun (p, f, e, _) -> Printf.sprintf "%s,%.3f,%.3f" p.W.Profile.name f e) rows)

let fig5 ~breakdown =
  figure ~breakdown ~csv:"figure_5.csv" "Figure 5: SPECCPU 2006" W.Spec2006.all "0.88%" "5.38%"
    "mcf 17.3%, omnetpp 16.3%; bzip2/hmmer/h264ref nearly free"

let fig6 ~breakdown =
  figure ~breakdown ~csv:"figure_6.csv" "Figure 6: PARSEC" W.Parsec.all "0.43%" "1.97%"
    "canneal 14.27% (unstructured data model); everything else small"

(* ---- Table 3 ------------------------------------------------------------------ *)

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

(* ---- micro benchmarks (Section 7.2) ------------------------------------------- *)

(* Average growth of [counter ()] over [iters] runs of [f]. *)
let per_run counter iters f =
  let t0 = counter () in
  for _ = 1 to iters do
    f ()
  done;
  float_of_int (counter () - t0) /. float_of_int iters

let category (m, _, _) name () = Hw.Cost.category m.Hw.Machine.ledger name
let total (m, _, _) () = Hw.Cost.total m.Hw.Machine.ledger

let measure_gate1 ((_, _, fid) as st) iters =
  per_run (category st "gate1") iters (fun () ->
      ignore (Core.Gate.with_type1 fid (fun () -> Ok ())))

let measure_shadow ((_, hv, _) as st) dom iters =
  per_run (category st "shadow") iters (fun () ->
      match Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Void with
      | Ok _ -> ()
      | Error e -> failwith e)

let micro () =
  header "Micro-benchmarks (Section 7.2)";
  let ((m, hv, fid) as st) = stack 91L in
  let iters = 1000 in
  let exec_ok = Hw.Mmu.exec_ok m hv.Xen.Hypervisor.host_space in
  let smep_on = Hw.Insn.cr4 ~smep:true in
  Printf.printf "gate transition costs (average of %d runs):\n" iters;
  Printf.printf "  type 1 (disable WP)      %7.1f cycles   [paper: 306]\n" (measure_gate1 st iters);
  (* A legitimate (policy-passing) pass through the checking loop. *)
  Printf.printf "  type 2 (checking loop)   %7.1f cycles   [paper: 16]\n"
    (per_run (category st "gate2") iters (fun () ->
         ignore (Hw.Insn.execute m.Hw.Machine.insns ~exec_ok Hw.Insn.Mov_cr4 smep_on)));
  Printf.printf "  type 3 (add new mapping) %7.1f cycles   [paper: 339, of which TLB flush 128]\n"
    (per_run (category st "gate3") iters (fun () ->
         ignore
           (Core.Gate.with_type3 fid ~pfns:[ fid.Core.Ctx.vmrun_page ] ~executable:true (fun () ->
                Ok ()))));
  let dom = boot_guest fid "micro" 8 in
  Printf.printf "shadow+check round trip (void hypercall): %7.1f cycles   [paper: 661]\n"
    (measure_shadow st dom 200);
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
  let _, hv, fid = stack 92L in
  let dom = boot_guest fid "t1" 8 in
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
  let m, _, fid = stack 93L in
  Printf.printf "%-10s %-12s %-18s %s\n" "insn" "monopolized" "home" "gate";
  let where op =
    match Hw.Insn.instances m.Hw.Machine.insns op with
    | [ p ] when List.mem p fid.Core.Ctx.fid_text -> ("fidelius-text", "type 2: checking loop")
    | [ p ] when p = fid.Core.Ctx.vmrun_page || p = fid.Core.Ctx.cr3_page ->
        ("unmapped page", "type 3: add mapping")
    | _ -> ("MULTIPLE", "NONE")
  in
  List.iter
    (fun op ->
      let home, gate = where op in
      Printf.printf "%-10s %-12b %-18s %s\n" (Hw.Insn.op_to_string op)
        (Hw.Insn.monopolized m.Hw.Machine.insns op)
        home gate)
    Hw.Insn.all_ops

(* ---- security matrix + XSA ------------------------------------------------------ *)

(* The matrix, then its harness errors (attack, stack, message). *)
let attacks ~seed ?domains () =
  header "Security matrix: attack catalogue on plain SEV vs Fidelius (Section 6)";
  let rows = Attacks.Runner.run_all ~seed ?domains () in
  Format.printf "%a@." Attacks.Runner.pp_table rows;
  Attacks.Runner.errors rows

let attack ~seed (a : Attacks.Surface.attack) =
  let row = Attacks.Runner.run_one ~seed a in
  Printf.printf "%s — %s (paper %s)\n" a.id a.description a.paper_ref;
  Printf.printf "  plain SEV: %s\n" (Attacks.Surface.outcome_to_string row.Attacks.Runner.baseline);
  Printf.printf "  fidelius:  %s\n" (Attacks.Surface.outcome_to_string row.Attacks.Runner.fidelius)

(* [verbose] adds every advisory with its classification rationale. *)
let xsa ~verbose =
  header "Quantitative XSA analysis (Section 6.2)";
  Format.printf "%a@." Xsa.Report.pp (Xsa.Report.compute ());
  Printf.printf "\nsample thwarted advisories:\n";
  List.iter
    (fun r ->
      Printf.printf "  XSA-%-4d %-22s %s\n" r.Xsa.Db.xsa
        (Xsa.Db.category_to_string r.Xsa.Db.category)
        r.Xsa.Db.title)
    (Xsa.Report.sample_thwarted 6);
  if verbose then begin
    print_newline ();
    List.iter
      (fun r ->
        Printf.printf "XSA-%-4d %-10s %-22s %s\n    -> %s\n" r.Xsa.Db.xsa
          (Xsa.Db.component_to_string r.Xsa.Db.component)
          (Xsa.Db.category_to_string r.Xsa.Db.category)
          r.Xsa.Db.title (Xsa.Classify.why r))
      Xsa.Db.all
  end

(* ---- ablations (DESIGN.md §4) ----------------------------------------------------- *)

let ablate () =
  header "Ablation 1: gate design - WP-toggle vs full address-space switch";
  let ((m, _, fid) as st) = stack 94L in
  let g1 = measure_gate1 st 500 in
  (* The rejected design: each crossing switches CR3 twice, each switch a
     full TLB flush on AMD. *)
  let cpu = m.Hw.Machine.cpu in
  let host_cr3 = Hw.Cpu.cr3 cpu in
  let cr3_cost =
    per_run (total st) 500 (fun () ->
        Hw.Cpu.priv_set_cr3 cpu host_cr3;
        Hw.Tlb.flush_all m.Hw.Machine.tlb;
        Hw.Cpu.priv_set_cr3 cpu host_cr3;
        Hw.Tlb.flush_all m.Hw.Machine.tlb)
  in
  Printf.printf "  type-1 gate (chosen):        %8.1f cycles per crossing\n" g1;
  Printf.printf "  CR3 switch (rejected):       %8.1f cycles per crossing (%.1fx)\n" cr3_cost
    (cr3_cost /. g1);
  header "Ablation 2: VMCB shadowing vs strict write-protection";
  let dom = boot_guest fid "ab2" 8 in
  let shadow_cost = measure_shadow st dom 200 in
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
  let ((m4, hv4, fid4) as st4) = stack 96L in
  let dom4 = boot_guest fid4 "ab4" 16 in
  let integ = Core.Integrity.protect fid4 dom4 in
  Core.Integrity.guest_write integ ~addr:0x3000 (Bytes.of_string "row");
  let verified =
    per_run (total st4) 200 (fun () ->
        match Core.Integrity.verified_read integ ~addr:0x3000 ~len:64 with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  let plain =
    per_run (total st4) 200 (fun () ->
        ignore
          (Xen.Hypervisor.in_guest hv4 dom4 (fun () ->
               Xen.Domain.read m4 dom4 ~addr:0x3000 ~len:64)))
  in
  Printf.printf "  plain guest read (64B):      %8.1f cycles\n" plain;
  Printf.printf "  BMT-verified read (64B):     %8.1f cycles (%.1fx)\n" verified (verified /. plain);
  Printf.printf "  in exchange: Rowhammer and physical ciphertext replay become *detected*\n";
  Printf.printf "  (see examples/hardware_extensions.exe and test/test_extensions.ml)\n"

(* ---- serve sweep ------------------------------------------------------------------- *)

(* Simulated-time rows only: one open-loop run of [requests] requests per
   batch size. Returns the reports. *)
let serve_rows ?(requests = W.Serve.default_config.W.Serve.requests) ?(batches = [ 1; 2; 4; 8 ])
    () =
  Printf.printf "%6s %10s %10s %10s %10s %12s %10s\n" "batch" "req/s" "p50 us" "p90 us"
    "p99 us" "hypercalls" "blk-doorb";
  List.map
    (fun batch ->
      let r = W.Serve.run { W.Serve.batch; requests } in
      Printf.printf "%6d %10.0f %10.1f %10.1f %10.1f %12d %10d\n" r.W.Serve.batch
        r.W.Serve.rps r.W.Serve.p50_us r.W.Serve.p90_us r.W.Serve.p99_us
        r.W.Serve.hypercalls r.W.Serve.blk_notifications;
      r)
    batches
