(* Tests for the Fidelius core: installation invariants (the paper's
   Tables 1 and 2), PIT/GIT, gates, shadowing, policies, the protected VM
   life cycle, I/O protection, sharing and migration. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Hv = Xen.Hypervisor
module Domain = Xen.Domain
module Pit = Core.Pit
module Git = Core.Git_table
module Gate = Core.Gate
module Shadow = Core.Shadow
module Policy = Core.Policy
module Rng = Fidelius_crypto.Rng

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let page c = Bytes.make Hw.Addr.page_size c

let installed () =
  let m = Hw.Machine.create ~seed:61L () in
  let hv = Hv.boot m in
  let fid = Fid.install hv in
  (m, hv, fid)

let owner_image fid ?(pages = 3) () =
  let rng = Rng.create 62L in
  Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
    ~policy:Sev.Firmware.policy_nodbg
    ~kernel_pages:(List.init pages (fun i -> page (Char.chr (65 + i))))

let protected_vm ?(memory_pages = 16) (m, hv, fid) name =
  ignore m;
  ignore hv;
  let prepared = owner_image fid () in
  (ok (Fid.boot_protected_vm fid ~name ~memory_pages ~prepared), prepared)

(* --- installation invariants (Table 1 / Table 2) ---------------------------- *)

let test_table1_permissions () =
  let _, hv, fid = installed () in
  let host = hv.Hv.host_space in
  let perm_of pfn = Hw.Pagetable.lookup host pfn in
  (* Page tables (Xen): read-only. *)
  List.iter
    (fun pfn ->
      match perm_of pfn with
      | Some pte -> Alcotest.(check bool) "xen PT page read-only" false pte.Hw.Pagetable.writable
      | None -> Alcotest.fail "xen PT page should stay mapped (read-only)")
    (Hw.Pagetable.backing_frames host);
  (* Grant tables: read-only. *)
  List.iter
    (fun pfn ->
      match perm_of pfn with
      | Some pte -> Alcotest.(check bool) "grant table read-only" false pte.Hw.Pagetable.writable
      | None -> Alcotest.fail "grant table should stay mapped")
    (Xen.Granttab.backing_frames hv.Hv.granttab);
  (* PIT/GIT (Fidelius data): unmapped. *)
  List.iter
    (fun pfn -> Alcotest.(check bool) "PIT pages unmapped" true (perm_of pfn = None))
    (Pit.tree_frames fid.Core.Ctx.pit);
  List.iter
    (fun pfn -> Alcotest.(check bool) "GIT pages unmapped" true (perm_of pfn = None))
    (Git.backing_frames fid.Core.Ctx.git);
  (* Fidelius text: executable, not writable; VMRUN/CR3 pages unmapped. *)
  List.iter
    (fun pfn ->
      match perm_of pfn with
      | Some pte ->
          Alcotest.(check bool) "fid text executable" true pte.Hw.Pagetable.executable;
          Alcotest.(check bool) "fid text read-only" false pte.Hw.Pagetable.writable
      | None -> Alcotest.fail "fid text mapped")
    fid.Core.Ctx.fid_text;
  Alcotest.(check bool) "vmrun page unmapped" true (perm_of fid.Core.Ctx.vmrun_page = None);
  Alcotest.(check bool) "cr3 page unmapped" true (perm_of fid.Core.Ctx.cr3_page = None)

let test_table2_instructions () =
  let m, _, fid = installed () in
  let insns = m.Hw.Machine.insns in
  (* Every privileged op is monopolized after the binary scan. *)
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Hw.Insn.op_to_string op ^ " monopolized")
        true (Hw.Insn.monopolized insns op))
    Hw.Insn.all_ops;
  (* Type-2 ops live in Fidelius text; VMRUN/mov-CR3 on their own pages. *)
  let fid_page = List.hd fid.Core.Ctx.fid_text in
  List.iter
    (fun op ->
      Alcotest.(check (list int)) (Hw.Insn.op_to_string op ^ " in fid text") [ fid_page ]
        (Hw.Insn.instances insns op))
    [ Hw.Insn.Mov_cr0; Hw.Insn.Mov_cr4; Hw.Insn.Wrmsr; Hw.Insn.Lgdt; Hw.Insn.Lidt ];
  Alcotest.(check (list int)) "vmrun rehomed" [ fid.Core.Ctx.vmrun_page ]
    (Hw.Insn.instances insns Hw.Insn.Vmrun);
  Alcotest.(check (list int)) "mov-cr3 rehomed" [ fid.Core.Ctx.cr3_page ]
    (Hw.Insn.instances insns Hw.Insn.Mov_cr3)

let test_measurement_recorded () =
  let _, hv, fid = installed () in
  Alcotest.(check bool) "xen text measured" true
    (Bytes.equal fid.Core.Ctx.xen_measurement (Core.Iso.measure_xen_text hv));
  let report = Fid.attestation_report fid in
  Alcotest.(check bool) "report mentions measurement" true
    (String.length report > 64)

(* --- PIT ---------------------------------------------------------------------- *)

let pit_info_gen =
  QCheck.map
    (fun (o, u, asid, valid) ->
      let owner = match o mod 4 with 0 -> Pit.Nobody | 1 -> Pit.Xen | 2 -> Pit.Fidelius | _ -> Pit.Dom (o mod 100) in
      let usage =
        match u mod 10 with
        | 0 -> Pit.Free | 1 -> Pit.Xen_text | 2 -> Pit.Xen_data | 3 -> Pit.Xen_pt
        | 4 -> Pit.Guest_page | 5 -> Pit.Guest_npt | 6 -> Pit.Grant_table
        | 7 -> Pit.Fidelius_text | 8 -> Pit.Fidelius_data | _ -> Pit.Shared_io
      in
      { Pit.owner; usage; asid = asid mod 4096; valid })
    (QCheck.quad QCheck.small_nat QCheck.small_nat QCheck.small_nat QCheck.bool)

let test_pit_roundtrip =
  QCheck.Test.make ~name:"PIT set/get roundtrip" ~count:200
    (QCheck.pair (QCheck.int_bound 8000) pit_info_gen)
    (fun (pfn, info) ->
      let m = Hw.Machine.create ~nr_frames:64 ~seed:1L () in
      let pit = Pit.create m in
      Pit.set pit pfn info;
      Pit.get pit pfn = info)

let test_pit_default_free () =
  let m = Hw.Machine.create ~nr_frames:64 ~seed:1L () in
  let pit = Pit.create m in
  Alcotest.(check bool) "unrecorded frame is free" true (Pit.get pit 42 = Pit.free_info)

let test_pit_multiple_entries () =
  let m = Hw.Machine.create ~nr_frames:64 ~seed:1L () in
  let pit = Pit.create m in
  let info1 = { Pit.owner = Pit.Dom 1; usage = Pit.Guest_page; asid = 1; valid = true } in
  let info2 = { Pit.owner = Pit.Xen; usage = Pit.Xen_pt; asid = 0; valid = true } in
  Pit.set pit 10 info1;
  Pit.set pit 20 info2;
  Pit.set pit 2000 info2;
  Alcotest.(check bool) "entry 10" true (Pit.get pit 10 = info1);
  Alcotest.(check bool) "entry 2000" true (Pit.get pit 2000 = info2);
  (* count_usage scans physical frames, so only the in-range entry counts *)
  Alcotest.(check int) "usage count" 1 (Pit.count_usage pit Pit.Xen_pt)

let test_pit_radix_growth () =
  let m = Hw.Machine.create ~nr_frames:64 ~seed:1L () in
  let pit = Pit.create m in
  let before = List.length (Pit.tree_frames pit) in
  Pit.set pit 5000 { Pit.free_info with Pit.owner = Pit.Xen };
  Alcotest.(check bool) "radix grew" true (List.length (Pit.tree_frames pit) > before)

(* --- GIT ----------------------------------------------------------------------- *)

let git_env () =
  let m = Hw.Machine.create ~nr_frames:64 ~seed:2L () in
  Git.create m

let test_git_record_check () =
  let git = git_env () in
  ok (Git.record git { Git.initiator = 1; target = 2; gfn = 10; nr = 4; writable = false });
  Alcotest.(check bool) "covered gfn ok" true
    (Result.is_ok (Git.check git ~initiator:1 ~target:2 ~gfn:12 ~writable:false));
  Alcotest.(check bool) "outside range denied" true
    (Result.is_error (Git.check git ~initiator:1 ~target:2 ~gfn:14 ~writable:false));
  Alcotest.(check bool) "wrong target denied" true
    (Result.is_error (Git.check git ~initiator:1 ~target:3 ~gfn:10 ~writable:false));
  Alcotest.(check bool) "widening denied" true
    (Result.is_error (Git.check git ~initiator:1 ~target:2 ~gfn:10 ~writable:true))

let test_git_writable_intent () =
  let git = git_env () in
  ok (Git.record git { Git.initiator = 1; target = 2; gfn = 5; nr = 1; writable = true });
  Alcotest.(check bool) "writable ok" true
    (Result.is_ok (Git.check git ~initiator:1 ~target:2 ~gfn:5 ~writable:true));
  Alcotest.(check bool) "narrower read ok" true
    (Result.is_ok (Git.check git ~initiator:1 ~target:2 ~gfn:5 ~writable:false))

let test_git_revoke () =
  let git = git_env () in
  ok (Git.record git { Git.initiator = 1; target = 2; gfn = 5; nr = 1; writable = true });
  ok (Git.record git { Git.initiator = 1; target = 3; gfn = 9; nr = 1; writable = true });
  Git.revoke git ~initiator:1 ~gfn:5;
  Alcotest.(check bool) "revoked" true
    (Result.is_error (Git.check git ~initiator:1 ~target:2 ~gfn:5 ~writable:true));
  Alcotest.(check int) "other intent remains" 1 (List.length (Git.intents git));
  Git.revoke_domain git ~initiator:1;
  Alcotest.(check int) "domain revoked" 0 (List.length (Git.intents git))

let test_git_bad_nr () =
  let git = git_env () in
  Alcotest.(check bool) "nr 0 rejected" true
    (Result.is_error (Git.record git { Git.initiator = 1; target = 2; gfn = 5; nr = 0; writable = false }))

let test_git_property =
  QCheck.Test.make ~name:"GIT check covers exactly the declared range" ~count:100
    (QCheck.quad (QCheck.int_bound 100) (QCheck.int_bound 20) QCheck.small_nat QCheck.bool)
    (fun (gfn, nr, probe, writable) ->
      let nr = max 1 nr in
      let git = git_env () in
      (match Git.record git { Git.initiator = 1; target = 2; gfn; nr; writable } with
      | Ok () -> ()
      | Error _ -> QCheck.assume_fail ());
      let inside = probe >= gfn && probe < gfn + nr in
      Result.is_ok (Git.check git ~initiator:1 ~target:2 ~gfn:probe ~writable) = inside)

(* --- gates ------------------------------------------------------------------------ *)

let test_gate1_cost_and_wp () =
  let m, _, fid = installed () in
  let t0 = Hw.Cost.category m.Hw.Machine.ledger "gate1" in
  let saw_wp_open = ref false in
  ignore
    (ok
       (Gate.with_type1 fid (fun () ->
            saw_wp_open := not (Hw.Cpu.wp m.Hw.Machine.cpu);
            Ok ())));
  Alcotest.(check bool) "WP cleared inside" true !saw_wp_open;
  Alcotest.(check bool) "WP restored" true (Hw.Cpu.wp m.Hw.Machine.cpu);
  Alcotest.(check bool) "not in fidelius after" false (Hw.Cpu.in_fidelius m.Hw.Machine.cpu);
  Alcotest.(check int) "charged 306 cycles"
    (t0 + m.Hw.Machine.costs.Hw.Cost.gate1)
    (Hw.Cost.category m.Hw.Machine.ledger "gate1")

let test_gate1_restores_on_exception () =
  let m, _, fid = installed () in
  (try
     ignore (Gate.with_type1 fid (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "WP restored after raise" true (Hw.Cpu.wp m.Hw.Machine.cpu);
  Alcotest.(check bool) "fidelius flag cleared" false (Hw.Cpu.in_fidelius m.Hw.Machine.cpu)

let test_gate1_not_reentrant () =
  let _, _, fid = installed () in
  let inner_result = ref (Ok ()) in
  ignore
    (ok
       (Gate.with_type1 fid (fun () ->
            inner_result := Gate.with_type1 fid (fun () -> Ok ());
            Ok ())));
  Alcotest.(check bool) "nested gate rejected" true (Result.is_error !inner_result)

let test_gate3_mapping_window () =
  let m, hv, fid = installed () in
  let target = fid.Core.Ctx.vmrun_page in
  Alcotest.(check bool) "unmapped before" true
    (Hw.Pagetable.lookup hv.Hv.host_space target = None);
  ignore
    (ok
       (Gate.with_type3 fid ~pfns:[ target ] ~executable:true (fun () ->
            Alcotest.(check bool) "mapped inside" true
              (Hw.Mmu.exec_ok m hv.Hv.host_space target);
            Ok ())));
  Alcotest.(check bool) "withdrawn after" true
    (Hw.Pagetable.lookup hv.Hv.host_space target = None)

let test_gate_crossing_counts () =
  let _, hv, fid = installed () in
  let dom = Hv.create_domain hv ~name:"g" ~memory_pages:2 in
  let g1a, _, g3a = Gate.counts fid in
  ignore (ok (Hv.hypercall hv dom Xen.Hypercall.Void));
  let g1b, _, g3b = Gate.counts fid in
  Alcotest.(check bool) "vmrun used a type-3 gate" true (g3b > g3a);
  ignore (g1a, g1b)

(* --- shadow ------------------------------------------------------------------------- *)

let shadow_env () =
  let m = Hw.Machine.create ~nr_frames:128 ~seed:3L () in
  let backing = Hw.Machine.alloc_frame m in
  let s = Shadow.create ~backing in
  let vmcb = Hw.Vmcb.create () in
  Hw.Vmcb.set vmcb Hw.Vmcb.Rip 0x1000L;
  Hw.Vmcb.set vmcb Hw.Vmcb.Rsp 0x8000L;
  Hw.Vmcb.set vmcb Hw.Vmcb.Asid 3L;
  Hw.Vmcb.set vmcb Hw.Vmcb.Cr3 0x55L;
  (m, s, vmcb)

let test_shadow_mask_and_restore () =
  let m, s, vmcb = shadow_env () in
  Hw.Cpu.set_reg m.Hw.Machine.cpu Hw.Cpu.Rbx 0x42L;
  Shadow.capture s m vmcb Hw.Vmcb.Npf;
  Alcotest.(check int64) "rip masked" 0L (Hw.Vmcb.get vmcb Hw.Vmcb.Rip);
  Alcotest.(check int64) "rbx masked" 0L (Hw.Cpu.get_reg m.Hw.Machine.cpu Hw.Cpu.Rbx);
  Alcotest.(check int64) "control area visible" 3L (Hw.Vmcb.get vmcb Hw.Vmcb.Asid);
  ok (Shadow.verify_and_restore s m vmcb);
  Alcotest.(check int64) "rip restored" 0x1000L (Hw.Vmcb.get vmcb Hw.Vmcb.Rip);
  Alcotest.(check int64) "rbx restored" 0x42L (Hw.Cpu.get_reg m.Hw.Machine.cpu Hw.Cpu.Rbx)

let test_shadow_visible_fields_by_reason () =
  let m, s, vmcb = shadow_env () in
  Hw.Vmcb.set vmcb Hw.Vmcb.Rax 0x99L;
  Shadow.capture s m vmcb Hw.Vmcb.Vmmcall;
  Alcotest.(check int64) "rax visible for hypercall" 0x99L (Hw.Vmcb.get vmcb Hw.Vmcb.Rax);
  Alcotest.(check int64) "rsp hidden" 0L (Hw.Vmcb.get vmcb Hw.Vmcb.Rsp);
  ok (Shadow.verify_and_restore s m vmcb)

let test_shadow_allows_legit_updates () =
  let m, s, vmcb = shadow_env () in
  Shadow.capture s m vmcb Hw.Vmcb.Vmmcall;
  (* Hypervisor advances RIP and writes the return value: allowed. *)
  Hw.Vmcb.set vmcb Hw.Vmcb.Rip (Int64.add (Hw.Vmcb.get vmcb Hw.Vmcb.Rip) 3L);
  Hw.Vmcb.set vmcb Hw.Vmcb.Rax 0x77L;
  ok (Shadow.verify_and_restore s m vmcb);
  Alcotest.(check int64) "rax update stands" 0x77L (Hw.Vmcb.get vmcb Hw.Vmcb.Rax)

let test_shadow_detects_every_protected_field () =
  (* For every protected field and a non-updatable exit reason, tampering
     is detected. *)
  List.iter
    (fun field ->
      let m, s, vmcb = shadow_env () in
      Shadow.capture s m vmcb Hw.Vmcb.Npf;
      Hw.Vmcb.set vmcb field (Int64.add (Hw.Vmcb.get vmcb field) 0x1234L);
      match Shadow.verify_and_restore s m vmcb with
      | Error _ -> ()
      | Ok () ->
          Alcotest.fail
            (Printf.sprintf "tampering %s went undetected" (Hw.Vmcb.field_to_string field)))
    Shadow.protected_fields

let test_shadow_rejects_entry_without_capture () =
  let m, s, vmcb = shadow_env () in
  Alcotest.(check bool) "no capture, no entry" true
    (Result.is_error (Shadow.verify_and_restore s m vmcb))

let test_shadow_backing_unreadable_frame () =
  let m, s, vmcb = shadow_env () in
  Shadow.capture s m vmcb Hw.Vmcb.Hlt;
  (* The shadow really lives in its backing frame. *)
  let raw = Hw.Physmem.dump m.Hw.Machine.mem (Shadow.backing s) in
  Alcotest.(check int64) "rip snapshot in frame" 0x1000L (Bytes.get_int64_be raw 0);
  ok (Shadow.verify_and_restore s m vmcb)

(* The per-exit-reason exchange, written out here as the oracle: the
   save-area fields and the GPRs the hypervisor may hand back for each of
   the eight exit reasons. *)
let exchange =
  let open Hw.Vmcb in
  function
  | Cpuid -> ([ Rip; Rax ], Hw.Cpu.[ Rax; Rbx; Rcx; Rdx ])
  | Vmmcall | Ioio -> ([ Rip; Rax ], [ Hw.Cpu.Rax ])
  | Msr -> ([ Rip; Rax ], Hw.Cpu.[ Rax; Rdx ])
  | Hlt | Intr -> ([ Rip ], [])
  | Npf | Shutdown -> ([], [])

let all_reasons =
  Hw.Vmcb.[ Cpuid; Hlt; Vmmcall; Npf; Ioio; Msr; Intr; Shutdown ]

let base_value i = Int64.of_int (0x100 + i)
let hv_written = 0xBADL

(* Shadow keeps a hypervisor write to a GPR iff the exchange lists it,
   and admits a write to a protected field iff the exchange lists it;
   any other protected-field write refuses the re-entry. Every case
   starts from the same VMCB and registers. *)
let test_shadow_exchange_table () =
  let m, s, vmcb = shadow_env () in
  let cpu = m.Hw.Machine.cpu in
  let reset () =
    List.iteri (fun i f -> Hw.Vmcb.set vmcb f (base_value i)) Hw.Vmcb.fields;
    List.iteri (fun i r -> Hw.Cpu.set_reg cpu r (base_value (32 + i))) Hw.Cpu.regs
  in
  List.iter
    (fun reason ->
      let fields, regs = exchange reason in
      let case what = Hw.Vmcb.exit_reason_to_string reason ^ " " ^ what in
      List.iteri
        (fun i r ->
          reset ();
          Shadow.capture s m vmcb reason;
          Hw.Cpu.set_reg cpu r hv_written;
          ok (Shadow.verify_and_restore s m vmcb);
          Alcotest.(check int64) (case (Hw.Cpu.reg_to_string r))
            (if List.mem r regs then hv_written else base_value (32 + i))
            (Hw.Cpu.get_reg cpu r))
        Hw.Cpu.regs;
      List.iter
        (fun f ->
          reset ();
          Shadow.capture s m vmcb reason;
          Hw.Vmcb.set vmcb f hv_written;
          let name = case (Hw.Vmcb.field_to_string f) in
          match Shadow.verify_and_restore s m vmcb with
          | Ok () ->
              Alcotest.(check bool) (name ^ " admitted") true (List.mem f fields);
              Alcotest.(check int64) name hv_written (Hw.Vmcb.get vmcb f)
          | Error _ -> Alcotest.(check bool) (name ^ " refused") false (List.mem f fields))
        Shadow.protected_fields)
    all_reasons

(* An SEV-ES guest exposes exactly the exchange at each exit (every other
   save-area field and GPR reads as zero) and adopts exactly the
   exchange at re-entry. The VMCB carries RIP, RSP and RAX across the
   exit, so the guest's values for them come from the CPU. *)
let test_sev_es_exchange_table () =
  let m = Hw.Machine.create ~nr_frames:256 ~seed:3L () in
  let cpu = m.Hw.Machine.cpu in
  let hv = Hv.boot m in
  let dom = Hv.create_domain hv ~name:"es" ~memory_pages:4 in
  let vmcb = dom.Domain.vmcb in
  Hw.Vmcb.set vmcb Hw.Vmcb.Sev_enabled 1L;
  Hv.enable_sev_es hv dom;
  let field_base f = base_value (Hw.Vmcb.index f) in
  let exit_with reason =
    List.iteri (fun i r -> Hw.Cpu.set_reg cpu r (base_value (32 + i))) Hw.Cpu.regs;
    Hw.Cpu.set_reg cpu Hw.Cpu.Rax (field_base Hw.Vmcb.Rax);
    Hw.Cpu.set_reg cpu Hw.Cpu.Rsp (field_base Hw.Vmcb.Rsp);
    Hw.Cpu.set_rip cpu (field_base Hw.Vmcb.Rip);
    List.iter (fun f -> Hw.Vmcb.set vmcb f (field_base f)) Hw.Vmcb.save_area;
    Hv.vmexit hv dom reason ~info1:0L ~info2:0L
  in
  List.iter
    (fun reason ->
      let fields, regs = exchange reason in
      let case what = Hw.Vmcb.exit_reason_to_string reason ^ " " ^ what in
      exit_with reason;
      List.iter
        (fun f ->
          Alcotest.(check bool) (case (Hw.Vmcb.field_to_string f ^ " exposed"))
            (List.mem f fields)
            (not (Int64.equal (Hw.Vmcb.get vmcb f) 0L)))
        Hw.Vmcb.save_area;
      List.iter
        (fun r ->
          Alcotest.(check bool) (case (Hw.Cpu.reg_to_string r ^ " exposed"))
            (List.mem r regs)
            (not (Int64.equal (Hw.Cpu.get_reg cpu r) 0L)))
        Hw.Cpu.regs;
      ok (Hv.vmrun hv dom);
      List.iter
        (fun f ->
          exit_with reason;
          Hw.Vmcb.set vmcb f hv_written;
          ok (Hv.vmrun hv dom);
          Alcotest.(check int64) (case (Hw.Vmcb.field_to_string f ^ " adopted"))
            (if List.mem f fields then hv_written else field_base f)
            (Hw.Vmcb.get vmcb f))
        Hw.Vmcb.save_area;
      List.iteri
        (fun i r ->
          exit_with reason;
          Hw.Cpu.set_reg cpu r hv_written;
          ok (Hv.vmrun hv dom);
          let guest =
            match r with
            | Hw.Cpu.Rax -> field_base Hw.Vmcb.Rax
            | Hw.Cpu.Rsp -> field_base Hw.Vmcb.Rsp
            | _ -> base_value (32 + i)
          in
          Alcotest.(check int64) (case (Hw.Cpu.reg_to_string r ^ " adopted"))
            (if List.mem r regs then hv_written else guest)
            (Hw.Cpu.get_reg cpu r))
        Hw.Cpu.regs)
    all_reasons

(* --- policies ------------------------------------------------------------------------ *)

let test_policy_cr_bits () =
  let m, _, fid = installed () in
  Alcotest.(check bool) "PG clear denied" true
    (Result.is_error (Policy.check_cr0 fid 0x10000L));
  Alcotest.(check bool) "WP clear denied" true
    (Result.is_error (Policy.check_cr0 fid 0x80000000L));
  Alcotest.(check bool) "both set ok" true
    (Result.is_ok (Policy.check_cr0 fid 0x80010000L));
  Alcotest.(check bool) "SMEP clear denied" true (Result.is_error (Policy.check_cr4 fid 0L));
  Alcotest.(check bool) "NXE clear denied" true (Result.is_error (Policy.check_efer fid 0L));
  (* Inside the Fidelius context the same writes are allowed. *)
  Hw.Cpu.enter_fidelius m.Hw.Machine.cpu;
  Alcotest.(check bool) "fidelius may clear WP" true
    (Result.is_ok (Policy.check_cr0 fid 0x80000000L));
  Hw.Cpu.leave_fidelius m.Hw.Machine.cpu

let test_policy_cr3 () =
  let m, hv, fid = installed () in
  Alcotest.(check bool) "host space valid" true
    (Result.is_ok (Policy.check_cr3 fid (Int64.of_int (Hw.Pagetable.id hv.Hv.host_space))));
  let rogue = Hw.Machine.new_table m in
  Alcotest.(check bool) "rogue space invalid" true
    (Result.is_error (Policy.check_cr3 fid (Int64.of_int (Hw.Pagetable.id rogue))))

let test_policy_once () =
  let _, _, fid = installed () in
  let whole region = Policy.write_once_range fid ~region ~off:0 ~len:Hw.Addr.page_size in
  Alcotest.(check bool) "first write ok" true (Result.is_ok (whole "r1"));
  Alcotest.(check bool) "second denied" true (Result.is_error (whole "r1"));
  Alcotest.(check bool) "other region ok" true (Result.is_ok (whole "r2"));
  Alcotest.(check bool) "exec once" true (Result.is_ok (Policy.exec_once fid ~what:"lgdt"));
  Alcotest.(check bool) "exec twice denied" true (Result.is_error (Policy.exec_once fid ~what:"lgdt"))

let test_policy_audit_log () =
  let _, _, fid = installed () in
  let before = List.length (Fid.violations fid) in
  ignore (Policy.check_cr0 fid 0L);
  Alcotest.(check int) "denial audited" (before + 1) (List.length (Fid.violations fid))

let test_policy_wx () =
  let _, _, fid = installed () in
  Alcotest.(check bool) "W^X denied" true
    (Result.is_error
       (Policy.check_host_map_update fid 50
          (Some { Hw.Pagetable.frame = 50; writable = true; executable = true; c_bit = false })))

(* --- lifecycle ------------------------------------------------------------------------ *)

let test_protected_boot () =
  let (m, hv, fid) = installed () in
  let dom, prepared = protected_vm (m, hv, fid) "tenant" in
  Alcotest.(check bool) "protected" true (Fid.is_protected fid dom.Domain.domid);
  Alcotest.(check bool) "firmware RUNNING" true
    (match dom.Domain.sev_handle with
    | Some h -> Sev.Firmware.state_of hv.Hv.fw ~handle:h = Some Sev.State.Running
    | None -> false);
  (* Kernel pages decrypt for the guest. *)
  let b = Hv.in_guest hv dom (fun () -> Domain.read m dom ~addr:0x2000 ~len:4) in
  Alcotest.(check string) "page 2 content" "CCCC" (Bytes.to_string b);
  (* The owner's disk key is recoverable only from inside. *)
  Alcotest.(check bool) "kblk matches" true
    (Bytes.equal (Fid.kblk_of_guest fid dom) prepared.Sev.Transport.Owner.kblk);
  (* Guest frames are unmapped from the hypervisor. *)
  (match Hw.Pagetable.lookup dom.Domain.npt 0 with
  | Some npte ->
      Alcotest.(check bool) "frame revoked from host" true
        (Hw.Pagetable.lookup hv.Hv.host_space npte.Hw.Pagetable.frame = None)
  | None -> Alcotest.fail "gfn 0 unbacked")

let test_boot_tampered_image_fails () =
  let (_, hv, fid) = installed () in
  let prepared = owner_image fid () in
  let tampered_pages =
    List.map
      (fun (i, c) ->
        let c = Bytes.copy c in
        if i = 1 then Bytes.set c 0 (Char.chr (Char.code (Bytes.get c 0) lxor 1));
        (i, c))
      prepared.Sev.Transport.Owner.image.Sev.Transport.pages
  in
  let prepared =
    { prepared with
      Sev.Transport.Owner.image =
        { prepared.Sev.Transport.Owner.image with Sev.Transport.pages = tampered_pages } }
  in
  let doms_before = List.length hv.Hv.domains in
  Alcotest.(check bool) "tampered image rejected" true
    (Result.is_error (Fid.boot_protected_vm fid ~name:"evil" ~memory_pages:8 ~prepared));
  Alcotest.(check int) "rollback removed the domain" doms_before (List.length hv.Hv.domains)

let test_nosend_policy () =
  (* A guest whose owner set NOSEND cannot be exported at all. *)
  let _, hv, fid = installed () in
  let rng = Rng.create 64L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:(Sev.Firmware.policy_nodbg lor Sev.Firmware.policy_nosend)
      ~kernel_pages:[ page 'N' ]
  in
  let dom = ok (Fid.boot_protected_vm fid ~name:"sealed" ~memory_pages:8 ~prepared) in
  let handle = Option.get dom.Domain.sev_handle in
  Alcotest.(check bool) "SEND refused" true
    (Result.is_error
       (Sev.Firmware.send_start hv.Hv.fw ~handle
          ~target_public:(Fid.platform_key fid) ~nonce:1L));
  let m2 = Hw.Machine.create ~seed:72L () in
  let fid2 = Fid.install (Hv.boot m2) in
  Alcotest.(check bool) "migration refused" true
    (Result.is_error (Core.Migrate.migrate_live ~src:fid ~dst:fid2 dom))

let test_boot_wrong_platform_fails () =
  let (_, _, fid) = installed () in
  let rng = Rng.create 63L in
  let other_secret, other_public = Fidelius_crypto.Dh.generate rng in
  ignore other_secret;
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:other_public ~policy:1
      ~kernel_pages:[ page 'Z' ]
  in
  Alcotest.(check bool) "image for another platform rejected" true
    (Result.is_error (Fid.boot_protected_vm fid ~name:"misdirected" ~memory_pages:8 ~prepared))

let test_hypercall_roundtrip_protected () =
  let env = installed () in
  let _, hv, _ = env in
  let dom, _ = protected_vm env "tenant" in
  Alcotest.(check int64) "void ok" 0L (ok (Hv.hypercall hv dom Xen.Hypercall.Void));
  ignore (ok (Hv.hypercall hv dom (Xen.Hypercall.Console_write "from protected guest")));
  Alcotest.(check string) "console" "from protected guest" (Hv.console hv dom.Domain.domid)

let test_cpuid_under_masking () =
  (* The CPUID flow works through Fidelius' shadowing: the leaf register is
     visible, the four results are the updatable set, and every other
     register comes back from the shadow. *)
  let ((m, hv, _) as env) = installed () in
  let dom, _ = protected_vm env "cpuid" in
  let cpu = m.Hw.Machine.cpu in
  Hw.Cpu.set_reg cpu Hw.Cpu.R12 0xFEEDL;
  (match Hv.cpuid hv dom ~leaf:0x8000001F with
  | Ok (a, _, _, _) -> Alcotest.(check int64) "SEV leaf under Fidelius" 3L a
  | Error e -> Alcotest.fail e);
  Alcotest.(check int64) "bystander register restored" 0xFEEDL
    (Hw.Cpu.get_reg cpu Hw.Cpu.R12)

let test_msr_under_masking () =
  let ((_, hv, _) as env) = installed () in
  let dom, _ = protected_vm env "msr" in
  ok (Hv.wrmsr_guest hv dom ~msr:0x20 42L);
  Alcotest.(check int64) "msr roundtrip under Fidelius" 42L (ok (Hv.rdmsr hv dom ~msr:0x20))

let test_shutdown_cleans_up () =
  let ((m, hv, fid) as env) = installed () in
  let dom, _ = protected_vm env "tenant" in
  let handle = Option.get dom.Domain.sev_handle in
  let frames = dom.Domain.frames in
  Fid.shutdown_protected_vm fid dom;
  Alcotest.(check bool) "decommissioned" true
    (Sev.Firmware.state_of hv.Hv.fw ~handle = Some Sev.State.Decommissioned);
  Alcotest.(check bool) "no longer protected" false (Fid.is_protected fid dom.Domain.domid);
  (* Frames scrubbed, PIT reset, direct map restored. *)
  List.iter
    (fun pfn ->
      Alcotest.(check bool) "PIT freed" true ((Pit.get fid.Core.Ctx.pit pfn).Pit.usage = Pit.Free);
      Alcotest.(check bool) "host mapping restored" true
        (Hw.Pagetable.lookup hv.Hv.host_space pfn <> None);
      Alcotest.(check string) "scrubbed" "\000\000"
        (Bytes.to_string (Hw.Physmem.read_raw m.Hw.Machine.mem pfn ~off:0 ~len:2)))
    frames

let test_write_start_info_once () =
  let env = installed () in
  let _, _, fid = env in
  let dom, _ = protected_vm env "tenant" in
  Alcotest.(check bool) "first write ok" true
    (Result.is_ok (Core.Lifecycle.write_start_info fid dom (Bytes.of_string "start info")));
  (* Byte-granular bit-vector (paper 5.3): a disjoint range is fine, any
     overlap is denied. *)
  Alcotest.(check bool) "disjoint range ok" true
    (Result.is_ok (Core.Lifecycle.write_start_info ~off:100 fid dom (Bytes.of_string "more fields")));
  Alcotest.(check bool) "overlapping rewrite denied" true
    (Result.is_error (Core.Lifecycle.write_start_info ~off:4 fid dom (Bytes.of_string "again")));
  Alcotest.(check bool) "exact rewrite denied" true
    (Result.is_error (Core.Lifecycle.write_start_info fid dom (Bytes.of_string "start info")));
  Alcotest.(check bool) "out of page denied" true
    (Result.is_error (Core.Lifecycle.write_start_info ~off:4090 fid dom (Bytes.of_string "overflowing")))

(* A hypervisor-chosen [off] near [max_int] wrapped the policy's
   [off + len] check: nothing was recorded, the boot window opened, the
   frame was mapped writable and the write raised out of the call with
   both left behind. The policy must refuse the range, and nothing of the
   window may outlive the call. *)
let test_write_start_info_wrapping_off () =
  let env = installed () in
  let _, hv, fid = env in
  let dom, _ = protected_vm env "tenant" in
  let frame gfn =
    match Hw.Pagetable.lookup dom.Domain.npt gfn with
    | Some npte -> npte.Hw.Pagetable.frame
    | None -> Alcotest.fail "gfn unbacked"
  in
  let audits = List.length (Fid.violations fid) in
  (* 32 bytes at [max_int - 10]: the sum wraps to [min_int + 21]. *)
  Alcotest.(check bool) "wrapping range refused" true
    (Result.is_error (Core.Lifecycle.write_start_info ~off:(max_int - 10) fid dom (Bytes.make 32 's')));
  Alcotest.(check int) "one audit entry" (audits + 1) (List.length (Fid.violations fid));
  Alcotest.(check bool) "boot window closed" true (fid.Core.Ctx.boot_window = None);
  Alcotest.(check bool) "start_info frame unmapped" true
    (Hw.Pagetable.lookup hv.Hv.host_space (frame 0) = None);
  let f3 = frame 3 in
  Alcotest.(check bool) "later writable map of a guest frame denied" true
    (Result.is_error
       (hv.Hv.med.Hv.host_map_update f3
          (Some { Hw.Pagetable.frame = f3; writable = true; executable = false; c_bit = false })))

(* A 24-page guest booted next to a running 8-page one, its image page 1
   stretched to 8 KiB by the relaying hypervisor. The load wrote past the
   one frame it had mapped and raised out of the boot, leaving the boot
   window open and the partial domain behind. The page is refused before
   anything is mapped, and the session rolls back. *)
let test_overlong_image_page () =
  let m = Hw.Machine.create ~seed:41L () in
  let hv = Hv.boot m in
  let fid = Fid.install hv in
  let prepare kernel_pages =
    Sev.Transport.Owner.prepare ~rng:(Rng.create 9L) ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg ~kernel_pages
  in
  ignore
    (ok (Fid.boot_protected_vm fid ~name:"first" ~memory_pages:8 ~prepared:(prepare [ page 'A' ])));
  let prepared = prepare [ page 'A'; page 'B'; page 'C' ] in
  let image = prepared.Sev.Transport.Owner.image in
  let pages =
    List.map (fun (i, c) -> (i, if i = 1 then Bytes.cat c c else c)) image.Sev.Transport.pages
  in
  let prepared = { prepared with Sev.Transport.Owner.image = { image with Sev.Transport.pages } } in
  let domids () = List.map (fun d -> d.Domain.domid) hv.Hv.domains in
  let domains = domids () and protected_domids = fid.Core.Ctx.protected_domids in
  (match Core.Lifecycle.boot_protected_vm fid ~name:"stretched" ~memory_pages:24 ~prepared with
  | Error (Core.Lifecycle.Failed _) -> ()
  | Error (Core.Lifecycle.Rejected e) -> Alcotest.fail ("refused as a verdict: " ^ e)
  | Ok _ -> Alcotest.fail "an over-long image page was loaded"
  | exception e -> Alcotest.fail ("raised " ^ Printexc.to_string e));
  Alcotest.(check bool) "boot window closed" true (fid.Core.Ctx.boot_window = None);
  Alcotest.(check (list int)) "domain gone" domains (domids ());
  Alcotest.(check (list int)) "protected marks" protected_domids fid.Core.Ctx.protected_domids

(* The SEV-API I/O helpers share the guest's Kvek: DECOMMISSION of the
   guest retires them in the same command, so neither outlives the guest
   holding its key. It charges nothing extra: the shutdown's cycles are
   the ones pinned before the helpers were retired. *)
let test_shutdown_retires_io_helpers () =
  let m = Hw.Machine.create ~seed:41L () in
  let hv = Hv.boot m in
  let fid = Fid.install hv in
  let prepared =
    Sev.Transport.Owner.prepare ~rng:(Rng.create 9L) ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:[ page 'A' ]
  in
  let dom = ok (Fid.boot_protected_vm fid ~name:"io" ~memory_pages:24 ~prepared) in
  let io = ok (Fid.setup_sev_io fid dom ~md_gvfn:300) in
  let s_handle, r_handle = Core.Io_protect.helper_handles io in
  let pfn = List.hd dom.Domain.frames in
  let before = Hw.Cost.total m.Hw.Machine.ledger in
  Fid.shutdown_protected_vm fid dom;
  Alcotest.(check int) "shutdown cycles" 37850 (Hw.Cost.total m.Hw.Machine.ledger - before);
  let fw = hv.Hv.fw in
  List.iter
    (fun (name, handle) ->
      Alcotest.(check bool) (name ^ " decommissioned") true
        (Sev.Firmware.state_of fw ~handle = Some Sev.State.Decommissioned);
      Alcotest.(check bool) (name ^ ": SEND_UPDATE(io) refused") true
        (Result.is_error (Sev.Firmware.send_update_io fw ~handle ~nonce:1L ~src_pfn:pfn ~len:16));
      Alcotest.(check bool) (name ^ ": RECEIVE_UPDATE(io) refused") true
        (Result.is_error
           (Sev.Firmware.receive_update_io fw ~handle ~nonce:1L ~cipher:(Bytes.make 16 'c')
              ~dst_pfn:pfn)))
    [ ("s-dom", s_handle); ("r-dom", r_handle) ]

(* A refused receive runs the shutdown's teardown: no shadow, no protected
   mark and no GIT intent outlive it, and the ledger is the one pinned
   before the two teardowns were merged. The intent stands in for one the
   domain declared. *)
let test_refused_receive_tears_down () =
  let m, _, fid = installed () in
  let prepared = owner_image fid () in
  let image = prepared.Sev.Transport.Owner.image in
  let s =
    match
      Core.Lifecycle.receive_begin fid ~name:"refused" ~memory_pages:16
        ~wrapped_keys:prepared.Sev.Transport.Owner.wrapped_keys
        ~origin_public:prepared.Sev.Transport.Owner.owner_public
        ~nonce:image.Sev.Transport.nonce ~policy:image.Sev.Transport.policy
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Core.Lifecycle.boot_error_to_string e)
  in
  let domid = (Core.Lifecycle.session_domain s).Domain.domid in
  ok (Git.record fid.Core.Ctx.git
        { Git.initiator = domid; target = 0; gfn = 3; nr = 1; writable = false });
  Alcotest.(check bool) "shadow while receiving" true (Hashtbl.mem fid.Core.Ctx.shadows domid);
  (match
     Core.Lifecycle.receive_pages s
       (List.map (fun (i, c) -> (i, i, c)) image.Sev.Transport.pages)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Core.Lifecycle.boot_error_to_string e));
  (match Core.Lifecycle.receive_complete s ~expected:(Bytes.make 32 'x') with
  | Error (Core.Lifecycle.Rejected _) -> ()
  | _ -> Alcotest.fail "a wrong measurement was not rejected");
  Alcotest.(check bool) "no shadow entry" false (Hashtbl.mem fid.Core.Ctx.shadows domid);
  Alcotest.(check bool) "not protected" false (Fid.is_protected fid domid);
  Alcotest.(check bool) "no GIT intent" false
    (List.exists (fun i -> i.Git.initiator = domid) (Git.intents fid.Core.Ctx.git));
  Alcotest.(check int) "ledger" 1407520 (Hw.Cost.total m.Hw.Machine.ledger)

(* A receive refused before ACTIVATE must retire its RECEIVE_START
   context: the domain never held the handle, so destroying the domain
   alone would leave the context live in the firmware. *)
let test_refused_receives_retire_contexts () =
  let _, hv, fid = installed () in
  let prepared = owner_image fid () in
  let image = prepared.Sev.Transport.Owner.image in
  let tampered =
    { prepared with
      Sev.Transport.Owner.image = { image with Sev.Transport.measurement = Bytes.make 32 'x' } }
  in
  for i = 1 to 3 do
    match Fid.boot_protected_vm fid ~name:(Printf.sprintf "tampered%d" i) ~memory_pages:16
            ~prepared:tampered with
    | Ok _ -> Alcotest.fail "a tampered measurement booted"
    | Error _ -> ()
  done;
  let receiving =
    List.filter
      (fun handle -> Sev.Firmware.state_of hv.Hv.fw ~handle = Some Sev.State.Receiving)
      (List.init 64 Fun.id)
  in
  Alcotest.(check (list int)) "no RECEIVING context left" [] receiving

(* --- io protection ---------------------------------------------------------------------- *)

let test_aesni_codec_roundtrip () =
  let ((m, hv, fid) as env) = installed () in
  ignore m;
  let dom, prepared = protected_vm env "io" in
  let kblk = prepared.Sev.Transport.Owner.kblk in
  let plain = Bytes.init (8 * 512) (fun i -> Char.chr (i land 0xff)) in
  let disk = Xen.Vdisk.of_bytes (Core.Io_protect.encrypt_disk ~kblk plain) in
  let fe, _ = ok (Xen.Blkif.connect hv dom ~disk ~buffer_gvfn:200) in
  Xen.Blkif.set_codec fe (Fid.aesni_codec fid ~kblk);
  let got = ok (Xen.Blkif.read_sectors fe ~sector:0 ~count:8) in
  Alcotest.(check bool) "owner-encrypted disk mounts" true (Bytes.equal got plain);
  ok (Xen.Blkif.write_sectors fe ~sector:2 (Bytes.make 512 'W'));
  Alcotest.(check bool) "platter stays ciphertext" false
    (Bytes.for_all (fun c -> c = 'W') (Xen.Vdisk.peek disk ~sector:2 ~count:1));
  let back = ok (Xen.Blkif.read_sectors fe ~sector:2 ~count:1) in
  Alcotest.(check bool) "written data reads back" true (Bytes.for_all (fun c -> c = 'W') back)

let test_disk_encrypt_helpers () =
  let kblk = Bytes.make 16 'd' in
  let data = Bytes.of_string "some disk image content" in
  let enc = Core.Io_protect.encrypt_disk ~kblk data in
  let dec = Core.Io_protect.decrypt_disk ~kblk enc in
  Alcotest.(check string) "roundtrip (padded)" "some disk image content"
    (Bytes.to_string (Bytes.sub dec 0 (Bytes.length data)));
  Alcotest.(check int) "padded to sectors" 512 (Bytes.length enc)

let test_sev_codec_roundtrip () =
  let ((_, hv, fid) as env) = installed () in
  let dom, _ = protected_vm env "sevio" in
  let io = ok (Fid.setup_sev_io fid dom ~md_gvfn:300) in
  let s_handle, r_handle = Core.Io_protect.helper_handles io in
  Alcotest.(check bool) "s-dom SENDING" true
    (Sev.Firmware.state_of hv.Hv.fw ~handle:s_handle = Some Sev.State.Sending);
  Alcotest.(check bool) "r-dom RECEIVING" true
    (Sev.Firmware.state_of hv.Hv.fw ~handle:r_handle = Some Sev.State.Receiving);
  let disk = Xen.Vdisk.create ~nr_sectors:32 in
  let fe, _ = ok (Xen.Blkif.connect hv dom ~disk ~buffer_gvfn:301) in
  Xen.Blkif.set_codec fe (Fid.sev_codec io);
  ok (Xen.Blkif.write_sectors fe ~sector:4 (Bytes.make 1024 'S'));
  Alcotest.(check bool) "platter ciphertext" false
    (Bytes.for_all (fun c -> c = 'S') (Xen.Vdisk.peek disk ~sector:4 ~count:1));
  let got = ok (Xen.Blkif.read_sectors fe ~sector:4 ~count:2) in
  Alcotest.(check bool) "roundtrip" true (Bytes.for_all (fun c -> c = 'S') got)

let test_software_codec_roundtrip () =
  (* The ablation baseline: same transformation as AES-NI, charged at the
     software rate. *)
  let ((m, hv, fid) as env) = installed () in
  ignore m;
  let dom, prepared = protected_vm env "sw-io" in
  let kblk = prepared.Sev.Transport.Owner.kblk in
  let disk = Xen.Vdisk.create ~nr_sectors:16 in
  let fe, _ = ok (Xen.Blkif.connect hv dom ~disk ~buffer_gvfn:210) in
  Xen.Blkif.set_codec fe (Core.Io_protect.software_codec fid ~kblk);
  ok (Xen.Blkif.write_sectors fe ~sector:1 (Bytes.make 512 's'));
  let before = Hw.Cost.category hv.Hv.machine.Hw.Machine.ledger "io-encode-sw" in
  let b = ok (Xen.Blkif.read_sectors fe ~sector:1 ~count:1) in
  Alcotest.(check bool) "roundtrip" true (Bytes.for_all (fun c -> c = 's') b);
  Alcotest.(check bool) "charged at the software rate" true
    (Hw.Cost.category hv.Hv.machine.Hw.Machine.ledger "io-encode-sw" > before);
  (* Software and AES-NI codecs interoperate: same Kblk scheme on disk. *)
  Xen.Blkif.set_codec fe (Fid.aesni_codec fid ~kblk);
  let b2 = ok (Xen.Blkif.read_sectors fe ~sector:1 ~count:1) in
  Alcotest.(check bool) "codecs interoperate" true (Bytes.for_all (fun c -> c = 's') b2)

(* Golden pins captured on the pre-batching synchronous implementation with
   the AES-NI codec on a protected guest: the span-granular codec (one bulk
   XEX call per batch of sectors) must reproduce the per-sector path's
   cycles, categories and ciphertext exactly at batch size 1. *)
let test_aesni_codec_batch1_golden () =
  let pattern n = Bytes.init n (fun i -> Char.chr (((i * 7) + 13) land 0xff)) in
  let hex b =
    String.concat ""
      (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (Bytes.length b) (Bytes.get b))))
  in
  let m = Hw.Machine.create ~seed:31L () in
  let hv = Hv.boot m in
  let fid = Fid.install hv in
  let rng = Rng.create 8L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  let dom = ok (Fid.boot_protected_vm fid ~name:"io-guest" ~memory_pages:24 ~prepared) in
  let kblk = Fid.kblk_of_guest fid dom in
  let disk = Xen.Vdisk.of_bytes (Core.Io_protect.encrypt_disk ~kblk (pattern (32 * 512))) in
  let fe, _ = ok (Xen.Blkif.connect hv dom ~disk ~buffer_gvfn:200) in
  Xen.Blkif.set_codec fe (Fid.aesni_codec fid ~kblk);
  let ledger = m.Hw.Machine.ledger in
  Alcotest.(check int) "setup cycles unchanged" 1259697 (Hw.Cost.total ledger);
  ok (Xen.Blkif.write_sectors fe ~sector:10 (pattern (8 * 512)));
  Alcotest.(check int) "write cycles unchanged" 1470754 (Hw.Cost.total ledger);
  Alcotest.(check int) "write codec charge unchanged" 29440
    (Hw.Cost.category ledger "io-encode-aesni");
  let rd = ok (Xen.Blkif.read_sectors fe ~sector:4 ~count:16) in
  Alcotest.(check int) "read cycles unchanged" 1892716 (Hw.Cost.total ledger);
  Alcotest.(check int) "read codec charge unchanged" 88320
    (Hw.Cost.category ledger "io-encode-aesni");
  Alcotest.(check string) "platter ciphertext unchanged"
    "336192fb6fd612bb00e8788c2f83ce93d814b1c816654d95a2734f515709b0b5"
    (hex (Fidelius_crypto.Sha256.digest (Xen.Vdisk.peek disk ~sector:0 ~count:32)));
  Alcotest.(check string) "decoded read-back unchanged"
    "6738eee8048c39a92b801d999b4c1811fdf07f1c64925fe360d752715675ccab"
    (hex (Fidelius_crypto.Sha256.digest rd))

(* --- the block path moves each frame once ------------------------------------ *)

(* A protected guest with the AES-NI codec on an 8-frame queue, after one
   8-frame write of [data] at sector 16. *)
let aesni_blk_env () =
  let ((m, hv, fid) as env) = installed () in
  let dom, prepared = protected_vm env "blk" in
  let kblk = prepared.Sev.Transport.Owner.kblk in
  let disk = Xen.Vdisk.create ~nr_sectors:128 in
  let fe, _ = ok (Xen.Blkif.connect ~buffer_pages:8 hv dom ~disk ~buffer_gvfn:200) in
  Xen.Blkif.set_codec fe (Fid.aesni_codec fid ~kblk);
  let data = Bytes.init (64 * 512) (fun i -> Char.chr (((i * 7) + 13) land 0xff)) in
  ok (Xen.Blkif.write_sectors ~batch:8 fe ~sector:16 data);
  (m, hv, dom, fe, data)

(* Words one steady-state call allocates directly in the major heap, where
   every page-sized buffer goes: [major - promoted] from [Gc.counters], as
   test_sev's page-buffer pins count ([Gc.quick_stat] lags on OCaml 5). *)
let direct_major_words f =
  f ();
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  Float.to_int (major1 -. major0 -. (promoted1 -. promoted0))

(* Recorded at the parent of the in-place change: 12,336 words for the
   write (24 pages) and 16,434 for the read (24 pages and the result). *)
let test_block_path_page_buffers () =
  let _, _, _, fe, data = aesni_blk_env () in
  Alcotest.(check int) "8-frame write_sectors: none" 0
    (direct_major_words (fun () -> ok (Xen.Blkif.write_sectors ~batch:8 fe ~sector:16 data)));
  (* 32 KiB of payload is 4,096 words, plus the header and padding words. *)
  Alcotest.(check int) "8-frame read_sectors: the result only" 4098
    (direct_major_words (fun () ->
         ignore (ok (Xen.Blkif.read_sectors ~batch:8 fe ~sector:16 ~count:64))))

(* Pins recorded at the parent of the in-place change: what crosses the 8
   shared frames, and the ledger once the guest has read them back. *)
let test_aesni_shared_frames_pinned () =
  let m, hv, dom, _, _ = aesni_blk_env () in
  let shared =
    Hv.in_guest hv dom (fun () ->
        Domain.read m dom ~addr:(Hw.Addr.addr_of 200 0) ~len:(8 * Hw.Addr.page_size))
  in
  Alcotest.(check string) "shared-frame ciphertext" "99d7bac9730fc7b56d48410a15ff4961"
    (Digest.to_hex (Digest.bytes shared));
  Alcotest.(check int) "ledger" 3777599 (Hw.Cost.total m.Hw.Machine.ledger)

(* Every codec through the in-place frame buffer: 12 sectors are a full
   frame plus a 4-sector chunk, which takes the exact-length buffer; the
   5-sector read from an odd sector takes it on the way back. *)
let test_five_codecs_roundtrip () =
  let ((_, hv, fid) as env) = installed () in
  let dom, prepared = protected_vm env "codecs" in
  let kblk = prepared.Sev.Transport.Owner.kblk in
  let disk = Xen.Vdisk.create ~nr_sectors:80 in
  let fe, _ = ok (Xen.Blkif.connect ~buffer_pages:2 hv dom ~disk ~buffer_gvfn:200) in
  let sev = ok (Fid.setup_sev_io fid dom ~md_gvfn:300) in
  let gek = ok (Fid.setup_gek_io fid dom ~md_gvfn:310) in
  List.iteri
    (fun i codec ->
      let name = codec.Xen.Blkif.codec_name in
      Xen.Blkif.set_codec fe codec;
      let sector = i * 16 in
      let data = Bytes.init (12 * 512) (fun j -> Char.chr (((j * 13) + i) land 0xff)) in
      ok (Xen.Blkif.write_sectors ~batch:2 fe ~sector data);
      Alcotest.(check bool) (name ^ ": plaintext on the platter") (i = 0)
        (Bytes.equal (Xen.Vdisk.peek disk ~sector ~count:12) data);
      Alcotest.(check bool) (name ^ ": read back") true
        (Bytes.equal (ok (Xen.Blkif.read_sectors ~batch:2 fe ~sector ~count:12)) data);
      Alcotest.(check bool) (name ^ ": short read") true
        (Bytes.equal
           (ok (Xen.Blkif.read_sectors fe ~sector:(sector + 3) ~count:5))
           (Bytes.sub data (3 * 512) (5 * 512))))
    [ Xen.Blkif.identity_codec;
      Fid.aesni_codec fid ~kblk;
      Core.Io_protect.software_codec fid ~kblk;
      Fid.sev_codec sev;
      Fid.gek_codec gek ]

(* The two firmware codecs share one staged body. Pinned before the
   merge, for each: the ledger of a fixed write and read, its charge
   label, the firmware total and the platter. The deterministic RNG hands
   Ktek and the GEK the same bytes, so the platters match; only set-up
   differs (LAUNCH(shared), SEND_START and RECEIVE_START against one
   SETENC_GEK). *)
let test_firmware_codec_pins () =
  List.iter
    (fun (name, label, fw_total) ->
      let m = Hw.Machine.create ~seed:41L () in
      let hv = Hv.boot m in
      let fid = Fid.install hv in
      let prepared =
        Sev.Transport.Owner.prepare ~rng:(Rng.create 9L) ~platform_public:(Fid.platform_key fid)
          ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:[ page 'A' ]
      in
      let dom = ok (Fid.boot_protected_vm fid ~name:"io" ~memory_pages:24 ~prepared) in
      let disk = Xen.Vdisk.create ~nr_sectors:64 in
      let fe, _ = ok (Xen.Blkif.connect ~buffer_pages:2 hv dom ~disk ~buffer_gvfn:200) in
      Xen.Blkif.set_codec fe
        (if name = "sev-api" then Fid.sev_codec (ok (Fid.setup_sev_io fid dom ~md_gvfn:300))
         else Fid.gek_codec (ok (Fid.setup_gek_io fid dom ~md_gvfn:310)));
      let ledger = m.Hw.Machine.ledger in
      let data = Bytes.init (12 * 512) (fun j -> Char.chr (((j * 13) + 5) land 0xff)) in
      let t0 = Hw.Cost.total ledger and c0 = Hw.Cost.category ledger label in
      ok (Xen.Blkif.write_sectors ~batch:2 fe ~sector:8 data);
      let t1 = Hw.Cost.total ledger in
      let back = ok (Xen.Blkif.read_sectors ~batch:2 fe ~sector:8 ~count:12) in
      let t2 = Hw.Cost.total ledger in
      Alcotest.(check bool) (name ^ ": read back") true (Bytes.equal back data);
      Alcotest.(check int) (name ^ ": write cycles") 1025701 (t1 - t0);
      Alcotest.(check int) (name ^ ": read cycles") 1639949 (t2 - t1);
      Alcotest.(check int) (name ^ ": " ^ label) 66816 (Hw.Cost.category ledger label - c0);
      Alcotest.(check int) (name ^ ": sev-fw") fw_total (Hw.Cost.category ledger "sev-fw");
      Alcotest.(check string) (name ^ ": platter") "30c60c5ab1e360a1d44b63477b765a2f"
        (Digest.to_hex (Digest.bytes (Xen.Vdisk.peek disk ~sector:0 ~count:64))))
    [ ("sev-api", "io-encode-sev", 97500); ("gek", "io-encode-gek", 87500) ]

(* DECOMMISSION drops the guest's GEKs with its Kvek: a long-lived host
   must not keep one for every guest it has ever run. Another guest's GEK
   stays. *)
let test_shutdown_drops_geks () =
  let ((_, hv, fid) as env) = installed () in
  let fw = hv.Hv.fw in
  let dom, _ = protected_vm env "gek" in
  let other, _ = protected_vm env "other" in
  Alcotest.(check int) "no GEK before set-up" 0 (Sev.Firmware.geks_held fw);
  ignore (ok (Fid.setup_gek_io fid dom ~md_gvfn:310));
  Alcotest.(check int) "setup_gek_io holds one GEK" 1 (Sev.Firmware.geks_held fw);
  ignore (ok (Fid.setup_gek_io fid other ~md_gvfn:310));
  Fid.shutdown_protected_vm fid dom;
  Alcotest.(check int) "shutdown drops the guest's GEK" 1 (Sev.Firmware.geks_held fw);
  Fid.shutdown_protected_vm fid other;
  Alcotest.(check int) "and the other guest's with its own" 0 (Sev.Firmware.geks_held fw)

let test_sev_io_needs_protection () =
  let _, hv, fid = installed () in
  let plain_dom = Hv.create_domain hv ~name:"plain" ~memory_pages:4 in
  Alcotest.(check bool) "unprotected domain refused" true
    (Result.is_error (Fid.setup_sev_io fid plain_dom ~md_gvfn:10))

(* --- sharing ------------------------------------------------------------------------------ *)

let test_sharing_flow () =
  let ((m, hv, fid) as env) = installed () in
  ignore hv;
  let a, _ = protected_vm env "alice" in
  let b, _ = protected_vm env "bob" in
  let before = Hw.Cost.total m.Hw.Machine.ledger in
  let sh = ok (Fid.share fid ~owner:a ~peer:b ~owner_gvfn:40 ~peer_gvfn:41 ~writable:true) in
  (* Recorded when share still had a body of its own, before it became
     share_range ~nr:1. *)
  Alcotest.(check int) "one share's cycles" 55_852 (Hw.Cost.total m.Hw.Machine.ledger - before);
  Core.Sharing.owner_write fid a sh ~off:0 (Bytes.of_string "hi bob");
  Alcotest.(check string) "peer reads" "hi bob"
    (Bytes.to_string (Core.Sharing.peer_read fid b sh ~off:0 ~len:6));
  Core.Sharing.peer_write fid b sh ~off:100 (Bytes.of_string "hi alice");
  Alcotest.(check string) "owner reads reply" "hi alice"
    (Bytes.to_string (Core.Sharing.peer_read fid b sh ~off:100 ~len:8));
  ok (Fid.unshare fid ~owner:a sh);
  Alcotest.(check bool) "GIT intent revoked" true
    (Result.is_error
       (Git.check fid.Core.Ctx.git ~initiator:a.Domain.domid ~target:b.Domain.domid
          ~gfn:sh.Core.Sharing.owner_gfn ~writable:true));
  (* The peer's nested mapping died with the grant: a further access
     demand-faults onto a fresh zero page — the owner's data is gone. *)
  let got = Core.Sharing.peer_read fid b sh ~off:0 ~len:6 in
  Alcotest.(check bool) "peer no longer sees owner data" false
    (Bytes.to_string got = "hi bob");
  Alcotest.(check bool) "demand-zero page" true
    (Bytes.for_all (fun c -> c = '\000') got);
  (* The owner keeps its own page. *)
  Core.Sharing.owner_write fid a sh ~off:0 (Bytes.of_string "mine")

let test_share_range () =
  let ((m, _, fid) as env) = installed () in
  ignore m;
  let a, _ = protected_vm env "alice" in
  let b, _ = protected_vm env "bob" in
  let shares =
    ok (Core.Sharing.share_range fid ~owner:a ~peer:b ~owner_gvfn:60 ~peer_gvfn:70 ~nr:3 ~writable:true)
  in
  Alcotest.(check int) "three pages" 3 (List.length shares);
  (* Each page is independently usable under the one declared intent. *)
  List.iteri
    (fun i sh ->
      let msg = Printf.sprintf "page-%d" i in
      Core.Sharing.owner_write fid a sh ~off:0 (Bytes.of_string msg);
      Alcotest.(check string) msg msg
        (Bytes.to_string (Core.Sharing.peer_read fid b sh ~off:0 ~len:(String.length msg))))
    shares;
  (* A grant just past the declared range is denied. *)
  let last = List.nth shares 2 in
  let beyond = last.Core.Sharing.owner_gfn + 1 in
  Alcotest.(check bool) "past-range grant denied" true
    (Result.is_error
       (fid.Core.Ctx.hv.Hv.med.Hv.grant_update 14
          (Some
             { Xen.Granttab.owner = a.Domain.domid;
               target = b.Domain.domid;
               gfn = beyond;
               writable = true;
               in_use = true })))

let test_sharing_requires_intent () =
  let ((_, hv, _fid) as env) = installed () in
  let a, _ = protected_vm env "alice" in
  let b, _ = protected_vm env "bob" in
  (* Grant without pre_sharing: the GIT denies it. *)
  let gfn = Domain.alloc_gfn a in
  Domain.guest_map a ~gvfn:45 ~gfn ~writable:true ~executable:false ~c_bit:false;
  Hv.in_guest hv a (fun () ->
      Domain.write hv.Hv.machine a ~addr:(Hw.Addr.addr_of 45 0) (Bytes.make 16 '\000'));
  Alcotest.(check bool) "undeclared grant denied" true
    (Result.is_error
       (Hv.hypercall hv a
          (Xen.Hypercall.Grant_table_op
             (Xen.Hypercall.Grant_access { target = b.Domain.domid; gfn; writable = true }))))

(* --- ballooning --------------------------------------------------------------- *)

let test_balloon_release () =
  let ((m, hv, fid) as env) = installed () in
  let dom, _ = protected_vm env "balloonist" in
  let gfn = 10 in
  let frame =
    match Hw.Pagetable.lookup dom.Domain.npt gfn with
    | Some npte -> npte.Hw.Pagetable.frame
    | None -> Alcotest.fail "gfn unbacked"
  in
  Hv.in_guest hv dom (fun () ->
      Domain.write m dom ~addr:(Hw.Addr.addr_of gfn 0) (Bytes.of_string "residue"));
  let free_before = Hw.Machine.frames_free m in
  (match Hv.hypercall hv dom (Xen.Hypercall.Balloon_release { gfn }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "frame returned to pool" (free_before + 1) (Hw.Machine.frames_free m);
  Alcotest.(check bool) "mapping gone" true (Hw.Pagetable.lookup dom.Domain.npt gfn = None);
  Alcotest.(check bool) "PIT freed" true
    ((Pit.get fid.Core.Ctx.pit frame).Pit.usage = Pit.Free);
  Alcotest.(check string) "scrubbed" "\000\000\000"
    (Bytes.to_string (Hw.Physmem.read_raw m.Hw.Machine.mem frame ~off:0 ~len:3));
  (* The guest can no longer touch the released page... *)
  Alcotest.(check bool) "double release fails" true
    (Result.is_error (Hv.hypercall hv dom (Xen.Hypercall.Balloon_release { gfn })));
  (* ...while the hypervisor's unilateral reclaim is still denied. *)
  Alcotest.(check bool) "unilateral reclaim still denied" true
    (Result.is_error (hv.Hv.med.Hv.npt_update dom 11 None))

let test_balloon_unbacked () =
  let ((_, hv, _) as env) = installed () in
  let dom, _ = protected_vm env "balloonist" in
  Alcotest.(check bool) "unbacked gfn" true
    (Result.is_error (Hv.hypercall hv dom (Xen.Hypercall.Balloon_release { gfn = 9999 })))

(* Guest-initiated NPT changes, pinned before their stock and Fidelius
   bodies were merged into one dispatch path: the cycles of one
   Balloon_release and one Enable_mem_enc on a 24-page guest that is
   protected, unprotected under Fidelius, or on a stock hypervisor. *)
let test_guest_npt_change_pins () =
  let guest kind =
    let m = Hw.Machine.create ~seed:41L () in
    let hv = Hv.boot m in
    let dom =
      match kind with
      | `Stock -> Hv.create_domain hv ~name:"stock" ~memory_pages:24
      | `Unprotected ->
          ignore (Fid.install hv);
          Hv.create_domain hv ~name:"plain" ~memory_pages:24
      | `Protected ->
          let fid = Fid.install hv in
          let prepared =
            Sev.Transport.Owner.prepare ~rng:(Rng.create 9L)
              ~platform_public:(Fid.platform_key fid) ~policy:Sev.Firmware.policy_nodbg
              ~kernel_pages:[ page 'A' ]
          in
          ok (Fid.boot_protected_vm fid ~name:"prot" ~memory_pages:24 ~prepared)
    in
    (m, hv, dom)
  in
  List.iter
    (fun (name, kind, call, cycles) ->
      let m, hv, dom = guest kind in
      let before = Hw.Cost.total m.Hw.Machine.ledger in
      ignore (ok (Hv.hypercall hv dom call));
      Alcotest.(check int) name cycles (Hw.Cost.total m.Hw.Machine.ledger - before);
      match call with
      | Xen.Hypercall.Enable_mem_enc ->
          Alcotest.(check bool) (name ^ ": every C-bit set") true
            (List.for_all
               (fun (_, (p : Hw.Pagetable.proto)) -> p.Hw.Pagetable.c_bit)
               (Hw.Pagetable.mapped_frames dom.Domain.npt))
      | _ ->
          Alcotest.(check bool) (name ^ ": gfn 5 unbacked") true
            (Hw.Pagetable.lookup dom.Domain.npt 5 = None))
    [ ("balloon, protected", `Protected, Xen.Hypercall.Balloon_release { gfn = 5 }, 4327);
      ("balloon, unprotected", `Unprotected, Xen.Hypercall.Balloon_release { gfn = 5 }, 3666);
      ("balloon, stock", `Stock, Xen.Hypercall.Balloon_release { gfn = 5 }, 2080);
      ("mem_enc, protected", `Protected, Xen.Hypercall.Enable_mem_enc, 16581);
      ("mem_enc, unprotected", `Unprotected, Xen.Hypercall.Enable_mem_enc, 15920);
      ("mem_enc, stock", `Stock, Xen.Hypercall.Enable_mem_enc, 5047) ]

(* --- attestation ---------------------------------------------------------------- *)

let test_attestation_flow () =
  let ((_, hv, fid) as env) = installed () in
  let dom, _ = protected_vm env "attested" in
  let akey = Sev.Firmware.attestation_key hv.Hv.fw in
  let expected = Core.Iso.measure_xen_text hv in
  let q = Core.Attest.quote fid ~guest:dom ~nonce:42L () in
  Alcotest.(check bool) "verifies" true
    (Result.is_ok (Core.Attest.verify ~attestation_key:akey
                     ~expected_xen_measurement:expected ~nonce:42L q));
  (* Serialization roundtrip across the untrusted channel. *)
  (match Core.Attest.deserialize (Core.Attest.serialize q) with
  | Some q' ->
      Alcotest.(check bool) "wire roundtrip verifies" true
        (Result.is_ok (Core.Attest.verify ~attestation_key:akey
                         ~expected_xen_measurement:expected ~nonce:42L q'))
  | None -> Alcotest.fail "deserialize");
  (* Wrong nonce = replay. *)
  Alcotest.(check bool) "replayed quote rejected" true
    (Result.is_error (Core.Attest.verify ~attestation_key:akey
                        ~expected_xen_measurement:expected ~nonce:43L q));
  (* Forged measurement breaks the MAC. *)
  let forged = { q with Core.Attest.xen_measurement = Bytes.make 32 'x' } in
  Alcotest.(check bool) "forged measurement rejected" true
    (Result.is_error (Core.Attest.verify ~attestation_key:akey
                        ~expected_xen_measurement:(Bytes.make 32 'x') ~nonce:42L forged));
  (* A different platform cannot produce quotes under this key. *)
  let m2 = Hw.Machine.create ~seed:71L () in
  let fid2 = Fid.install (Hv.boot m2) in
  let alien = Core.Attest.quote fid2 ~nonce:42L () in
  Alcotest.(check bool) "alien platform rejected" true
    (Result.is_error (Core.Attest.verify ~attestation_key:akey
                        ~expected_xen_measurement:alien.Core.Attest.xen_measurement
                        ~nonce:42L alien))

let test_attestation_detects_modified_hypervisor () =
  (* A platform whose hypervisor text was modified before late launch
     measures differently; a verifier pinning the known-good hash notices. *)
  let m1 = Hw.Machine.create ~seed:61L () in
  let hv1 = Hv.boot m1 in
  let good = Core.Iso.measure_xen_text hv1 in
  let m2 = Hw.Machine.create ~seed:61L () in
  let hv2 = Hv.boot m2 in
  (* "Patch" one byte of hypervisor text before Fidelius is installed. *)
  Hw.Physmem.write_raw m2.Hw.Machine.mem (List.hd hv2.Hv.xen_text) ~off:0
    (Bytes.of_string "\x90");
  let fid2 = Fid.install hv2 in
  let q = Core.Attest.quote fid2 ~nonce:7L () in
  Alcotest.(check bool) "modified build flagged" true
    (Result.is_error
       (Core.Attest.verify ~attestation_key:(Sev.Firmware.attestation_key hv2.Hv.fw)
          ~expected_xen_measurement:good ~nonce:7L q))

(* The quote decoder on arbitrary, truncated and mutated bytes, with the
   guest-id and version fields drawn at their Int32 and uint16 bounds. It
   never raises; whatever it accepts is the [serialize] of the quote it
   returns, and a quote that is not the genuine one is refused by [verify]
   with a typed error. *)
type quote_input =
  | Arbitrary of string
  | Truncated of int
  | Domid of int32
  | Version of int * int  (** field 0..2, uint16 value *)
  | Nonce of int64
  | Bit of int

let quote_fixture =
  lazy
    (let ((_, hv, fid) as env) = installed () in
     let dom, _ = protected_vm env "quoted" in
     let akey = Sev.Firmware.attestation_key hv.Hv.fw in
     let expected = Core.Iso.measure_xen_text hv in
     ( akey,
       expected,
       [ Core.Attest.quote fid ~guest:dom ~nonce:42L (); Core.Attest.quote fid ~nonce:43L () ] ))

let quote_input_gen =
  let open QCheck.Gen in
  let wire = 82 in
  oneof
    [ map (fun s -> Arbitrary s)
        (string_size (frequency [ (1, return wire); (1, int_bound (2 * wire)) ]));
      map (fun n -> Truncated n) (int_bound (wire - 1));
      map (fun d -> Domid d)
        (frequency
           [ ( 3,
               oneofl
                 [ Int32.min_int; Int32.succ Int32.min_int; -2l; -1l; 0l; 1l;
                   Int32.pred Int32.max_int; Int32.max_int ] );
             (1, map Int32.of_int int) ]);
      map2 (fun f v -> Version (f, v)) (int_bound 2)
        (frequency
           [ (3, oneofl [ 0; 1; 0x7fff; 0x8000; 0xfffe; 0xffff ]); (1, int_bound 0xffff) ]);
      map (fun n -> Nonce n) (oneofl [ 0L; -1L; 42L; 43L; Int64.min_int; Int64.max_int ]);
      map (fun i -> Bit i) (int_bound ((8 * wire) - 1)) ]

let print_quote_input = function
  | Arbitrary s -> Printf.sprintf "Arbitrary %S" s
  | Truncated n -> Printf.sprintf "Truncated %d" n
  | Domid d -> Printf.sprintf "Domid %ld" d
  | Version (f, v) -> Printf.sprintf "Version (%d, 0x%x)" f v
  | Nonce n -> Printf.sprintf "Nonce %Ld" n
  | Bit i -> Printf.sprintf "Bit %d" i

let prop_quote_decoding_total =
  QCheck.Test.make ~name:"quote decoding is total under mutation" ~count:2000
    (QCheck.make
       ~print:(fun (which, input) -> Printf.sprintf "quote %d, %s" which (print_quote_input input))
       QCheck.Gen.(pair (int_bound 1) quote_input_gen))
    (fun (which, input) ->
      let akey, expected, quotes = Lazy.force quote_fixture in
      let genuine = List.nth quotes which in
      let wire = Core.Attest.serialize genuine in
      let b =
        match input with
        | Arbitrary s -> Bytes.of_string s
        | Truncated n -> Bytes.sub wire 0 n
        | Domid d ->
            let b = Bytes.copy wire in
            Bytes.set_int32_be b 38 d;
            b
        | Version (f, v) ->
            let b = Bytes.copy wire in
            Bytes.set_uint16_be b (32 + (2 * f)) v;
            b
        | Nonce n ->
            let b = Bytes.copy wire in
            Bytes.set_int64_be b 42 n;
            b
        | Bit i ->
            let b = Bytes.copy wire in
            Bytes.set b (i / 8)
              (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
            b
      in
      match Core.Attest.deserialize b with
      | None -> true
      | Some q ->
          let verdict =
            Core.Attest.verify ~attestation_key:akey ~expected_xen_measurement:expected
              ~nonce:genuine.Core.Attest.nonce q
          in
          Bytes.equal (Core.Attest.serialize q) b
          && if Bytes.equal b wire then Result.is_ok verdict else Result.is_error verdict)

(* --- xl toolstack ------------------------------------------------------------- *)

let test_xl_unprotected () =
  let _, hv, _ = installed () in
  let cfg =
    { (Core.Xl.default ~name:"plain") with
      Core.Xl.disk =
        Some { Core.Xl.contents = Bytes.make 2048 'p'; codec = Core.Xl.Plain_io; buffer_gvfn = 100 } }
  in
  let built = ok (Core.Xl.create hv cfg) in
  (match built.Core.Xl.frontend with
  | Some fe ->
      let b = ok (Xen.Blkif.read_sectors fe ~sector:0 ~count:2) in
      Alcotest.(check bool) "plain disk readable" true (Bytes.for_all (fun c -> c = 'p') b)
  | None -> Alcotest.fail "no frontend");
  Core.Xl.destroy hv built;
  Alcotest.(check bool) "destroyed" true
    (Hv.find_domain hv built.Core.Xl.domain.Domain.domid = None)

let test_xl_protected_aesni () =
  let _, hv, fid = installed () in
  let contents = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let cfg =
    { (Core.Xl.default ~name:"tenant") with
      Core.Xl.protection = Core.Xl.Protected fid;
      disk = Some { Core.Xl.contents; codec = Core.Xl.Aes_ni_io; buffer_gvfn = 100 } }
  in
  let built = ok (Core.Xl.create hv cfg) in
  Alcotest.(check bool) "protected" true
    (Fid.is_protected fid built.Core.Xl.domain.Domain.domid);
  (match built.Core.Xl.frontend with
  | Some fe ->
      let b = ok (Xen.Blkif.read_sectors fe ~sector:0 ~count:8) in
      Alcotest.(check bool) "owner image mounts" true (Bytes.equal b contents)
  | None -> Alcotest.fail "no frontend");
  Core.Xl.destroy hv built;
  Alcotest.(check bool) "shutdown clears protection" false
    (Fid.is_protected fid built.Core.Xl.domain.Domain.domid)

let test_xl_gek_disk () =
  let _, hv, fid = installed () in
  let contents = Bytes.make 1024 'g' in
  let cfg =
    { (Core.Xl.default ~name:"gek-tenant") with
      Core.Xl.protection = Core.Xl.Protected fid;
      disk = Some { Core.Xl.contents; codec = Core.Xl.Gek_io; buffer_gvfn = 100 } }
  in
  let built = ok (Core.Xl.create hv cfg) in
  (match built.Core.Xl.frontend with
  | Some fe ->
      let b = ok (Xen.Blkif.read_sectors fe ~sector:0 ~count:2) in
      Alcotest.(check bool) "gek disk roundtrip" true (Bytes.for_all (fun c -> c = 'g') b)
  | None -> Alcotest.fail "no frontend");
  Core.Xl.destroy hv built

let test_xl_codec_needs_protection () =
  let _, hv, _ = installed () in
  let cfg =
    { (Core.Xl.default ~name:"bad") with
      Core.Xl.disk =
        Some { Core.Xl.contents = Bytes.create 512; codec = Core.Xl.Aes_ni_io; buffer_gvfn = 100 } }
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Core.Xl.create hv cfg));
  Alcotest.(check bool) "rolled back" true
    (List.for_all (fun (d : Domain.t) -> d.Domain.name <> "bad") hv.Hv.domains)

(* --- stateful isolation property --------------------------------------------- *)

(* Whatever sequence of mediated operations a malicious hypervisor issues,
   the isolation invariants must hold afterwards. *)
let isolation_invariants (m, hv, fid) victim =
  let host = hv.Hv.host_space in
  (* 1. no hypervisor mapping *targets* a protected-guest private frame *)
  List.iter
    (fun pfn ->
      let info = Pit.get fid.Core.Ctx.pit pfn in
      if info.Pit.usage = Pit.Guest_page then
        if Hw.Pagetable.frame_mapped host pfn <> [] then
          Alcotest.fail (Printf.sprintf "host maps protected frame 0x%x" pfn))
    victim.Domain.frames;
  (* 2. W^X everywhere in the host space *)
  List.iter
    (fun (vfn, (p : Hw.Pagetable.proto)) ->
      if p.Hw.Pagetable.writable && p.Hw.Pagetable.executable then
        Alcotest.fail (Printf.sprintf "host W+X mapping at vfn 0x%x" vfn))
    (Hw.Pagetable.mapped_frames host);
  (* 3. no writable host mapping targets a page-table-page or the grant table *)
  List.iter
    (fun pfn ->
      if
        List.exists
          (fun (_, (p : Hw.Pagetable.proto)) -> p.Hw.Pagetable.writable)
          (Hw.Pagetable.frame_mapped host pfn)
      then Alcotest.fail (Printf.sprintf "PT/grant frame 0x%x writable" pfn))
    (Hw.Pagetable.backing_frames host
    @ Hw.Pagetable.backing_frames victim.Domain.npt
    @ Xen.Granttab.backing_frames hv.Hv.granttab);
  (* 4. victim NPT maps only frames the PIT assigns to it *)
  List.iter
    (fun (_, (p : Hw.Pagetable.proto)) ->
      match (Pit.get fid.Core.Ctx.pit p.Hw.Pagetable.frame).Pit.owner with
      | Pit.Dom d when d = victim.Domain.domid -> ()
      | owner ->
          Alcotest.fail
            (Printf.sprintf "victim NPT maps frame 0x%x owned by %s" p.Hw.Pagetable.frame
               (Pit.owner_to_string owner)))
    (Hw.Pagetable.mapped_frames victim.Domain.npt);
  (* 5. CPU protection bits survived *)
  Alcotest.(check bool) "WP" true (Hw.Cpu.wp m.Hw.Machine.cpu);
  Alcotest.(check bool) "SMEP" true (Hw.Cpu.smep m.Hw.Machine.cpu);
  Alcotest.(check bool) "NXE" true (Hw.Cpu.nxe m.Hw.Machine.cpu);
  (* 6. a typed page-table page keeps its PIT usage: every backing frame
     of the host space and of each live NPT, and every PIT tree frame,
     still reads what Fidelius recorded. [Iso] books the walks of a table
     that gained no page without taking them, which is exact only while
     this holds. *)
  let reads usage what pfn =
    let got = Pit.usage_of fid.Core.Ctx.pit pfn in
    if got <> usage then
      Alcotest.fail
        (Printf.sprintf "%s frame 0x%x reads %s, want %s" what pfn (Pit.usage_to_string got)
           (Pit.usage_to_string usage))
  in
  List.iter (reads Pit.Xen_pt "host page-table") (Hw.Pagetable.backing_frames host);
  List.iter
    (fun (d : Domain.t) ->
      List.iter
        (reads Pit.Guest_npt (Printf.sprintf "dom%d NPT" d.Domain.domid))
        (Hw.Pagetable.backing_frames d.Domain.npt))
    hv.Hv.domains;
  List.iter (reads Pit.Fidelius_data "PIT tree") (Pit.tree_frames fid.Core.Ctx.pit)

(* One mediated host map+unmap pair on a settled host. The ledger books
   a PIT walk for each page-table page and tree page on every call (40
   walks, 960 of the 1,834 cycles), but the host walks only for the two
   policy checks and books the other 38 in one charge. *)
let test_host_map_pair_pinned () =
  let m, hv, fid = installed () in
  let pfn = Hw.Machine.alloc_frame m in
  let map = hv.Hv.med.Hv.host_map_update in
  let proto = Some { Hw.Pagetable.frame = pfn; writable = true; executable = false; c_bit = false } in
  let pair () =
    ok (map pfn proto);
    ok (map pfn None)
  in
  pair ();
  let ledger = m.Hw.Machine.ledger and pit = fid.Core.Ctx.pit in
  let cycles = Hw.Cost.total ledger and booked = Hw.Cost.category ledger "pit" in
  let walks = Pit.walks pit in
  pair ();
  Alcotest.(check int) "charged cycles" 1834 (Hw.Cost.total ledger - cycles);
  Alcotest.(check int) "pit cycles (40 walks)" 960 (Hw.Cost.category ledger "pit" - booked);
  Alcotest.(check int) "host PIT walks" 2 (Pit.walks pit - walks);
  for _ = 1 to 100 do pair () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do pair () done;
  Alcotest.(check (float 0.01)) "minor words per pair" 65.0 ((Gc.minor_words () -. w0) /. 1000.)

(* The frame hooks take whatever frame the hypervisor names. Neither may
   retype a page-table page, a PIT tree page or Fidelius text, nor hand a
   protected guest's frame to another domain or back to the hypervisor
   while its NPT maps it. *)
let test_frame_hooks_keep_typed_frames () =
  let ((_, hv, fid) as env) = installed () in
  let victim, _ = protected_vm env "victim" in
  let evil = Hv.create_domain hv ~name:"evil" ~memory_pages:4 in
  let pit = fid.Core.Ctx.pit in
  let refused what hook pfn =
    let before = Pit.get pit pfn in
    (match hook pfn with
    | () -> Alcotest.fail (Printf.sprintf "%s frame 0x%x admitted" what pfn)
    | exception Hw.Denial.Denied _ -> ());
    Alcotest.(check bool) (what ^ " entry unchanged") true (Pit.get pit pfn = before)
  in
  let alloc = hv.Hv.med.Hv.on_guest_frame_alloc evil
  and release = hv.Hv.med.Hv.on_guest_frame_release victim in
  List.iter
    (fun (what, pfn) ->
      refused ("alloc " ^ what) alloc pfn;
      refused ("release " ^ what) release pfn)
    [ ("host page-table", List.hd (Hw.Pagetable.backing_frames hv.Hv.host_space));
      ("NPT", List.hd (Hw.Pagetable.backing_frames victim.Domain.npt));
      ("PIT tree", List.hd (Pit.tree_frames pit));
      ("Fidelius text", List.hd fid.Core.Ctx.fid_text);
      ("mapped protected", List.hd victim.Domain.frames) ];
  (* A free frame still passes both ways. *)
  let pfn = List.hd evil.Domain.frames in
  release pfn;
  Alcotest.(check bool) "released frame free" true (Pit.usage_of pit pfn = Pit.Free);
  alloc pfn;
  Alcotest.(check bool) "allocated frame evil's" true
    ((Pit.get pit pfn).Pit.owner = Pit.Dom evil.Domain.domid)

(* A second install on the same hypervisor builds a fresh PIT, which must
   record the host page tables itself, not trust the count the first PIT
   left in the table. *)
let test_reinstall_types_host_tables () =
  let _, hv, _ = installed () in
  let fid2 = Fid.install hv in
  List.iter
    (fun pfn ->
      Alcotest.(check string)
        (Printf.sprintf "host page-table frame 0x%x" pfn)
        "xen-pt"
        (Pit.usage_to_string (Pit.usage_of fid2.Core.Ctx.pit pfn)))
    (Hw.Pagetable.backing_frames hv.Hv.host_space)

let test_isolation_survives_random_ops =
  QCheck.Test.make ~name:"isolation invariants survive random mediated op sequences" ~count:15
    QCheck.int64
    (fun seed ->
      let env = installed () in
      let m, hv, fid = env in
      let victim, _ = protected_vm env "victim" in
      let evil = Hv.create_domain hv ~name:"evil" ~memory_pages:4 in
      let rng = Fidelius_crypto.Rng.create seed in
      let pick l = List.nth l (Fidelius_crypto.Rng.int rng (List.length l)) in
      let rand_frame () =
        match Fidelius_crypto.Rng.int rng 5 with
        | 0 -> pick victim.Domain.frames
        | 1 -> List.hd (Hw.Pagetable.backing_frames hv.Hv.host_space)
        | 2 -> pick (Hw.Pagetable.backing_frames victim.Domain.npt)
        | 3 -> pick (Pit.tree_frames fid.Core.Ctx.pit)
        | _ -> 1 + Fidelius_crypto.Rng.int rng 4000
      in
      let rand_proto () =
        Some
          { Hw.Pagetable.frame = rand_frame ();
            writable = Fidelius_crypto.Rng.int rng 2 = 0;
            executable = Fidelius_crypto.Rng.int rng 2 = 0;
            c_bit = Fidelius_crypto.Rng.int rng 2 = 0 }
      in
      for _ = 1 to 40 do
        (* A hypervisor that faults itself (e.g. after unmapping its own
           structures) is a self-DoS, out of the threat model: absorb it. *)
        try
          match Fidelius_crypto.Rng.int rng 9 with
        | 0 ->
            ignore (hv.Hv.med.Hv.host_map_update (rand_frame ())
                      (if Fidelius_crypto.Rng.int rng 4 = 0 then None else rand_proto ()))
        | 1 ->
            let dom = if Fidelius_crypto.Rng.int rng 2 = 0 then victim else evil in
            ignore (hv.Hv.med.Hv.npt_update dom (Fidelius_crypto.Rng.int rng 64)
                      (if Fidelius_crypto.Rng.int rng 4 = 0 then None else rand_proto ()))
        | 2 ->
            let entry =
              { Xen.Granttab.owner = victim.Domain.domid;
                target = Fidelius_crypto.Rng.int rng 4;
                gfn = Fidelius_crypto.Rng.int rng 32;
                writable = Fidelius_crypto.Rng.int rng 2 = 0;
                in_use = true }
            in
            ignore (hv.Hv.med.Hv.grant_update (Fidelius_crypto.Rng.int rng 16)
                      (if Fidelius_crypto.Rng.int rng 3 = 0 then None else Some entry))
        | 3 ->
            let ops = [| Hw.Insn.Mov_cr0; Hw.Insn.Mov_cr4; Hw.Insn.Wrmsr; Hw.Insn.Mov_cr3 |] in
            ignore
              (Hw.Insn.execute m.Hw.Machine.insns
                 ~exec_ok:(Hw.Mmu.exec_ok m hv.Hv.host_space)
                 ops.(Fidelius_crypto.Rng.int rng 4)
                 (Fidelius_crypto.Rng.next64 rng))
        | 4 -> ignore (Hv.hypercall hv evil Xen.Hypercall.Void)
        | 5 ->
            (* vmexit, random VMCB scribble, attempt re-entry, then repair *)
            Hv.vmexit hv victim Hw.Vmcb.Hlt ~info1:0L ~info2:0L;
            let field = List.nth Hw.Vmcb.fields (Fidelius_crypto.Rng.int rng 15) in
            let old = Hw.Vmcb.get victim.Domain.vmcb field in
            Hw.Vmcb.set victim.Domain.vmcb field (Fidelius_crypto.Rng.next64 rng);
            (match Hv.vmrun hv victim with
            | Ok () -> ()
            | Error _ ->
                Hw.Vmcb.set victim.Domain.vmcb field old;
                ignore (Hv.vmrun hv victim))
          | 6 ->
              ignore
                (Hw.Machine.dma_write m (rand_frame ()) ~off:0
                   (Bytes.make 8 (Char.chr (Fidelius_crypto.Rng.int rng 256))))
          | 7 ->
              let dom = if Fidelius_crypto.Rng.int rng 2 = 0 then victim else evil in
              hv.Hv.med.Hv.on_guest_frame_alloc dom (rand_frame ())
          | _ ->
              let dom = if Fidelius_crypto.Rng.int rng 2 = 0 then victim else evil in
              hv.Hv.med.Hv.on_guest_frame_release dom (rand_frame ())
        with Hw.Mmu.Fault _ | Hv.Npf_unresolved _ | Hw.Denial.Denied _ -> ()
      done;
      isolation_invariants env victim;
      true)

(* --- migration ------------------------------------------------------------------------------ *)

let second_machine ?(seed = 71L) () =
  let m2 = Hw.Machine.create ~seed () in
  let hv2 = Hv.boot m2 in
  let fid2 = Fid.install hv2 in
  (m2, hv2, fid2)

let test_migration_roundtrip () =
  let ((m1, hv1, fid1) as env) = installed () in
  ignore m1;
  let dom, _ = protected_vm env "traveller" in
  (* Put a runtime secret in memory beyond the kernel image. *)
  Hv.in_guest hv1 dom (fun () ->
      Domain.write hv1.Hv.machine dom ~addr:0x6000 (Bytes.of_string "runtime state"));
  let m2, hv2, fid2 = second_machine () in
  let dom', _ =
    ok (Result.map_error Core.Migrate.error_to_string
          (Core.Migrate.migrate_live ~src:fid1 ~dst:fid2 dom))
  in
  Alcotest.(check bool) "source destroyed" true (Hv.find_domain hv1 dom.Domain.domid = None);
  let b = Hv.in_guest hv2 dom' (fun () -> Domain.read m2 dom' ~addr:0x6000 ~len:13) in
  Alcotest.(check string) "runtime state survives" "runtime state" (Bytes.to_string b);
  let k = Hv.in_guest hv2 dom' (fun () -> Domain.read m2 dom' ~addr:0x1000 ~len:4) in
  Alcotest.(check string) "kernel survives" "BBBB" (Bytes.to_string k);
  Alcotest.(check bool) "protected on target" true (Fid.is_protected fid2 dom'.Domain.domid)

(* A stock SEND_* stream with one ciphertext bit flipped, handed straight to
   the target's receive state machine. *)
let test_migration_tampered_snapshot () =
  let ((m1, hv1, fid1) as env) = installed () in
  let dom, _ = protected_vm env "traveller" in
  let _, _, fid2 = second_machine () in
  let fw = hv1.Hv.fw and handle = Option.get dom.Domain.sev_handle in
  let nonce = Rng.next64 m1.Hw.Machine.rng in
  let wrapped_keys =
    ok
      (Sev.Firmware.send_start fw ~handle ~target_public:(Fid.platform_key fid2) ~nonce)
  in
  let pages =
    List.sort compare (Hw.Pagetable.mapped_frames dom.Domain.npt)
    |> List.map (fun (gfn, (npte : Hw.Pagetable.proto)) ->
           let index = Core.Migrate.index_of ~round:0 ~gfn in
           let c = ok (Sev.Firmware.send_update fw ~handle ~index ~src_pfn:npte.Hw.Pagetable.frame) in
           (index, c))
  in
  let tampered =
    List.map
      (fun (i, c) ->
        let c = Bytes.copy c in
        Bytes.set c 7 (Char.chr (Char.code (Bytes.get c 7) lxor 2));
        (i, c))
      pages
  in
  let measurement = ok (Sev.Firmware.send_finish fw ~handle) in
  let frames =
    Core.Migrate.Wire.
      [ Start
          { name = "traveller"; memory_pages = 16; policy = Sev.Firmware.policy_nodbg; nonce;
            wrapped_keys; origin_public = Fid.platform_key fid1 };
        Update { round = 0; pages = tampered };
        Update { round = 1; pages = [] };
        Finish { measurement; gpt_entries = Hw.Pagetable.mapped_frames dom.Domain.gpt } ]
  in
  let rx = Core.Migrate.rx_create fid2 in
  let results = List.map (fun f -> Core.Migrate.rx_deliver rx (Core.Migrate.Wire.encode f)) frames in
  (* The refusal must carry the platform's verdict, not a generic error:
     the measurement check is what caught the tampering. *)
  Alcotest.(check bool) "tampered snapshot refused as Rejected" true
    (match List.rev results with
    | Error (Core.Migrate.Rejected _) :: earlier -> List.for_all Result.is_ok earlier
    | _ -> false);
  Alcotest.(check bool) "no guest on the target" true (Core.Migrate.rx_domain rx = None)

let test_migration_preserves_arbitrary_state =
  QCheck.Test.make ~name:"migration preserves arbitrary guest memory" ~count:5
    (QCheck.list_of_size (QCheck.Gen.int_range 1 4)
       (QCheck.pair (QCheck.int_bound 9) (QCheck.string_of_size (QCheck.Gen.int_range 1 64))))
    (fun writes ->
      let ((m1, hv1, fid1) as env) = installed () in
      ignore m1;
      let dom, _ = protected_vm env "prop-traveller" in
      (* Scatter random payloads across the guest's pages (distinct pages to
         avoid self-overwrites confusing the check). *)
      let writes =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) writes
      in
      List.iter
        (fun (page, payload) ->
          Hv.in_guest hv1 dom (fun () ->
              Domain.write hv1.Hv.machine dom
                ~addr:(Hw.Addr.addr_of (4 + page) 0)
                (Bytes.of_string payload)))
        writes;
      let m2, hv2, fid2 = second_machine ~seed:(Int64.of_int (Hashtbl.hash writes)) () in
      ignore m2;
      match Core.Migrate.migrate_live ~src:fid1 ~dst:fid2 dom with
      | Error _ -> false
      | Ok (dom', _) ->
          List.for_all
            (fun (page, payload) ->
              let got =
                Hv.in_guest hv2 dom' (fun () ->
                    Domain.read hv2.Hv.machine dom'
                      ~addr:(Hw.Addr.addr_of (4 + page) 0)
                      ~len:(String.length payload))
              in
              Bytes.to_string got = payload)
            writes)

let test_migration_requires_protection () =
  let _, hv, fid = installed () in
  let plain = Hv.create_domain hv ~name:"plain" ~memory_pages:4 in
  let _, _, fid2 = second_machine () in
  Alcotest.(check bool) "unprotected refused" true
    (Result.is_error (Core.Migrate.migrate_live ~src:fid ~dst:fid2 plain))

let prop t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "core"
    [ ( "install",
        [ Alcotest.test_case "Table 1 permissions" `Quick test_table1_permissions;
          Alcotest.test_case "Table 2 instructions" `Quick test_table2_instructions;
          Alcotest.test_case "measurement" `Quick test_measurement_recorded ] );
      ( "pit",
        [ prop test_pit_roundtrip;
          Alcotest.test_case "default free" `Quick test_pit_default_free;
          Alcotest.test_case "multiple entries" `Quick test_pit_multiple_entries;
          Alcotest.test_case "radix growth" `Quick test_pit_radix_growth ] );
      ( "git",
        [ Alcotest.test_case "record/check" `Quick test_git_record_check;
          Alcotest.test_case "writable intent" `Quick test_git_writable_intent;
          Alcotest.test_case "revoke" `Quick test_git_revoke;
          Alcotest.test_case "bad nr" `Quick test_git_bad_nr;
          prop test_git_property ] );
      ( "gates",
        [ Alcotest.test_case "type-1 cost and WP" `Quick test_gate1_cost_and_wp;
          Alcotest.test_case "exception safety" `Quick test_gate1_restores_on_exception;
          Alcotest.test_case "no re-entry" `Quick test_gate1_not_reentrant;
          Alcotest.test_case "type-3 window" `Quick test_gate3_mapping_window;
          Alcotest.test_case "counters" `Quick test_gate_crossing_counts;
          Alcotest.test_case "host map pair pinned" `Quick test_host_map_pair_pinned;
          Alcotest.test_case "frame hooks keep typed frames" `Quick
            test_frame_hooks_keep_typed_frames;
          Alcotest.test_case "reinstall types host tables" `Quick
            test_reinstall_types_host_tables ] );
      ( "shadow",
        [ Alcotest.test_case "mask and restore" `Quick test_shadow_mask_and_restore;
          Alcotest.test_case "visibility by reason" `Quick test_shadow_visible_fields_by_reason;
          Alcotest.test_case "legit updates" `Quick test_shadow_allows_legit_updates;
          Alcotest.test_case "tamper detection (all fields)" `Quick
            test_shadow_detects_every_protected_field;
          Alcotest.test_case "entry needs capture" `Quick test_shadow_rejects_entry_without_capture;
          Alcotest.test_case "backing frame" `Quick test_shadow_backing_unreadable_frame;
          Alcotest.test_case "exchange table (all reasons)" `Quick test_shadow_exchange_table;
          Alcotest.test_case "sev-es exchange table (all reasons)" `Quick
            test_sev_es_exchange_table ] );
      ( "policy",
        [ Alcotest.test_case "CR bits" `Quick test_policy_cr_bits;
          Alcotest.test_case "CR3 validity" `Quick test_policy_cr3;
          Alcotest.test_case "write/exec once" `Quick test_policy_once;
          Alcotest.test_case "audit log" `Quick test_policy_audit_log;
          Alcotest.test_case "W^X" `Quick test_policy_wx ] );
      ( "lifecycle",
        [ Alcotest.test_case "protected boot" `Quick test_protected_boot;
          Alcotest.test_case "tampered image" `Quick test_boot_tampered_image_fails;
          Alcotest.test_case "wrong platform" `Quick test_boot_wrong_platform_fails;
          Alcotest.test_case "NOSEND policy" `Quick test_nosend_policy;
          Alcotest.test_case "hypercalls" `Quick test_hypercall_roundtrip_protected;
          Alcotest.test_case "cpuid under masking" `Quick test_cpuid_under_masking;
          Alcotest.test_case "msr under masking" `Quick test_msr_under_masking;
          Alcotest.test_case "shutdown cleanup" `Quick test_shutdown_cleans_up;
          Alcotest.test_case "start_info write-once" `Quick test_write_start_info_once;
          Alcotest.test_case "start_info wrapping offset" `Quick
            test_write_start_info_wrapping_off;
          Alcotest.test_case "refused receive tears down" `Quick
            test_refused_receive_tears_down;
          Alcotest.test_case "over-long image page" `Quick test_overlong_image_page;
          Alcotest.test_case "shutdown retires the I/O helpers" `Quick
            test_shutdown_retires_io_helpers;
          Alcotest.test_case "shutdown drops GEKs" `Quick test_shutdown_drops_geks;
          Alcotest.test_case "refused receives retire their contexts" `Quick
            test_refused_receives_retire_contexts ] );
      ( "io",
        [ Alcotest.test_case "aes-ni codec" `Quick test_aesni_codec_roundtrip;
          Alcotest.test_case "disk helpers" `Quick test_disk_encrypt_helpers;
          Alcotest.test_case "sev codec" `Quick test_sev_codec_roundtrip;
          Alcotest.test_case "software codec" `Quick test_software_codec_roundtrip;
          Alcotest.test_case "aes-ni batch-1 golden pins" `Quick test_aesni_codec_batch1_golden;
          Alcotest.test_case "needs protection" `Quick test_sev_io_needs_protection;
          Alcotest.test_case "block path page buffers" `Quick test_block_path_page_buffers;
          Alcotest.test_case "aes-ni shared frames pinned" `Quick
            test_aesni_shared_frames_pinned;
          Alcotest.test_case "five codecs round trip" `Quick test_five_codecs_roundtrip;
          Alcotest.test_case "firmware codec pins" `Quick test_firmware_codec_pins ] );
      ( "sharing",
        [ Alcotest.test_case "flow" `Quick test_sharing_flow;
          Alcotest.test_case "requires intent" `Quick test_sharing_requires_intent;
          Alcotest.test_case "multi-frame range" `Quick test_share_range ] );
      ( "balloon",
        [ Alcotest.test_case "guest-initiated release" `Quick test_balloon_release;
          Alcotest.test_case "unbacked gfn" `Quick test_balloon_unbacked;
          Alcotest.test_case "guest-initiated NPT change pins" `Quick
            test_guest_npt_change_pins ] );
      ( "attestation",
        [ Alcotest.test_case "quote/verify flow" `Quick test_attestation_flow;
          Alcotest.test_case "modified hypervisor detected" `Quick
            test_attestation_detects_modified_hypervisor;
          QCheck_alcotest.to_alcotest prop_quote_decoding_total ] );
      ( "xl",
        [ Alcotest.test_case "unprotected + plain disk" `Quick test_xl_unprotected;
          Alcotest.test_case "protected + aes-ni disk" `Quick test_xl_protected_aesni;
          Alcotest.test_case "gek disk" `Quick test_xl_gek_disk;
          Alcotest.test_case "codec needs protection" `Quick test_xl_codec_needs_protection ] );
      ("isolation-property", [ prop test_isolation_survives_random_ops ]);
      ( "migration",
        [ Alcotest.test_case "roundtrip" `Quick test_migration_roundtrip;
          Alcotest.test_case "tampered snapshot" `Quick test_migration_tampered_snapshot;
          (* A START for the wrong target is covered by test_migrate's
             "wire wrong target refused". *)
          Alcotest.test_case "requires protection" `Quick test_migration_requires_protection;
          prop test_migration_preserves_arbitrary_state ] ) ]
