module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sha256 = Fidelius_crypto.Sha256

(* Charge site of the shadowing round trip, interned once. *)
let c_shadow = Hw.Cost.intern "shadow"

let raw_map ctx pfn proto =
  let hv = ctx.Ctx.hv in
  Hw.Mmu.set_pte ctx.Ctx.machine ~space:hv.Xen.Hypervisor.host_space
    ~table:hv.Xen.Hypervisor.host_space pfn proto

let identity pfn ~writable ~executable =
  Some { Hw.Pagetable.frame = pfn; writable; executable; c_bit = false }

let measure_xen_text hv =
  let ctx = Sha256.init () in
  List.iter
    (fun pfn ->
      Sha256.feed ctx (Hw.Physmem.read_raw hv.Xen.Hypervisor.machine.Hw.Machine.mem pfn ~off:0
           ~len:Hw.Addr.page_size))
    hv.Xen.Hypervisor.xen_text;
  Sha256.finalize ctx

(* Claim newly allocated PIT radix pages as Fidelius data and unmap them.
   Marking can itself allocate radix pages, so iterate to a fixpoint.

   Every call books one PIT walk per tree page. A typed page keeps its
   usage (the frame hooks below refuse to retype one), so when the tree
   has gained no page since the last fixpoint every walk would find its
   page already marked: the host books them in one charge and walks
   nothing (a charge emits no event, so the ledger and the trace clock
   read the same as after the walks). *)
let mark_pit_frames ctx =
  let pit = ctx.Ctx.pit in
  let n = Pit.nr_tree_frames pit in
  if n = Pit.vetted pit then Pit.charge_walks pit n
  else begin
    let rec loop () =
      let fresh =
        List.filter (fun pfn -> Pit.usage_of pit pfn <> Pit.Fidelius_data) (Pit.tree_frames pit)
      in
      if fresh <> [] then begin
        List.iter
          (fun pfn ->
            Pit.set pit pfn
              { Pit.owner = Pit.Fidelius; usage = Pit.Fidelius_data; asid = 0; valid = true };
            raw_map ctx pfn None)
          fresh;
        loop ()
      end
    in
    loop ();
    Pit.set_vetted pit (Pit.nr_tree_frames pit)
  end

(* Record every page-table-page of [table] as [usage] and map it read-only.
   A table that has gained no page since this PIT last recorded it would
   find every one already recorded, so its walks are booked, not taken. *)
let protect_table_pages ctx table usage =
  let pit = ctx.Ctx.pit in
  let n = Hw.Pagetable.nr_backing_frames table in
  if n = Hw.Pagetable.vetted table ~by:(Pit.id pit) then Pit.charge_walks pit n
  else begin
    List.iter
      (fun pfn ->
        if Pit.usage_of pit pfn <> usage then begin
          Pit.set pit pfn { Pit.owner = Pit.Xen; usage; asid = 0; valid = true };
          raw_map ctx pfn (identity pfn ~writable:false ~executable:false)
        end)
      (Hw.Pagetable.backing_frames table);
    Hw.Pagetable.set_vetted table ~by:(Pit.id pit) n
  end;
  mark_pit_frames ctx

let new_shadow ctx (dom : Xen.Domain.t) =
  match Hashtbl.find ctx.Ctx.shadows dom.Xen.Domain.domid with
  | s -> s
  | exception Not_found ->
      let machine = ctx.Ctx.machine in
      let backing = Hw.Machine.alloc_frame machine in
      Pit.set ctx.Ctx.pit backing
        { Pit.owner = Pit.Fidelius; usage = Pit.Fidelius_data; asid = 0; valid = true };
      (* Shadow frames are Fidelius-private: unmapped from the hypervisor.
         This runs outside a gate (domain-setup time), so open a WP window
         of our own. *)
      let cpu = machine.Hw.Machine.cpu in
      Hw.Cpu.enter_fidelius cpu;
      Hw.Cpu.priv_set_wp cpu false;
      raw_map ctx backing None;
      mark_pit_frames ctx;
      Hw.Cpu.priv_set_wp cpu true;
      Hw.Cpu.leave_fidelius cpu;
      let s = Shadow.create ~backing in
      Hashtbl.replace ctx.Ctx.shadows dom.Xen.Domain.domid s;
      s

(* ---- mediation hooks -------------------------------------------------- *)

let ( let* ) = Result.bind

(* A malicious or buggy hypervisor can drive the mediated paths into
   hardware faults (e.g. after unmapping its own page-table-pages); surface
   those as errors rather than unwinding through the hook. *)
let catching f =
  try f () with Hw.Mmu.Fault { reason; _ } -> Error ("fault during mediated update: " ^ reason)

let install_hooks ctx =
  let hv = ctx.Ctx.hv in
  let machine = ctx.Ctx.machine in
  let med = hv.Xen.Hypervisor.med in
  let host = hv.Xen.Hypervisor.host_space in

  med.Xen.Hypervisor.npt_update <-
    (fun dom gfn proto ->
      Gate.with_type1 ctx (fun () -> catching (fun () ->
          let* () = Policy.check_npt_update ctx dom gfn proto in
          Hw.Mmu.set_pte machine ~space:host ~table:dom.Xen.Domain.npt gfn proto;
          protect_table_pages ctx dom.Xen.Domain.npt Pit.Guest_npt;
          Ok ())));

  med.Xen.Hypervisor.host_map_update <-
    (fun vfn proto ->
      Gate.with_type1 ctx (fun () -> catching (fun () ->
          let* () = Policy.check_host_map_update ctx vfn proto in
          Hw.Mmu.set_pte machine ~space:host ~table:host vfn proto;
          protect_table_pages ctx host Pit.Xen_pt;
          Ok ())));

  med.Xen.Hypervisor.grant_update <-
    (fun gref entry ->
      Gate.with_type1 ctx (fun () -> catching (fun () ->
          let* () = Policy.check_grant_update ctx gref entry in
          let old = Xen.Granttab.get hv.Xen.Hypervisor.granttab gref in
          Xen.Granttab.set machine ~space:host hv.Xen.Hypervisor.granttab gref entry;
          (* Maintain the hypervisor-side view of protected guests' shared
             I/O frames: grant to dom0 maps the frame back in, revocation
             takes it out. *)
          let resolve (e : Xen.Granttab.entry) =
            match Xen.Hypervisor.find_domain hv e.Xen.Granttab.owner with
            | None -> None
            | Some owner -> (
                match Hw.Pagetable.lookup owner.Xen.Domain.npt e.Xen.Granttab.gfn with
                | Some npte -> Some npte.Hw.Pagetable.frame
                | None -> None)
          in
          (match entry with
          | Some e when Ctx.is_protected ctx e.Xen.Granttab.owner && e.Xen.Granttab.target = 0
            -> (
              match resolve e with
              | Some frame ->
                  let info = Pit.get ctx.Ctx.pit frame in
                  Pit.set ctx.Ctx.pit frame { info with Pit.usage = Pit.Shared_io };
                  raw_map ctx frame
                    (identity frame ~writable:e.Xen.Granttab.writable ~executable:false)
              | None -> ())
          | Some _ -> ()
          | None -> (
              match old with
              | Some e when Ctx.is_protected ctx e.Xen.Granttab.owner -> (
                  match resolve e with
                  | Some frame ->
                      let info = Pit.get ctx.Ctx.pit frame in
                      Pit.set ctx.Ctx.pit frame { info with Pit.usage = Pit.Guest_page };
                      if e.Xen.Granttab.target = 0 then raw_map ctx frame None;
                      (* Revoke every cross-domain nested mapping of the
                         frame: a dead grant must not leave the peer with
                         lingering access. *)
                      List.iter
                        (fun (d : Xen.Domain.t) ->
                          if d.Xen.Domain.domid <> e.Xen.Granttab.owner then
                            List.iter
                              (fun (gfn, _) ->
                                Hw.Mmu.set_pte machine ~space:host ~table:d.Xen.Domain.npt gfn
                                  None)
                              (Hw.Pagetable.frame_mapped d.Xen.Domain.npt frame))
                        hv.Xen.Hypervisor.domains
                  | None -> ())
              | Some _ | None -> ()));
          mark_pit_frames ctx;
          Ok ())));

  med.Xen.Hypervisor.on_vmexit <-
    (fun dom reason ->
      if Ctx.is_protected ctx dom.Xen.Domain.domid then begin
        Hw.Cost.charge_id machine.Hw.Machine.ledger c_shadow
          (machine.Hw.Machine.costs.Hw.Cost.shadow_roundtrip / 2);
        let shadow = new_shadow ctx dom in
        Shadow.capture shadow machine dom.Xen.Domain.vmcb reason
      end);

  med.Xen.Hypervisor.before_vmrun <-
    (fun dom ->
      if Ctx.is_protected ctx dom.Xen.Domain.domid then begin
        Hw.Cost.charge_id machine.Hw.Machine.ledger c_shadow
          ((machine.Hw.Machine.costs.Hw.Cost.shadow_roundtrip + 1) / 2);
        let shadow = new_shadow ctx dom in
        if not (Shadow.has_capture shadow) then
          (* First entry: the VMCB was legitimately prepared by the boot
             flow; there is nothing to verify against yet. *)
          Ok ()
        else
          match Shadow.verify_and_restore shadow machine dom.Xen.Domain.vmcb with
          | Ok () -> Ok ()
          | Error msg ->
              Ctx.audit ctx msg;
              Error msg
      end
      else Ok ());

  med.Xen.Hypervisor.vmrun_gate <-
    (fun f -> Gate.with_type3 ctx ~pfns:ctx.Ctx.vmrun_pfns ~executable:true f);

  (* The frame hooks retype a frame the hypervisor names, so each reads
     the entry it replaces first. Allocation takes only a free frame.
     Release gives back guest memory, but never a protected guest's frame
     its NPT still maps (teardown and ballooning unmap first). Neither
     retypes Xen's or Fidelius' own frames: a typed page-table page or
     PIT tree page keeps its usage, which [protect_table_pages] and
     [mark_pit_frames] rely on. *)
  let retype what pfn ~allow info =
    match Pit.retype ctx.Ctx.pit pfn ~allow info with
    | Ok () -> Ok ()
    | Error old ->
        let msg =
          Printf.sprintf "PIT: frame 0x%x (%s/%s%s) may not be %s" pfn
            (Pit.owner_to_string old.Pit.owner)
            (Pit.usage_to_string old.Pit.usage)
            (if old.Pit.valid then ", mapped" else "")
            what
        in
        Ctx.audit ctx msg;
        Error msg
  in
  let allocatable (old : Pit.info) = old.Pit.usage = Pit.Free in
  let releasable (old : Pit.info) =
    match (old.Pit.usage, old.Pit.owner) with
    | Pit.Free, _ -> true
    | (Pit.Guest_page | Pit.Shared_io), Pit.Dom d ->
        not (old.Pit.valid && Ctx.is_protected ctx d)
    | (Pit.Guest_page | Pit.Shared_io), (Pit.Nobody | Pit.Xen | Pit.Fidelius) -> true
    | ( ( Pit.Xen_text | Pit.Xen_data | Pit.Xen_pt | Pit.Guest_npt | Pit.Grant_table
        | Pit.Fidelius_text | Pit.Fidelius_data ),
        _ ) ->
        false
  in

  med.Xen.Hypervisor.on_guest_frame_alloc <-
    (fun dom pfn ->
      let result =
        Gate.with_type1 ctx (fun () ->
            let* () =
              retype "allocated" pfn ~allow:allocatable
                { Pit.owner = Pit.Dom dom.Xen.Domain.domid;
                  usage = Pit.Guest_page;
                  asid = dom.Xen.Domain.asid;
                  valid = false }
            in
            if
              Ctx.is_protected ctx dom.Xen.Domain.domid || ctx.Ctx.next_domain_protected
            then raw_map ctx pfn None;
            mark_pit_frames ctx;
            Ok ())
      in
      (* A refused gate here is Fidelius denying the transition, not a
         harness crash: raise the Denial-class error the attack runner
         (and the fault matrix) classify as an intentional block. *)
      match result with Ok () -> () | Error e -> Hw.Denial.deny "frame-alloc hook: %s" e);

  med.Xen.Hypervisor.on_guest_frame_release <-
    (fun dom pfn ->
      let result =
        Gate.with_type1 ctx (fun () ->
            ignore dom;
            let* () =
              retype "released" pfn ~allow:releasable
                { Pit.owner = Pit.Nobody; usage = Pit.Free; asid = 0; valid = false }
            in
            Hw.Cache.invalidate_page machine.Hw.Machine.cache pfn;
            raw_map ctx pfn (identity pfn ~writable:true ~executable:false);
            mark_pit_frames ctx;
            Ok ())
      in
      match result with Ok () -> () | Error e -> Hw.Denial.deny "frame-release hook: %s" e);

  med.Xen.Hypervisor.pre_sharing <-
    (fun dom ~target ~gfn ~nr ~writable ->
      Git_table.record ctx.Ctx.git
        { Git_table.initiator = dom.Xen.Domain.domid; target; gfn; nr; writable });

  (* A page release arrives on the domain's own hypercall path, so it is
     guest-initiated: the policy admits its unmap under teardown authority
     for that domain alone. *)
  med.Xen.Hypervisor.balloon_release <-
    (fun dom release -> Ctx.with_teardown ctx dom.Xen.Domain.domid release)

(* ---- privileged-instruction rehoming ---------------------------------- *)

let place_gated_insns ctx =
  let machine = ctx.Ctx.machine in
  let cpu = machine.Hw.Machine.cpu and tlb = machine.Hw.Machine.tlb in
  let insns = machine.Hw.Machine.insns in
  let fid_page = List.hd ctx.Ctx.fid_text in
  (* Each handler is the policy check, then the instruction's one effect. *)
  let gated check op v =
    match check v with
    | Ok () ->
        Hw.Insn.apply cpu tlb op v;
        Ok ()
    | Error e -> Error e
  in
  let gate2 check op v =
    (* The checking loop charges only hypervisor-originated executions;
       Fidelius' own pass through the monopolized instance is part of the
       surrounding gate's budget. *)
    if not (Hw.Cpu.in_fidelius cpu) then Gate.charge_type2 ctx;
    gated check op v
  in
  let scrub_and_place op ~page handler =
    Hw.Insn.scrub insns op ~keep:(-1);
    Hw.Insn.place insns op ~page ~handler
  in
  scrub_and_place Hw.Insn.Mov_cr0 ~page:fid_page (gate2 (Policy.check_cr0 ctx) Hw.Insn.Mov_cr0);
  scrub_and_place Hw.Insn.Mov_cr4 ~page:fid_page (gate2 (Policy.check_cr4 ctx) Hw.Insn.Mov_cr4);
  scrub_and_place Hw.Insn.Wrmsr ~page:fid_page (gate2 (Policy.check_efer ctx) Hw.Insn.Wrmsr);
  scrub_and_place Hw.Insn.Lgdt ~page:fid_page
    (gate2 (fun _ -> Policy.exec_once ctx ~what:"lgdt") Hw.Insn.Lgdt);
  scrub_and_place Hw.Insn.Lidt ~page:fid_page
    (gate2 (fun _ -> Policy.exec_once ctx ~what:"lidt") Hw.Insn.Lidt);
  (* mov CR3 and VMRUN live on normally-unmapped pages (type-3 gated). *)
  scrub_and_place Hw.Insn.Mov_cr3 ~page:ctx.Ctx.cr3_page
    (gated (Policy.check_cr3 ctx) Hw.Insn.Mov_cr3);
  scrub_and_place Hw.Insn.Vmrun ~page:ctx.Ctx.vmrun_page (fun v ->
      Xen.Hypervisor.vmrun_effect ctx.Ctx.hv v)

(* ---- install ----------------------------------------------------------- *)

let install hv =
  let machine = hv.Xen.Hypervisor.machine in
  let cpu = machine.Hw.Machine.cpu in
  let xen_measurement = measure_xen_text hv in
  let fid_text = Hw.Machine.alloc_frames machine 2 in
  let vmrun_page = Hw.Machine.alloc_frame machine in
  let cr3_page = Hw.Machine.alloc_frame machine in
  let pit = Pit.create machine in
  let git = Git_table.create machine in
  let ctx =
    { Ctx.hv;
      machine;
      pit;
      git;
      shadows = Hashtbl.create 8;
      fid_text;
      vmrun_page;
      vmrun_pfns = [ vmrun_page ];
      cr3_page;
      host_exec_ok =
        (let host = hv.Xen.Hypervisor.host_space in
         fun pfn -> Hw.Mmu.exec_ok machine host pfn);
      xen_measurement;
      protected_domids = [];
      next_domain_protected = false;
      teardown_for = None;
      boot_window = None;
      gate1_count = 0;
      gate2_count = 0;
      gate3_count = 0;
      violations = [];
      exec_once_done = Hashtbl.create 8;
      write_once_bits = Hashtbl.create 8 }
  in
  (* PIT inventory of the running system. *)
  let mark pfn owner usage =
    Pit.set pit pfn { Pit.owner; usage; asid = 0; valid = true }
  in
  List.iter (fun pfn -> mark pfn Pit.Xen Pit.Xen_text) hv.Xen.Hypervisor.xen_text;
  List.iter
    (fun pfn -> mark pfn Pit.Xen Pit.Grant_table)
    (Xen.Granttab.backing_frames hv.Xen.Hypervisor.granttab);
  List.iter (fun pfn -> mark pfn Pit.Fidelius Pit.Fidelius_text) fid_text;
  mark vmrun_page Pit.Fidelius Pit.Fidelius_text;
  mark cr3_page Pit.Fidelius Pit.Fidelius_text;
  List.iter (fun pfn -> mark pfn Pit.Fidelius Pit.Fidelius_data) (Git_table.backing_frames git);
  (* Remap the world. Still inside Fidelius' own boot: open a WP window for
     the stores that will progressively lock the tables. *)
  Hw.Cpu.enter_fidelius cpu;
  Hw.Cpu.priv_set_wp cpu false;
  List.iter
    (fun pfn -> raw_map ctx pfn (identity pfn ~writable:false ~executable:true))
    fid_text;
  raw_map ctx vmrun_page None;
  raw_map ctx cr3_page None;
  List.iter (fun pfn -> raw_map ctx pfn None) (Git_table.backing_frames git);
  List.iter
    (fun pfn -> raw_map ctx pfn (identity pfn ~writable:false ~executable:false))
    (Xen.Granttab.backing_frames hv.Xen.Hypervisor.granttab);
  mark_pit_frames ctx;
  (* Finally: every page-table-page of the host space becomes read-only for
     the hypervisor, and is recorded as such. *)
  protect_table_pages ctx hv.Xen.Hypervisor.host_space Pit.Xen_pt;
  Hw.Cpu.priv_set_wp cpu true;
  Hw.Cpu.leave_fidelius cpu;
  (* Binary scan and instruction rehoming, then the mediation hooks. *)
  place_gated_insns ctx;
  install_hooks ctx;
  (* IOMMU: DMA may touch only frames whose PIT usage is harmless. *)
  Hw.Machine.set_iommu machine
    (Some
       (fun pfn ->
         match (Pit.get pit pfn).Pit.usage with
         | Pit.Shared_io | Pit.Xen_data | Pit.Free -> true
         | Pit.Xen_text | Pit.Xen_pt | Pit.Guest_page | Pit.Guest_npt | Pit.Grant_table
         | Pit.Fidelius_text | Pit.Fidelius_data -> false));
  ctx
