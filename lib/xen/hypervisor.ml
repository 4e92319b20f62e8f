module Hw = Fidelius_hw
module Sev = Fidelius_sev
module Trace = Fidelius_obs.Trace
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

exception Npf_unresolved of string

(* Per-domain cost attribution uses [Domain.scope] ("dom<id>", built once
   at creation): every cycle charged while the hypervisor works on behalf
   of a domain (guest execution, hypercall round trips, NPF handling) is
   booked to that label. Charge sites are interned once. *)
let c_world_switch = Hw.Cost.intern "world-switch"
let c_hypercall = Hw.Cost.intern "hypercall"

type mediation = {
  mutable npt_update :
    Domain.t -> Hw.Addr.gfn -> Hw.Pagetable.proto option -> (unit, string) result;
  mutable host_map_update :
    Hw.Addr.vfn -> Hw.Pagetable.proto option -> (unit, string) result;
  mutable grant_update : int -> Granttab.entry option -> (unit, string) result;
  mutable on_vmexit : Domain.t -> Hw.Vmcb.exit_reason -> unit;
  mutable before_vmrun : Domain.t -> (unit, string) result;
  mutable vmrun_gate : (unit -> (unit, string) result) -> (unit, string) result;
  mutable on_guest_frame_alloc : Domain.t -> Hw.Addr.pfn -> unit;
  mutable on_guest_frame_release : Domain.t -> Hw.Addr.pfn -> unit;
  mutable pre_sharing :
    Domain.t -> target:int -> gfn:Hw.Addr.gfn -> nr:int -> writable:bool ->
    (unit, string) result;
  mutable balloon_release :
    Domain.t -> (unit -> (unit, string) result) -> (unit, string) result;
}

type t = {
  machine : Hw.Machine.t;
  fw : Sev.Firmware.t;
  host_space : Hw.Pagetable.t;
  granttab : Granttab.t;
  events : Event.t;
  store : Xenstore.t;
  sched : Sched.t;
  dom0 : Domain.t;
  mutable domains : Domain.t list;
  mutable next_domid : int;
  mutable next_asid : int;
  xen_text : Hw.Addr.pfn list;
  med : mediation;
  mutable vmexit_count : int;
  mutable npf_count : int;
  consoles : (int, Buffer.t) Hashtbl.t;
}

let nr_text_frames = 16

(* Domain lookup by id without the per-call closure and [Some] that
   [List.find_opt] costs on the VMRUN dispatch path. Raises [Not_found]. *)
let rec find_dom doms target =
  match doms with
  | [] -> raise Not_found
  | d :: rest -> if d.Domain.domid = target then d else find_dom rest target

(* --- stock (baseline) mediation ------------------------------------- *)

let stock_mediation machine host_space granttab =
  { npt_update =
      (fun dom gfn proto ->
        Hw.Mmu.set_pte machine ~space:host_space ~table:dom.Domain.npt gfn proto;
        Ok ());
    host_map_update =
      (fun vfn proto ->
        Hw.Mmu.set_pte machine ~space:host_space ~table:host_space vfn proto;
        Ok ());
    grant_update =
      (fun gref entry ->
        Granttab.set machine ~space:host_space granttab gref entry;
        Ok ());
    on_vmexit = (fun _ _ -> ());
    before_vmrun = (fun _ -> Ok ());
    vmrun_gate = (fun f -> f ());
    on_guest_frame_alloc = (fun _ _ -> ());
    on_guest_frame_release = (fun _ _ -> ());
    pre_sharing = (fun _ ~target:_ ~gfn:_ ~nr:_ ~writable:_ -> Ok ());
    balloon_release = (fun _ release -> release ()) }

(* --- boot ------------------------------------------------------------ *)

(* Stock Xen code carries several copies of each privileged instruction
   scattered through its text — the state the Fidelius binary scan later
   scrubs down to a monopoly. Each copy runs the bare effect. *)
let place_baseline_insns t =
  let machine = t.machine in
  let cpu = machine.Hw.Machine.cpu and tlb = machine.Hw.Machine.tlb in
  let text = Array.of_list t.xen_text in
  List.iteri
    (fun i op ->
      let handler v =
        Hw.Insn.apply cpu tlb op v;
        Ok ()
      in
      Hw.Insn.place machine.Hw.Machine.insns op ~page:text.(i mod Array.length text) ~handler;
      Hw.Insn.place machine.Hw.Machine.insns op
        ~page:text.((i + 3) mod Array.length text)
        ~handler)
    Hw.Insn.[ Mov_cr0; Mov_cr4; Wrmsr; Mov_cr3; Lgdt; Lidt ]

(* Stock Xen's text holds two VMRUN sites, identified by role rather than
   bare positions so a shrunken text section degrades gracefully instead of
   raising: the dispatch-loop entry lives in the first text frame, and the
   context-switch copy sits five frames in (or as deep as the text goes).
   An empty text section is a boot-image bug and is reported as such. *)
let vmrun_sites = function
  | [] -> invalid_arg "Hypervisor.boot: xen_text has no frames to hold VMRUN"
  | entry :: rest ->
      let context_switch_copy =
        match List.nth_opt rest 4 with
        | Some page -> Some page
        | None -> ( match List.rev rest with last :: _ -> Some last | [] -> None)
      in
      entry :: Option.to_list context_switch_copy

(* The GHCB protocol of SEV-ES: the guest explicitly exposes and accepts
   exactly the registers the (hardware-recorded) exit reason requires —
   everything else stays in the encrypted VMSA. The exchange is the one
   table in Hw.Vmcb; the [Some reason] cells are shared per reason, so
   recording an exit allocates nothing. *)
let some_reasons = Array.map (fun r -> Some r) Hw.Vmcb.exit_reasons

(* The save area is the VMCB's leading fields — the masked loops below
   rely on that layout, so pin it at init. *)
let nr_save_fields = List.length Hw.Vmcb.save_area
let () = List.iteri (fun i f -> assert (Hw.Vmcb.index f = i)) Hw.Vmcb.save_area

let do_vmrun_effect t dom =
  let machine = t.machine in
  let cpu = machine.Hw.Machine.cpu in
  Hw.Cost.charge_id machine.Hw.Machine.ledger c_world_switch
    machine.Hw.Machine.costs.Hw.Cost.vmrun;
  if Trace.enabled () then Trace.emit (Trace.Vmrun { domid = dom.Domain.domid });
  if dom.Domain.sev_es then begin
    (* Hardware consistency check: an ES guest cannot be re-entered with
       its SEV control stripped. *)
    if Int64.equal (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Sev_enabled) 0L then
      Error "VMRUN: SEV-ES guest with SEV_ENABLED cleared (hardware check failed)"
    else begin
      (* Adopt only the GHCB-sanctioned exchange for the recorded exit
         reason; restore everything else from the encrypted VMSA. *)
      (match dom.Domain.last_exit with
      | Some reason ->
          let ri = Hw.Vmcb.reason_index reason in
          let fm = Hw.Vmcb.exchange_field_masks.(ri) and rm = Hw.Vmcb.exchange_reg_masks.(ri) in
          for i = 0 to Hw.Vmcb.nr_fields - 1 do
            if fm land (1 lsl i) <> 0 then
              Hw.Vmcb.set_i dom.Domain.vmsa i (Hw.Vmcb.get_i dom.Domain.vmcb i)
          done;
          for i = 0 to Hw.Cpu.nr_regs - 1 do
            if rm land (1 lsl i) <> 0 then
              dom.Domain.vmsa_regs.(i) <- Hw.Cpu.get_reg_i cpu i
          done
      | None -> ());
      for i = 0 to nr_save_fields - 1 do
        Hw.Vmcb.set_i dom.Domain.vmcb i (Hw.Vmcb.get_i dom.Domain.vmsa i)
      done;
      for i = 0 to Hw.Cpu.nr_regs - 1 do
        Hw.Cpu.set_reg_i cpu i dom.Domain.vmsa_regs.(i)
      done;
      Hw.Cpu.set_rip cpu (Hw.Vmcb.get dom.Domain.vmsa Hw.Vmcb.Rip);
      Hw.Cpu.set_mode cpu dom.Domain.guest_mode;
      Ok ()
    end
  end
  else begin
    Hw.Cpu.set_rip cpu (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rip);
    Hw.Cpu.set_reg cpu Hw.Cpu.Rax (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rax);
    Hw.Cpu.set_reg cpu Hw.Cpu.Rsp (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rsp);
    Hw.Cpu.set_mode cpu dom.Domain.guest_mode;
    Ok ()
  end

(* VMRUN: the world-switch instruction, dispatching on the domid the
   hypervisor loaded as its argument. *)
let vmrun_effect t v =
  match find_dom t.domains (Int64.to_int v) with
  | dom -> do_vmrun_effect t dom
  | exception Not_found -> Error (Printf.sprintf "VMRUN: no such domain %Ld" v)

(* [List.mem] on frame numbers without the polymorphic compare. *)
let rec mem_pfn (pfn : Hw.Addr.pfn) = function
  | [] -> false
  | x :: rest -> x = pfn || mem_pfn pfn rest

let boot machine =
  let host_space = Hw.Machine.new_table machine in
  let xen_text = Hw.Machine.alloc_frames machine nr_text_frames in
  (* Direct map: every physical frame identity-mapped, Xen-style. Text is
     RX, everything else RW/NX. Paging is not yet enforced, so these early
     stores are unmediated (real pre-paging boot), and they go in as one
     run store. Each store is charged as a store and a flush, but none is
     traced: the phase is one [Mark]. A frame outside the text's range is
     not text, so the text list is searched only inside it. *)
  let nr = Hw.Physmem.nr_frames machine.Hw.Machine.mem in
  let text_lo = List.fold_left Int.min max_int xen_text
  and text_hi = List.fold_left Int.max min_int xen_text in
  Hw.Mmu.set_pte_run machine ~space:host_space ~table:host_space 1 (nr - 1) (fun pfn ->
      let is_text = pfn >= text_lo && pfn <= text_hi && mem_pfn pfn xen_text in
      Hw.Pagetable.packed_make ~frame:pfn ~writable:(not is_text) ~executable:is_text
        ~c_bit:false);
  if Trace.enabled () then
    Trace.emit (Trace.Mark (Printf.sprintf "boot-direct-map entries=%d" (nr - 1)));
  (* The direct map covers frames allocated later for page-table growth
     too, because it spans all of RAM up front. *)
  machine.Hw.Machine.enforce_paging <- true;
  Hw.Cpu.priv_set_cr3 machine.Hw.Machine.cpu (Hw.Pagetable.id host_space);
  let granttab = Granttab.create machine ~nr_frames:2 in
  let fw = Sev.Firmware.create machine in
  (match Sev.Firmware.init fw with Ok () -> () | Error e -> failwith e);
  let dom0 = Domain.create machine ~domid:0 ~name:"Domain-0" ~is_dom0:true ~asid:0 in
  dom0.Domain.state <- Domain.Runnable;
  let med = stock_mediation machine host_space granttab in
  let t =
    { machine;
      fw;
      host_space;
      granttab;
      events = Event.create machine.Hw.Machine.ledger;
      store = Xenstore.create ();
      sched = Sched.create ();
      dom0;
      domains = [ dom0 ];
      next_domid = 1;
      next_asid = 1;
      xen_text;
      med;
      vmexit_count = 0;
      npf_count = 0;
      consoles = Hashtbl.create 8 }
  in
  Sched.add t.sched dom0;
  place_baseline_insns t;
  let handler = vmrun_effect t in
  List.iter
    (fun page -> Hw.Insn.place machine.Hw.Machine.insns Hw.Insn.Vmrun ~page ~handler)
    (vmrun_sites xen_text);
  t

(* --- host mappings ---------------------------------------------------- *)

let host_read_into t pfn ~off ~len ~dst ~dst_off =
  Hw.Mmu.read_into t.machine t.host_space ~addr:(Hw.Addr.addr_of pfn off) ~len ~dst ~dst_off

let host_read t pfn ~off ~len =
  Hw.Mmu.read t.machine t.host_space ~addr:(Hw.Addr.addr_of pfn off) ~len

let host_write t pfn ~off data =
  Hw.Mmu.write t.machine t.host_space ~addr:(Hw.Addr.addr_of pfn off) data

(* --- domains ---------------------------------------------------------- *)

let fresh_asid t =
  let asid = t.next_asid in
  t.next_asid <- asid + 1;
  asid

let find_domain t domid = List.find_opt (fun d -> d.Domain.domid = domid) t.domains

(* Back [gfn] with a fresh frame: boot-time population and the NPF
   handler's demand allocation run this one body. *)
let back_gfn t dom gfn =
  let pfn = Hw.Machine.alloc_frame t.machine in
  dom.Domain.frames <- pfn :: dom.Domain.frames;
  t.med.on_guest_frame_alloc dom pfn;
  t.med.npt_update dom gfn
    (Some { Hw.Pagetable.frame = pfn; writable = true; executable = true; c_bit = false })

let populate t dom memory_pages =
  (* Xen allocates most guest memory up front; NPT updates are batched at
     boot (paper Section 4.3.4). *)
  for gfn = 0 to memory_pages - 1 do
    match back_gfn t dom gfn with Ok () -> () | Error e -> failwith ("populate: " ^ e)
  done;
  dom.Domain.next_free_gfn <- memory_pages

let init_vmcb dom =
  let vmcb = dom.Domain.vmcb in
  Hw.Vmcb.set vmcb Hw.Vmcb.Asid (Int64.of_int dom.Domain.asid);
  Hw.Vmcb.set vmcb Hw.Vmcb.Np_enabled 1L;
  Hw.Vmcb.set vmcb Hw.Vmcb.Np_cr3 (Int64.of_int (Hw.Pagetable.id dom.Domain.npt));
  Hw.Vmcb.set vmcb Hw.Vmcb.Intercepts 0xffffL;
  Hw.Vmcb.set vmcb Hw.Vmcb.Rip 0x1000L

let create_domain t ~name ~memory_pages =
  let domid = t.next_domid in
  t.next_domid <- domid + 1;
  let dom = Domain.create t.machine ~domid ~name ~is_dom0:false ~asid:(fresh_asid t) in
  populate t dom memory_pages;
  for gvfn = 0 to memory_pages - 1 do
    Domain.guest_map dom ~gvfn ~gfn:gvfn ~writable:true ~executable:true ~c_bit:false
  done;
  init_vmcb dom;
  dom.Domain.state <- Domain.Runnable;
  t.domains <- t.domains @ [ dom ];
  Sched.add t.sched dom;
  dom

let ( let* ) = Result.bind

(* The guest marks its private memory encrypted in its own page table;
   shared/IO pages are mapped with the C-bit clear later. *)
let activate_sev t dom ~handle ~memory_pages =
  match Sev.Firmware.activate t.fw ~handle ~asid:dom.Domain.asid with
  | Error _ as e -> e
  | Ok () ->
      dom.Domain.sev_handle <- Some handle;
      dom.Domain.sev_protected <- true;
      Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Sev_enabled 1L;
      for gvfn = 0 to memory_pages - 1 do
        Domain.guest_map dom ~gvfn ~gfn:gvfn ~writable:true ~executable:true ~c_bit:true
      done;
      Ok ()

let create_sev_domain t ~name ~memory_pages ~kernel =
  if List.length kernel > memory_pages then Error "kernel larger than guest memory"
  else
    let dom = create_domain t ~name ~memory_pages in
    let* handle = Sev.Firmware.launch_start t.fw ~policy:Sev.Firmware.policy_nodbg in
    let* () =
      List.fold_left
        (fun acc (i, page) ->
          let* () = acc in
          match Hw.Pagetable.lookup dom.Domain.npt i with
          | None -> Error (Printf.sprintf "gfn %d not populated" i)
          | Some npte ->
              (* Hypervisor loads the plaintext kernel through its direct
                 map, then the firmware encrypts it in place. *)
              host_write t npte.Hw.Pagetable.frame ~off:0 page;
              Sev.Firmware.launch_update t.fw ~handle ~pfn:npte.Hw.Pagetable.frame)
        (Ok ())
        (List.mapi (fun i p -> (i, p)) kernel)
    in
    let* _digest = Sev.Firmware.launch_finish t.fw ~handle in
    let* () = activate_sev t dom ~handle ~memory_pages in
    Ok dom

let enable_sev_es t dom =
  ignore t;
  dom.Domain.sev_es <- true;
  (* Seed the VMSA with the current (boot-time) state. *)
  List.iter
    (fun f -> Hw.Vmcb.set dom.Domain.vmsa f (Hw.Vmcb.get dom.Domain.vmcb f))
    Hw.Vmcb.save_area

let destroy_domain t dom =
  dom.Domain.state <- Domain.Dying;
  (match dom.Domain.sev_handle with
  | Some handle ->
      ignore (Sev.Firmware.deactivate t.fw ~handle);
      ignore (Sev.Firmware.decommission t.fw ~handle)
  | None -> ());
  List.iter
    (fun pfn ->
      t.med.on_guest_frame_release dom pfn;
      Hw.Machine.free_frame t.machine pfn)
    dom.Domain.frames;
  dom.Domain.frames <- [];
  Sched.remove t.sched dom;
  t.domains <- List.filter (fun d -> not (d == dom)) t.domains

(* --- world switches --------------------------------------------------- *)

let vmexit t dom reason ~info1 ~info2 =
  let machine = t.machine in
  let cpu = machine.Hw.Machine.cpu in
  t.vmexit_count <- t.vmexit_count + 1;
  Hw.Cost.charge_id machine.Hw.Machine.ledger c_world_switch
    machine.Hw.Machine.costs.Hw.Cost.vmexit;
  if Trace.enabled () then
    Trace.emit
      (Trace.Vmexit
         { domid = dom.Domain.domid; reason = Hw.Vmcb.exit_reason_to_string reason });
  let ri = Hw.Vmcb.reason_index reason in
  let vmcb = dom.Domain.vmcb in
  Hw.Vmcb.set vmcb Hw.Vmcb.Rip (Hw.Cpu.rip cpu);
  Hw.Vmcb.set vmcb Hw.Vmcb.Rax (Hw.Cpu.get_reg cpu Hw.Cpu.Rax);
  Hw.Vmcb.set vmcb Hw.Vmcb.Rsp (Hw.Cpu.get_reg cpu Hw.Cpu.Rsp);
  Hw.Vmcb.set vmcb Hw.Vmcb.Exit_reason (Hw.Vmcb.exit_reason_to_int64 reason);
  Hw.Vmcb.set vmcb Hw.Vmcb.Exit_info1 info1;
  Hw.Vmcb.set vmcb Hw.Vmcb.Exit_info2 info2;
  dom.Domain.last_exit <- some_reasons.(ri);
  if dom.Domain.sev_es then begin
    (* SEV-ES hardware: snapshot the register state into the encrypted
       VMSA, then present the hypervisor only the GHCB-exposed subset. *)
    for i = 0 to nr_save_fields - 1 do
      Hw.Vmcb.set_i dom.Domain.vmsa i (Hw.Vmcb.get_i vmcb i)
    done;
    Hw.Cpu.snapshot_regs_into cpu dom.Domain.vmsa_regs;
    let fm = Hw.Vmcb.exchange_field_masks.(ri) and rm = Hw.Vmcb.exchange_reg_masks.(ri) in
    for i = 0 to nr_save_fields - 1 do
      if fm land (1 lsl i) = 0 then Hw.Vmcb.set_i vmcb i 0L
    done;
    for i = 0 to Hw.Cpu.nr_regs - 1 do
      if rm land (1 lsl i) = 0 then Hw.Cpu.set_reg_i cpu i 0L
    done
  end;
  Hw.Cpu.set_mode cpu Hw.Cpu.Host;
  t.med.on_vmexit dom reason

(* The VMRUN fetch+execute is one closure per domain, built on first entry
   and cached: it carries the preapplied exec-ok check and the domain's
   boxed domid, so re-entering a guest hands the gate an existing thunk
   instead of consing one per crossing. *)
let make_vmrun_thunk t dom =
  let machine = t.machine in
  let host_space = t.host_space in
  let exec_ok pfn = Hw.Mmu.exec_ok machine host_space pfn in
  let domid64 = dom.Domain.domid64 in
  fun () ->
    Hw.Insn.execute machine.Hw.Machine.insns ~exec_ok Hw.Insn.Vmrun domid64

let vmrun t dom =
  (* Direct match, not [let*]: the bind continuation would cons a closure
     per world switch. *)
  match t.med.before_vmrun dom with
  | Error _ as e -> e
  | Ok () ->
      let thunk =
        match dom.Domain.vmrun_thunk with
        | Some f -> f
        | None ->
            let f = make_vmrun_thunk t dom in
            dom.Domain.vmrun_thunk <- Some f;
            f
      in
      t.med.vmrun_gate thunk

let handle_npf t dom ~gfn =
  t.npf_count <- t.npf_count + 1;
  if Trace.enabled () then Trace.emit (Trace.Npf { domid = dom.Domain.domid; gfn });
  match Hw.Pagetable.lookup dom.Domain.npt gfn with
  | Some _ ->
      (* Mapping exists (permission-level violation): leave it to policy. *)
      Ok ()
  | None -> back_gfn t dom gfn

let service_npf t dom ~gfn ~ctx =
  vmexit t dom Hw.Vmcb.Npf ~info1:0L ~info2:(Int64.of_int gfn);
  (match handle_npf t dom ~gfn with
  | Ok () -> ()
  | Error e -> raise (Npf_unresolved e));
  match vmrun t dom with
  | Ok () -> ()
  | Error e -> raise (Npf_unresolved ("vmrun after " ^ ctx ^ ": " ^ e))

let rec in_guest_unscoped t dom f =
  if Plan.armed () && Plan.fire Site.Spurious_npf then
    (* Unsolicited exit/resume cycle on the guest's first gfn: the platform
       interrupts the guest for no architectural reason. Every mediation
       hook on the fault path still runs, so a defence that cannot survive
       a benign extra world switch shows up here. *)
    service_npf t dom ~gfn:0 ~ctx:"spurious NPF";
  try f ()
  with Hw.Mmu.Npt_fault { gfn; _ } ->
    service_npf t dom ~gfn ~ctx:"NPF";
    in_guest_unscoped t dom f

(* [f t dom x] booked to [dom]'s scope, for guest execution and hypercall
   round trips alike. Scope entry/exit by hand (matching
   [Cost.with_scope]'s discipline, including exceptions), and [f] a
   top-level function, so entering guest context allocates nothing. *)
let scoped t dom f x =
  let ledger = t.machine.Hw.Machine.ledger in
  Hw.Cost.scope_enter ledger dom.Domain.scope;
  match f t dom x with
  | v ->
      Hw.Cost.scope_exit ledger;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Hw.Cost.scope_exit ledger;
      Printexc.raise_with_backtrace e bt

let in_guest t dom f = scoped t dom in_guest_unscoped f

(* --- hypercalls -------------------------------------------------------- *)

let console_buffer t domid =
  match Hashtbl.find_opt t.consoles domid with
  | Some b -> b
  | None ->
      let b = Buffer.create 128 in
      Hashtbl.replace t.consoles domid b;
      b

let dispatch_grant t dom op =
  match op with
  | Hypercall.Grant_access { target; gfn; writable } -> (
      match Granttab.find_free t.granttab with
      | None -> Error "grant table full"
      | Some gref ->
          let entry =
            { Granttab.owner = dom.Domain.domid; target; gfn; writable; in_use = true }
          in
          let* () = t.med.grant_update gref (Some entry) in
          Ok (Int64.of_int gref))
  | Hypercall.Map_grant { gref } -> (
      match Granttab.get t.granttab gref with
      | None -> Error (Printf.sprintf "map_grant: grant %d not in use" gref)
      | Some entry ->
          if entry.Granttab.target <> dom.Domain.domid then
            Error
              (Printf.sprintf "map_grant: grant %d is for dom%d, not dom%d" gref
                 entry.Granttab.target dom.Domain.domid)
          else (
            match find_domain t entry.Granttab.owner with
            | None -> Error "map_grant: granting domain is gone"
            | Some owner -> (
                match Hw.Pagetable.lookup owner.Domain.npt entry.Granttab.gfn with
                | None -> Error "map_grant: granted gfn not backed"
                | Some npte ->
                    let new_gfn = Domain.alloc_gfn dom in
                    let* () =
                      t.med.npt_update dom new_gfn
                        (Some
                           { Hw.Pagetable.frame = npte.Hw.Pagetable.frame;
                             writable = entry.Granttab.writable;
                             executable = false;
                             c_bit = false })
                    in
                    Ok (Int64.of_int new_gfn))))
  | Hypercall.End_access { gref } -> (
      match Granttab.get t.granttab gref with
      | None -> Error "end_access: grant not in use"
      | Some entry ->
          if entry.Granttab.owner <> dom.Domain.domid then
            Error "end_access: not the owner"
          else
            let* () = t.med.grant_update gref None in
            Ok 0L)

(* The paper's evaluation hypercall: set the C-bit in every nested mapping
   of the guest so the SME engine encrypts subsequently written memory.
   Each update is a same-frame permission change. *)
let enable_mem_enc t dom =
  List.fold_left
    (fun acc (gfn, (p : Hw.Pagetable.proto)) ->
      let* () = acc in
      t.med.npt_update dom gfn (Some { p with c_bit = true }))
    (Ok ())
    (Hw.Pagetable.mapped_frames dom.Domain.npt)

(* A guest hands one page back: clear its nested entry under the authority
   the mediation grants for it, then release the frame as [destroy_domain]
   does. *)
let balloon_release t dom ~gfn =
  match Hw.Pagetable.lookup dom.Domain.npt gfn with
  | None -> Error "balloon: gfn not backed"
  | Some npte ->
      let pfn = npte.Hw.Pagetable.frame in
      let* () = t.med.balloon_release dom (fun () -> t.med.npt_update dom gfn None) in
      dom.Domain.frames <- List.filter (fun f -> f <> pfn) dom.Domain.frames;
      t.med.on_guest_frame_release dom pfn;
      Hw.Machine.free_frame t.machine pfn;
      Ok ()

let dispatch t dom call =
  let machine = t.machine in
  Hw.Cost.charge_id machine.Hw.Machine.ledger c_hypercall
    machine.Hw.Machine.costs.Hw.Cost.hypercall_base;
  if Trace.enabled () then Trace.emit (Trace.Hypercall (Hypercall.to_string call));
  match call with
  | Hypercall.Void -> Ok 0L
  | Hypercall.Console_write s ->
      Buffer.add_string (console_buffer t dom.Domain.domid) s;
      Ok (Int64.of_int (String.length s))
  | Hypercall.Event_send { port } ->
      let* () = Event.send t.events ~domid:dom.Domain.domid ~port in
      Ok 0L
  | Hypercall.Grant_table_op op -> dispatch_grant t dom op
  | Hypercall.Pre_sharing { target; gfn; nr; writable } ->
      let* () = t.med.pre_sharing dom ~target ~gfn ~nr ~writable in
      Ok 0L
  | Hypercall.Enable_mem_enc ->
      let* () = enable_mem_enc t dom in
      Ok 0L
  | Hypercall.Balloon_release { gfn } ->
      let* () = balloon_release t dom ~gfn in
      Ok 0L

(* Hypercall numbers as shared int64 boxes, so marshalling the number into
   RAX is an array load instead of a fresh box per call. *)
let hypercall_num64 = Array.init 66 Int64.of_int

let hypercall_body t dom call =
  let machine = t.machine in
  let cpu = machine.Hw.Machine.cpu in
  (* Guest marshals the hypercall number, then VMMCALL traps. *)
  Hw.Cpu.set_reg cpu Hw.Cpu.Rax hypercall_num64.(Hypercall.number call);
  vmexit t dom Hw.Vmcb.Vmmcall ~info1:0L ~info2:0L;
  let result = dispatch t dom call in
  let ret = match result with Ok v -> v | Error _ -> -1L in
  (* The hypervisor advances the guest RIP past VMMCALL and stores the
     return value in the VMCB's RAX slot. *)
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rax ret;
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rip
    (Int64.add (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rip) 3L);
  match vmrun t dom with
  | Ok () -> result
  | Error e -> Error ("vmrun: " ^ e)

let hypercall t dom call = scoped t dom hypercall_body call

(* --- guest grants ------------------------------------------------------- *)

(* The guest side of every grant: fresh unencrypted pages (each guest has
   its own Kvek, so plaintext is the only common coin), faulted in, one
   declared intent over the run (a no-op on stock Xen), one grant each. *)
let grant_pages t dom ~target ~gvfn ~nr ~writable =
  if nr < 1 then invalid_arg "Hypervisor.grant_pages: nr must be >= 1";
  let zero = Bytes.make Hw.Addr.page_size '\000' in
  let gfns =
    Array.init nr (fun i ->
        let gfn = Domain.alloc_gfn dom in
        Domain.guest_map dom ~gvfn:(gvfn + i) ~gfn ~writable:true ~executable:false
          ~c_bit:false;
        in_guest t dom (fun () ->
            Domain.write t.machine dom ~addr:(Hw.Addr.addr_of (gvfn + i) 0) zero);
        gfn)
  in
  let* _ = hypercall t dom (Hypercall.Pre_sharing { target; gfn = gfns.(0); nr; writable }) in
  let grefs = Array.make nr 0 in
  let rec grant i =
    if i = nr then Ok (gfns, grefs)
    else
      let* gref =
        hypercall t dom
          (Hypercall.Grant_table_op
             (Hypercall.Grant_access { target; gfn = gfns.(i); writable }))
      in
      grefs.(i) <- Int64.to_int gref;
      grant (i + 1)
  in
  grant 0

(* --- instruction emulation --------------------------------------------- *)

let string_regs s =
  (* Pack up to 12 bytes of vendor string into (ebx, edx, ecx) order like
     real CPUID leaf 0. *)
  let word off =
    let b i = if off + i < String.length s then Char.code s.[off + i] else 0 in
    Int64.of_int (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))
  in
  (word 0, word 8, word 4)

let emulate_cpuid t dom leaf =
  ignore t;
  match leaf with
  | 0 ->
      let ebx, edx, ecx = string_regs "FidelSimulated" in
      (0x8000001FL, ebx, ecx, edx)
  | 1 ->
      (* family/model in EAX; ECX bit 25 = AES-NI. *)
      (0x00800F12L, 0L, Int64.shift_left 1L 25, 0L)
  | 0x8000001F ->
      (* AMD encrypted-memory leaf: EAX bit 0 = SME, bit 1 = SEV;
         EBX[5:0] = C-bit position. *)
      let eax = if dom.Domain.sev_protected then 3L else 1L in
      (eax, 47L, 0L, 0L)
  | _ -> (0L, 0L, 0L, 0L)

let cpuid t dom ~leaf =
  let cpu = t.machine.Hw.Machine.cpu in
  Hw.Cpu.set_reg cpu Hw.Cpu.Rax (Int64.of_int leaf);
  vmexit t dom Hw.Vmcb.Cpuid ~info1:0L ~info2:0L;
  (* The handler sees RAX (visible for CPUID exits) and fills the four
     result registers — exactly the updatable set. *)
  let visible_leaf = Int64.to_int (Hw.Cpu.get_reg cpu Hw.Cpu.Rax) in
  let a, b, c, d = emulate_cpuid t dom visible_leaf in
  Hw.Cpu.set_reg cpu Hw.Cpu.Rax a;
  Hw.Cpu.set_reg cpu Hw.Cpu.Rbx b;
  Hw.Cpu.set_reg cpu Hw.Cpu.Rcx c;
  Hw.Cpu.set_reg cpu Hw.Cpu.Rdx d;
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rax a;
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rip
    (Int64.add (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rip) 2L);
  let* () = vmrun t dom in
  Ok
    ( Hw.Cpu.get_reg cpu Hw.Cpu.Rax,
      Hw.Cpu.get_reg cpu Hw.Cpu.Rbx,
      Hw.Cpu.get_reg cpu Hw.Cpu.Rcx,
      Hw.Cpu.get_reg cpu Hw.Cpu.Rdx )

let msr_efer = 0xC0000080

let rdmsr t dom ~msr =
  let cpu = t.machine.Hw.Machine.cpu in
  Hw.Cpu.set_reg cpu Hw.Cpu.Rcx (Int64.of_int msr);
  vmexit t dom Hw.Vmcb.Msr ~info1:0L (* 0 = read *) ~info2:0L;
  let which = Int64.to_int (Hw.Cpu.get_reg cpu Hw.Cpu.Rcx) in
  let value =
    if which = msr_efer then Hw.Insn.efer ~nxe:(Hw.Cpu.nxe cpu)
    else match Hashtbl.find_opt dom.Domain.msrs which with Some v -> v | None -> 0L
  in
  (* EDX:EAX split as on hardware. *)
  Hw.Cpu.set_reg cpu Hw.Cpu.Rax (Int64.logand value 0xFFFFFFFFL);
  Hw.Cpu.set_reg cpu Hw.Cpu.Rdx (Int64.shift_right_logical value 32);
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rax (Int64.logand value 0xFFFFFFFFL);
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rip
    (Int64.add (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rip) 2L);
  let* () = vmrun t dom in
  let lo = Hw.Cpu.get_reg cpu Hw.Cpu.Rax and hi = Hw.Cpu.get_reg cpu Hw.Cpu.Rdx in
  Ok (Int64.logor (Int64.shift_left hi 32) (Int64.logand lo 0xFFFFFFFFL))

let wrmsr_guest t dom ~msr value =
  let cpu = t.machine.Hw.Machine.cpu in
  Hw.Cpu.set_reg cpu Hw.Cpu.Rcx (Int64.of_int msr);
  Hw.Cpu.set_reg cpu Hw.Cpu.Rax (Int64.logand value 0xFFFFFFFFL);
  Hw.Cpu.set_reg cpu Hw.Cpu.Rdx (Int64.shift_right_logical value 32);
  vmexit t dom Hw.Vmcb.Msr ~info1:1L (* 1 = write *) ~info2:0L;
  let which = Int64.to_int (Hw.Cpu.get_reg cpu Hw.Cpu.Rcx) in
  let result =
    if which = msr_efer then Error "wrmsr: EFER writes by guests are refused"
    else begin
      let lo = Hw.Cpu.get_reg cpu Hw.Cpu.Rax and hi = Hw.Cpu.get_reg cpu Hw.Cpu.Rdx in
      Hashtbl.replace dom.Domain.msrs which
        (Int64.logor (Int64.shift_left hi 32) (Int64.logand lo 0xFFFFFFFFL));
      Ok ()
    end
  in
  Hw.Vmcb.set dom.Domain.vmcb Hw.Vmcb.Rip
    (Int64.add (Hw.Vmcb.get dom.Domain.vmcb Hw.Vmcb.Rip) 2L);
  let* () = vmrun t dom in
  result

let console t domid =
  match Hashtbl.find_opt t.consoles domid with Some b -> Buffer.contents b | None -> ""

let stats t = (t.vmexit_count, t.npf_count)
