module Hw = Fidelius_hw
module Xen = Fidelius_xen

let deny ctx msg =
  Ctx.audit ctx msg;
  Error msg

(* A cross-domain nested mapping is legitimate only when backed by a grant
   entry naming this (owner, mapper) pair for a gfn that resolves to the
   frame, and a GIT intent covering it. *)
let grant_authorizes ctx ~owner_domid ~mapper_domid ~frame ~writable =
  let hv = ctx.Ctx.hv in
  let entries = Xen.Granttab.entries hv.Xen.Hypervisor.granttab in
  List.exists
    (fun (_, (e : Xen.Granttab.entry)) ->
      e.Xen.Granttab.owner = owner_domid
      && e.Xen.Granttab.target = mapper_domid
      && ((not writable) || e.Xen.Granttab.writable)
      && (match Xen.Hypervisor.find_domain hv owner_domid with
         | None -> false
         | Some owner -> (
             match Hw.Pagetable.lookup owner.Xen.Domain.npt e.Xen.Granttab.gfn with
             | Some npte -> npte.Hw.Pagetable.frame = frame
             | None -> false))
      && Result.is_ok
           (Git_table.check ctx.Ctx.git ~initiator:owner_domid ~target:mapper_domid
              ~gfn:e.Xen.Granttab.gfn ~writable))
    entries

let check_npt_update ctx (dom : Xen.Domain.t) gfn proto =
  let pit = ctx.Ctx.pit in
  let existing = Hw.Pagetable.lookup dom.Xen.Domain.npt gfn in
  match proto with
  | None -> (
      match ctx.Ctx.teardown_for with
      | Some d when d = dom.Xen.Domain.domid ->
          (match existing with
          | Some old ->
              let info = Pit.get pit old.Hw.Pagetable.frame in
              Pit.set pit old.Hw.Pagetable.frame { info with valid = false }
          | None -> ());
          Ok ()
      | _ ->
          deny ctx
            (Printf.sprintf "PIT: clearing dom%d NPT gfn 0x%x outside teardown"
               dom.Xen.Domain.domid gfn))
  | Some p -> (
      let info = Pit.get pit p.Hw.Pagetable.frame in
      match existing with
      | Some old when old.Hw.Pagetable.frame = p.Hw.Pagetable.frame -> (
          (* Permission/C-bit change on the same frame. On the domain's own
             memory anything goes (e.g. enable_mem_enc). On a frame it
             merely maps — a shared mapping of some other domain's page —
             widening to writable needs a writable grant+GIT authorization,
             otherwise the hypervisor could silently upgrade a read-only
             share (the grant-widening attack, moved down a level). *)
          let widening = p.Hw.Pagetable.writable && not old.Hw.Pagetable.writable in
          match info.Pit.owner with
          | Pit.Dom d when d = dom.Xen.Domain.domid -> Ok ()
          | Pit.Dom owner when widening && Ctx.is_protected ctx owner ->
              if
                grant_authorizes ctx ~owner_domid:owner ~mapper_domid:dom.Xen.Domain.domid
                  ~frame:p.Hw.Pagetable.frame ~writable:true
              then Ok ()
              else
                deny ctx
                  (Printf.sprintf
                     "PIT: widening dom%d's mapping of dom%d's frame 0x%x to writable denied"
                     dom.Xen.Domain.domid owner p.Hw.Pagetable.frame)
          | Pit.Dom _ | Pit.Nobody -> Ok ()
          | Pit.Xen | Pit.Fidelius ->
              deny ctx
                (Printf.sprintf "PIT: frame 0x%x (%s) may not be remapped in a guest NPT"
                   p.Hw.Pagetable.frame
                   (Pit.owner_to_string info.Pit.owner)))
      | Some old ->
          deny ctx
            (Printf.sprintf
               "PIT: dom%d NPT gfn 0x%x re-pointed from frame 0x%x to 0x%x (replay/remap)"
               dom.Xen.Domain.domid gfn old.Hw.Pagetable.frame p.Hw.Pagetable.frame)
      | None -> (
          match info.Pit.owner with
          | Pit.Dom d when d = dom.Xen.Domain.domid ->
              if info.Pit.usage = Pit.Guest_page || info.Pit.usage = Pit.Shared_io then
                if info.Pit.valid then
                  deny ctx
                    (Printf.sprintf
                       "PIT: frame 0x%x already mapped for dom%d (double mapping)"
                       p.Hw.Pagetable.frame d)
                else begin
                  Pit.set pit p.Hw.Pagetable.frame { info with valid = true };
                  Ok ()
                end
              else
                deny ctx
                  (Printf.sprintf "PIT: frame 0x%x of dom%d is %s, not guest memory"
                     p.Hw.Pagetable.frame d (Pit.usage_to_string info.Pit.usage))
          | Pit.Dom other when Ctx.is_protected ctx other ->
              if
                grant_authorizes ctx ~owner_domid:other ~mapper_domid:dom.Xen.Domain.domid
                  ~frame:p.Hw.Pagetable.frame ~writable:p.Hw.Pagetable.writable
              then Ok ()
              else
                deny ctx
                  (Printf.sprintf
                     "PIT: mapping dom%d's protected frame 0x%x into dom%d denied"
                     other p.Hw.Pagetable.frame dom.Xen.Domain.domid)
          | Pit.Dom _ ->
              (* Unprotected owner: stock Xen semantics, but it must still be
                 a grant-style flow to reach here; allow. *)
              Ok ()
          | Pit.Nobody ->
              if Ctx.is_protected ctx dom.Xen.Domain.domid then
                deny ctx
                  (Printf.sprintf
                     "PIT: frame 0x%x was never assigned to protected dom%d"
                     p.Hw.Pagetable.frame dom.Xen.Domain.domid)
              else Ok ()
          | Pit.Xen | Pit.Fidelius ->
              deny ctx
                (Printf.sprintf "PIT: frame 0x%x (%s/%s) may not enter a guest NPT"
                   p.Hw.Pagetable.frame
                   (Pit.owner_to_string info.Pit.owner)
                   (Pit.usage_to_string info.Pit.usage))))

let check_host_map_update ctx vfn proto =
  match proto with
  | None -> (
      (* Unmapping is mostly the hypervisor's own business, but revoking the
         mapping of a code region would unfetch the monopolized privileged
         instructions (Fidelius text) or the hypervisor's own text — an
         attack on the monitor itself, not mere self-harm. *)
      match Hw.Pagetable.lookup ctx.Ctx.hv.Xen.Hypervisor.host_space vfn with
      | None -> Ok ()
      | Some current -> (
          match Pit.usage_of ctx.Ctx.pit current.Hw.Pagetable.frame with
          | Pit.Fidelius_text -> deny ctx "Fidelius text mappings may not be revoked"
          | Pit.Xen_text -> deny ctx "hypervisor text mappings may not be revoked"
          | Pit.Free | Pit.Xen_data | Pit.Xen_pt | Pit.Guest_page | Pit.Guest_npt
          | Pit.Grant_table | Pit.Fidelius_data | Pit.Shared_io -> Ok ()))
  | Some p ->
      let info = Pit.get ctx.Ctx.pit p.Hw.Pagetable.frame in
      if p.Hw.Pagetable.writable && p.Hw.Pagetable.executable then
        deny ctx (Printf.sprintf "W^X: frame 0x%x mapped writable+executable" p.Hw.Pagetable.frame)
      else begin
        ignore vfn;
        match info.Pit.usage with
        | Pit.Fidelius_data | Pit.Fidelius_text ->
            deny ctx
              (Printf.sprintf "frame 0x%x is Fidelius-private and may not be mapped"
                 p.Hw.Pagetable.frame)
        | Pit.Guest_page -> (
            match (info.Pit.owner, ctx.Ctx.boot_window) with
            | Pit.Dom d, Some w when d = w -> Ok () (* kernel-image load window *)
            | Pit.Dom d, _ when Ctx.is_protected ctx d ->
                deny ctx
                  (Printf.sprintf "frame 0x%x belongs to protected dom%d" p.Hw.Pagetable.frame d)
            | _ -> Ok ())
        | Pit.Xen_pt | Pit.Guest_npt | Pit.Grant_table ->
            if p.Hw.Pagetable.writable then
              deny ctx
                (Printf.sprintf "frame 0x%x (%s) must stay read-only for the hypervisor"
                   p.Hw.Pagetable.frame
                   (Pit.usage_to_string info.Pit.usage))
            else Ok ()
        | Pit.Xen_text ->
            if p.Hw.Pagetable.writable then
              deny ctx "hypervisor code pages are write-forbidden"
            else Ok ()
        | Pit.Free | Pit.Xen_data | Pit.Shared_io -> Ok ()
      end

let check_grant_update ctx gref entry =
  ignore gref;
  match entry with
  | None -> Ok ()
  | Some (e : Xen.Granttab.entry) ->
      if Ctx.is_protected ctx e.Xen.Granttab.owner then
        match
          Git_table.check ctx.Ctx.git ~initiator:e.Xen.Granttab.owner
            ~target:e.Xen.Granttab.target ~gfn:e.Xen.Granttab.gfn
            ~writable:e.Xen.Granttab.writable
        with
        | Ok () -> Ok ()
        | Error msg -> deny ctx msg
      else Ok ()

let check_cr0 ctx v =
  let machine = ctx.Ctx.machine in
  if Hw.Cpu.in_fidelius machine.Hw.Machine.cpu then Ok ()
  else if not (Hw.Insn.cr0_pg v) then deny ctx "CR0 policy: PG bit cannot be cleared"
  else if not (Hw.Insn.cr0_wp v) then deny ctx "CR0 policy: WP bit cannot be cleared"
  else Ok ()

let check_cr4 ctx v =
  let machine = ctx.Ctx.machine in
  if Hw.Cpu.in_fidelius machine.Hw.Machine.cpu then Ok ()
  else if not (Hw.Insn.cr4_smep v) then deny ctx "CR4 policy: SMEP bit cannot be cleared"
  else Ok ()

let check_efer ctx v =
  let machine = ctx.Ctx.machine in
  if Hw.Cpu.in_fidelius machine.Hw.Machine.cpu then Ok ()
  else if not (Hw.Insn.efer_nxe v) then deny ctx "EFER policy: NXE bit cannot be cleared"
  else Ok ()

let check_cr3 ctx v =
  let host_id = Hw.Pagetable.id ctx.Ctx.hv.Xen.Hypervisor.host_space in
  if Int64.to_int v = host_id then Ok ()
  else deny ctx (Printf.sprintf "CR3 policy: 0x%Lx is not a valid target address space" v)

(* [off] is hypervisor-chosen: compare by subtraction, since [off + len]
   wraps negative for an [off] near [max_int] and would let the range
   through unrecorded. *)
let write_once_range ctx ~region ~off ~len =
  if off < 0 || len <= 0 || off > Hw.Addr.page_size - len then
    deny ctx (Printf.sprintf "write-once: range %d+%d outside the region" off len)
  else begin
    let bits =
      match Hashtbl.find_opt ctx.Ctx.write_once_bits region with
      | Some b -> b
      | None ->
          let b = Bytes.make (Hw.Addr.page_size / 8) '\000' in
          Hashtbl.replace ctx.Ctx.write_once_bits region b;
          b
    in
    let get i = Char.code (Bytes.get bits (i / 8)) land (1 lsl (i mod 8)) <> 0 in
    let set i =
      Bytes.set bits (i / 8) (Char.chr (Char.code (Bytes.get bits (i / 8)) lor (1 lsl (i mod 8))))
    in
    let rec dirty i = i < off + len && (get i || dirty (i + 1)) in
    if dirty off then
      deny ctx
        (Printf.sprintf "write-once policy: %s bytes %d..%d already written" region off
           (off + len - 1))
    else begin
      for i = off to off + len - 1 do set i done;
      Ok ()
    end
  end

let exec_once ctx ~what =
  if Hashtbl.mem ctx.Ctx.exec_once_done what then
    deny ctx (Printf.sprintf "execute-once policy: %s already executed" what)
  else begin
    Hashtbl.replace ctx.Ctx.exec_once_done what ();
    Ok ()
  end
