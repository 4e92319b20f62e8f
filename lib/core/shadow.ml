module Hw = Fidelius_hw
module Vmcb = Hw.Vmcb
module Cpu = Hw.Cpu
module Trace = Fidelius_obs.Trace

(* What the hypervisor may read at each exit. What it may hand back is
   the exit exchange, the one table in Hw.Vmcb. *)
let visible_regs = function
  | Vmcb.Cpuid -> [ Cpu.Rax; Cpu.Rbx; Cpu.Rcx; Cpu.Rdx ]
  | Vmcb.Vmmcall -> [ Cpu.Rax; Cpu.Rdi; Cpu.Rsi; Cpu.Rdx; Cpu.R8; Cpu.R9 ]
  | Vmcb.Ioio -> [ Cpu.Rax ]
  | Vmcb.Msr -> [ Cpu.Rax; Cpu.Rcx; Cpu.Rdx ]
  | Vmcb.Npf | Vmcb.Hlt | Vmcb.Intr | Vmcb.Shutdown -> []

let visible_fields = function
  | Vmcb.Cpuid | Vmcb.Vmmcall | Vmcb.Ioio | Vmcb.Msr -> [ Vmcb.Rax; Vmcb.Rip ]
  | Vmcb.Npf | Vmcb.Hlt | Vmcb.Intr | Vmcb.Shutdown -> []

let protected_fields =
  Vmcb.save_area @ [ Vmcb.Asid; Vmcb.Np_cr3; Vmcb.Sev_enabled; Vmcb.Np_enabled; Vmcb.Intercepts ]

(* Per-reason bitmasks over the dense VMCB-field and GPR indices, so the
   per-crossing capture/verify/restore loops are straight [for] loops
   testing mask bits — no [List.mem] scans and no allocation. *)
let vis_f_masks = Array.map (fun r -> Vmcb.field_mask (visible_fields r)) Vmcb.exit_reasons
let vis_r_masks = Array.map (fun r -> Vmcb.reg_mask (visible_regs r)) Vmcb.exit_reasons
let save_area_mask = Vmcb.field_mask Vmcb.save_area

(* Protected fields as dense indices, preserving [protected_fields] order
   so a tamper report names the same field the list-scan version did. *)
let protected_idx = Array.of_list (List.map Vmcb.index protected_fields)

(* Backing-frame layout: 15 VMCB fields (8 bytes each) at offset 0 in
   {!Vmcb.fields} order, the 16 GPRs at offset 128 in {!Cpu.regs} order,
   exit-reason code at 256, an in-use flag at 264. *)
let exit_off = 256
let flag_off = 264

type t = {
  frame : Hw.Addr.pfn;
  (* The backing frame stays the externally visible artifact (it is what
     Fidelius unmaps from the hypervisor); [snap_fields]/[snap_regs] cache
     the identical [int64] values so verify/restore move pointers between
     arrays instead of re-boxing each field out of the page bytes. Each
     store into the frame takes its bytes afresh through
     [Physmem.page_for_write], so the frame's write stamp sees it. *)
  snap_fields : int64 array;
  snap_regs : int64 array;
  mutable has_capture : bool;
  mutable reason : Vmcb.exit_reason;
}

let create ~backing =
  { frame = backing;
    snap_fields = Array.make Vmcb.nr_fields 0L;
    snap_regs = Array.make Cpu.nr_regs 0L;
    has_capture = false;
    reason = Vmcb.Cpuid }

let backing t = t.frame

let capture t machine vmcb reason =
  let cpu = machine.Hw.Machine.cpu in
  let bytes =
    Hw.Physmem.page_for_write machine.Hw.Machine.mem t.frame ~off:0 ~len:(flag_off + 1)
  in
  let at = Hw.Physmem.base t.frame in
  (* Snapshot: arrays first (pointer moves), then one fused pass that
     serializes each snapshotted value into the backing frame and applies
     the mask — zero the save area except the reason's visible fields, and
     zero every register the hypervisor has no business reading. *)
  Vmcb.snapshot_into vmcb t.snap_fields;
  Cpu.snapshot_regs_into cpu t.snap_regs;
  let ri = Vmcb.reason_index reason in
  let vis_f = vis_f_masks.(ri) and vis_r = vis_r_masks.(ri) in
  for i = 0 to Vmcb.nr_fields - 1 do
    Bytes.set_int64_be bytes (at + (8 * i)) (Array.unsafe_get t.snap_fields i);
    if save_area_mask land (1 lsl i) <> 0 && vis_f land (1 lsl i) = 0 then
      Vmcb.unsafe_set_i vmcb i 0L
  done;
  for i = 0 to Cpu.nr_regs - 1 do
    Bytes.set_int64_be bytes (at + 128 + (8 * i)) (Array.unsafe_get t.snap_regs i);
    if vis_r land (1 lsl i) = 0 then Cpu.unsafe_set_reg_i cpu i 0L
  done;
  Bytes.set_int64_be bytes (at + exit_off) (Vmcb.exit_reason_to_int64 reason);
  Bytes.set bytes (at + flag_off) '\001';
  t.has_capture <- true;
  t.reason <- reason;
  if Trace.enabled () then
    Trace.emit (Trace.Shadow_capture (Vmcb.exit_reason_to_string reason))

let has_capture t = t.has_capture

let verify_and_restore t machine vmcb =
  if not t.has_capture then
    Error "shadow: no captured state (VMRUN without a prior vmexit)"
  else begin
    let reason = t.reason in
    let cpu = machine.Hw.Machine.cpu in
    let ri = Vmcb.reason_index reason in
    let upd_f = Vmcb.exchange_field_masks.(ri) and vis_f = vis_f_masks.(ri) in
    (* A field outside the exchange must come back exactly as it was
       handed to the hypervisor: the shadow value if it was visible, the
       mask (zero) if it was hidden. *)
    let tampered = ref (-1) in
    let n = Array.length protected_idx in
    let k = ref 0 in
    while !tampered < 0 && !k < n do
      let i = Array.unsafe_get protected_idx !k in
      if upd_f land (1 lsl i) = 0 then begin
        let handed =
          if save_area_mask land (1 lsl i) <> 0 && vis_f land (1 lsl i) = 0 then 0L
          else Array.unsafe_get t.snap_fields i
        in
        if not (Int64.equal (Vmcb.unsafe_get_i vmcb i) handed) then tampered := i
      end;
      incr k
    done;
    if !tampered >= 0 then begin
      if Trace.enabled () then Trace.emit (Trace.Shadow_verify { ok = false });
      Error
        (Printf.sprintf "shadow: VMCB field %s tampered during %s exit"
           (Vmcb.field_to_string (Vmcb.field_of_index !tampered))
           (Vmcb.exit_reason_to_string reason))
    end
    else begin
      if Trace.enabled () then Trace.emit (Trace.Shadow_verify { ok = true });
      (* Restore: fields and registers outside the exchange come back from
         the shadow; the hypervisor's updates to the exchange stand. *)
      let upd_r = Vmcb.exchange_reg_masks.(ri) in
      for i = 0 to Vmcb.nr_fields - 1 do
        if upd_f land (1 lsl i) = 0 then
          Vmcb.unsafe_set_i vmcb i (Array.unsafe_get t.snap_fields i)
      done;
      for i = 0 to Cpu.nr_regs - 1 do
        if upd_r land (1 lsl i) = 0 then
          Cpu.unsafe_set_reg_i cpu i (Array.unsafe_get t.snap_regs i)
      done;
      t.has_capture <- false;
      Bytes.set
        (Hw.Physmem.page_for_write machine.Hw.Machine.mem t.frame ~off:flag_off ~len:1)
        (Hw.Physmem.base t.frame + flag_off) '\000';
      Ok ()
    end
  end
