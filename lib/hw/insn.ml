type op =
  | Mov_cr0
  | Mov_cr3
  | Mov_cr4
  | Wrmsr
  | Vmrun
  | Lgdt
  | Lidt

let op_to_string = function
  | Mov_cr0 -> "mov-cr0"
  | Mov_cr3 -> "mov-cr3"
  | Mov_cr4 -> "mov-cr4"
  | Wrmsr -> "wrmsr"
  | Vmrun -> "vmrun"
  | Lgdt -> "lgdt"
  | Lidt -> "lidt"

let all_ops = [ Mov_cr0; Mov_cr3; Mov_cr4; Wrmsr; Vmrun; Lgdt; Lidt ]

let cr0_wp_bit = 16
let cr0_pg_bit = 31
let cr4_smep_bit = 20
let efer_nxe_bit = 11

(* Every decoded bit sits below 62, so the untagged-int view is exact and
   never boxes an [int64]. *)
let bit v pos = (Int64.to_int v lsr pos) land 1 = 1
let cr0_wp v = bit v cr0_wp_bit
let cr0_pg v = bit v cr0_pg_bit
let cr4_smep v = bit v cr4_smep_bit
let efer_nxe v = bit v efer_nxe_bit

let image set pos = if set then 1 lsl pos else 0
let cr0 ~pg ~wp = Int64.of_int (image pg cr0_pg_bit lor image wp cr0_wp_bit)
let cr4 ~smep = Int64.of_int (image smep cr4_smep_bit)
let efer ~nxe = Int64.of_int (image nxe efer_nxe_bit)

let apply cpu tlb op v =
  match op with
  | Mov_cr0 ->
      Cpu.priv_set_wp cpu (cr0_wp v);
      Cpu.priv_set_paging cpu (cr0_pg v)
  | Mov_cr4 -> Cpu.priv_set_smep cpu (cr4_smep v)
  | Wrmsr -> Cpu.priv_set_nxe cpu (efer_nxe v)
  | Mov_cr3 ->
      Cpu.priv_set_cr3 cpu (Int64.to_int v);
      Tlb.flush_all tlb
  | Lgdt | Lidt -> ()
  | Vmrun -> invalid_arg "Insn.apply: VMRUN's effect is the hypervisor's world switch"

type instance = {
  page : Addr.vfn;
  handler : int64 -> (unit, string) result;
}

type registry = {
  mutable placed : (op * instance) list;
  ledger : Cost.ledger;
}

let create ledger = { placed = []; ledger }

let place t op ~page ~handler =
  t.placed <- (op, { page; handler }) :: t.placed

let scrub t op ~keep =
  t.placed <-
    List.filter
      (fun (o, inst) -> (not (o = op)) || inst.page = keep)
      t.placed

let instances t op =
  List.filter_map (fun (o, inst) -> if o = op then Some inst.page else None) t.placed

let monopolized t op = List.length (instances t op) = 1

(* One pass over the placement list, no intermediate list: charge the
   fetch when the first instance of [op] is seen (same single charge the
   filter-then-find version made), dispatch to the first executable one. *)
let c_insn_fetch = Cost.intern "insn-fetch"

(* Module-level so the dispatch loop is closure-free: a guest re-entry
   (VMRUN) runs this once per world switch. *)
let rec exec_scan t ~exec_ok op value l seen =
  match l with
  | [] ->
      if seen then
        Error
          (Printf.sprintf "#PF(fetch): every %s instance lives in a non-executable page"
             (op_to_string op))
      else
        Error
          (Printf.sprintf "#UD: no %s instruction exists in the code region"
             (op_to_string op))
  | (o, inst) :: rest ->
      (* [op] values are constant constructors, so physical equality is
         exact and skips the generic compare call seven times per scan. *)
      if o == op then begin
        if not seen then Cost.charge_id t.ledger c_insn_fetch 1;
        if exec_ok inst.page then inst.handler value
        else exec_scan t ~exec_ok op value rest true
      end
      else exec_scan t ~exec_ok op value rest seen

let execute t ~exec_ok op value = exec_scan t ~exec_ok op value t.placed false

let inject t ~wx_ok op ~page ~handler =
  if wx_ok page then begin
    place t op ~page ~handler;
    Ok ()
  end
  else
    Error
      (Printf.sprintf "cannot inject %s at page 0x%x: no writable+executable mapping"
         (op_to_string op) page)
