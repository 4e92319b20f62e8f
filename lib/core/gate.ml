module Hw = Fidelius_hw
module Trace = Fidelius_obs.Trace

(* Charge sites, interned once. *)
let c_gate1 = Hw.Cost.intern "gate1"
let c_gate2 = Hw.Cost.intern "gate2"
let c_gate3 = Hw.Cost.intern "gate3"

(* Both CR0 images are computed once (PG always on, WP toggled), so the
   per-toggle value is never recomputed or boxed. *)
let cr0_wp_set = Hw.Insn.cr0 ~pg:true ~wp:true
let cr0_wp_clear = Hw.Insn.cr0 ~pg:true ~wp:false

let cr0_value ~wp = if wp then cr0_wp_set else cr0_wp_clear

let set_wp_via_insn (ctx : Ctx.t) wp =
  let machine = ctx.Ctx.machine in
  match
    Hw.Insn.execute machine.Hw.Machine.insns ~exec_ok:ctx.Ctx.host_exec_ok
      Hw.Insn.Mov_cr0 (cr0_value ~wp)
  with
  | Ok () -> ()
  | Error e -> failwith ("fidelius gate: monopolized mov-cr0 failed: " ^ e)

(* Force WP to a known state even if the monopolized-instruction path is
   in a broken state; the fallback writes the bit directly. *)
let wp_off (ctx : Ctx.t) cpu =
  try set_wp_via_insn ctx false with _ -> Hw.Cpu.priv_set_wp cpu false

let wp_on (ctx : Ctx.t) cpu =
  try set_wp_via_insn ctx true with _ -> Hw.Cpu.priv_set_wp cpu true

let with_type1 (ctx : Ctx.t) f =
  let machine = ctx.Ctx.machine in
  let cpu = machine.Hw.Machine.cpu in
  if Hw.Cpu.in_fidelius cpu then Error "gate1: not re-entrant"
  else begin
    ctx.Ctx.gate1_count <- ctx.Ctx.gate1_count + 1;
    Hw.Cost.charge_id machine.Hw.Machine.ledger c_gate1 machine.Hw.Machine.costs.Hw.Cost.gate1;
    if Trace.enabled () then Trace.emit (Trace.Gate 1);
    Hw.Cpu.enter_fidelius cpu;
    let restore () =
      (* The context flag must never leak. *)
      wp_on ctx cpu;
      Hw.Cpu.leave_fidelius cpu
    in
    match
      set_wp_via_insn ctx false;
      f ()
    with
    | result ->
        restore ();
        result
    | exception e ->
        restore ();
        raise e
  end

let charge_type2 (ctx : Ctx.t) =
  let machine = ctx.Ctx.machine in
  ctx.Ctx.gate2_count <- ctx.Ctx.gate2_count + 1;
  Hw.Cost.charge_id machine.Hw.Machine.ledger c_gate2 machine.Hw.Machine.costs.Hw.Cost.gate2;
  if Trace.enabled () then Trace.emit (Trace.Gate 2)

(* The type-3 map/withdraw loops are module-level recursive functions, not
   per-call closures, and thread packed PTE values — one gate crossing
   allocates nothing. *)
let rec map_pfns machine host_space ~executable = function
  | [] -> ()
  | pfn :: rest ->
      Hw.Mmu.set_pte_packed machine ~space:host_space ~table:host_space pfn
        (Hw.Pagetable.packed_make ~frame:pfn ~writable:(not executable) ~executable
           ~c_bit:false);
      map_pfns machine host_space ~executable rest

let rec unmap_pfns machine host_space = function
  | [] -> ()
  | pfn :: rest ->
      Hw.Mmu.set_pte_packed machine ~space:host_space ~table:host_space pfn
        Hw.Pagetable.packed_absent;
      unmap_pfns machine host_space rest

(* Best-effort teardown: withdraw the mappings inside a WP window and drop
   the context flag, swallowing secondary faults so the original outcome
   (result or exception) survives. *)
let withdraw (ctx : Ctx.t) cpu machine host_space pfns =
  (try
     wp_off ctx cpu;
     match unmap_pfns machine host_space pfns with
     | () -> wp_on ctx cpu
     | exception _ -> wp_on ctx cpu
   with _ -> ());
  Hw.Cpu.leave_fidelius cpu

let with_type3 (ctx : Ctx.t) ~pfns ~executable f =
  let machine = ctx.Ctx.machine in
  let cpu = machine.Hw.Machine.cpu in
  let host_space = ctx.Ctx.hv.Fidelius_xen.Hypervisor.host_space in
  ctx.Ctx.gate3_count <- ctx.Ctx.gate3_count + 1;
  Hw.Cost.charge_id machine.Hw.Machine.ledger c_gate3
    (machine.Hw.Machine.costs.Hw.Cost.gate3 * List.length pfns);
  if Trace.enabled () then Trace.emit (Trace.Gate 3);
  Hw.Cpu.enter_fidelius cpu;
  (* The mapping add/withdraw is a single PTE write each way; the host
     page-table-page is read-only for Xen, so do it inside a WP-cleared
     window (the pre-allocated address-space trick of the paper). *)
  (match
     wp_off ctx cpu;
     map_pfns machine host_space ~executable pfns
   with
  | () -> wp_on ctx cpu
  | exception e ->
      wp_on ctx cpu;
      withdraw ctx cpu machine host_space pfns;
      raise e);
  match f () with
  | result ->
      withdraw ctx cpu machine host_space pfns;
      result
  | exception e ->
      withdraw ctx cpu machine host_space pfns;
      raise e

let counts (ctx : Ctx.t) = (ctx.Ctx.gate1_count, ctx.Ctx.gate2_count, ctx.Ctx.gate3_count)
