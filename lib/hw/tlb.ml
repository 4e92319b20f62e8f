module Trace = Fidelius_obs.Trace
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

(* Charge sites, interned once. *)
let c_tlb_hit = Cost.intern "tlb-hit"
let c_tlb_miss = Cost.intern "tlb-miss"
let c_tlb_flush = Cost.intern "tlb-flush"

type t = {
  cached : (int, unit) Hashtbl.t;
  ledger : Cost.ledger;
  costs : Cost.table;
  mutable full_flushes : int;
  (* Most-recently-hit key: straight-line access runs re-translate the
     same page, so this one-entry front answers most lookups without the
     hashed probe. [min_int] = empty; charges are identical either way. *)
  mutable mru : int;
}

(* One tagged int per translation: the space id above bit 40, the vfn
   below — no tuple allocation per lookup. 40 bits of vfn is the same
   ceiling the PTE encoding imposes on frame numbers. *)
let key ~space_id vfn = (space_id lsl 40) lor vfn

let create ledger =
  { cached = Hashtbl.create 1024; ledger; costs = Cost.default; full_flushes = 0;
    mru = min_int }

let lookup t ~space_id vfn =
  let key = key ~space_id vfn in
  if key = t.mru || Hashtbl.mem t.cached key then begin
    Cost.charge_id t.ledger c_tlb_hit t.costs.Cost.cache_hit;
    t.mru <- key;
    true
  end
  else begin
    Cost.charge_id t.ledger c_tlb_miss t.costs.Cost.tlb_miss_walk;
    if Trace.enabled () then Trace.emit (Trace.Walk { space = space_id; vfn });
    Hashtbl.replace t.cached key ();
    t.mru <- key;
    false
  end

(* A hypervisor that "forgets" TLB maintenance does no work at all: the
   omitted flush charges nothing and invalidates nothing. [record] gates
   only the trace event, never the charge or the injection site. *)
let flush_entry t ~space_id ~record vfn =
  if Plan.armed () && Plan.fire Site.Tlb_omit_flush then ()
  else begin
    let key = key ~space_id vfn in
    if key = t.mru then t.mru <- min_int;
    Hashtbl.remove t.cached key;
    Cost.charge_id t.ledger c_tlb_flush t.costs.Cost.tlb_flush_entry;
    if record && Trace.enabled () then Trace.emit (Trace.Tlb_flush { full = false })
  end

(* The flushes of a run of [count] entries from [first] on, as
   [flush_entry] makes them one by one, booked in one charge. The
   omit-flush site is per flush, so a run refuses to start under an
   armed plan. A space's keys from [first] to [first + count - 1] are
   one range of ints, so one sweep of what the TLB holds drops them (at
   boot it holds nothing). *)
let flush_run t ~space_id first count =
  if Plan.armed () then invalid_arg "Tlb.flush_run: an inject plan is armed";
  if count > 0 then begin
    let lo = key ~space_id first and hi = key ~space_id (first + count - 1) in
    if t.mru >= lo && t.mru <= hi then t.mru <- min_int;
    if Hashtbl.length t.cached > 0 then
      Hashtbl.filter_map_inplace
        (fun k () -> if k >= lo && k <= hi then None else Some ())
        t.cached;
    Cost.charge_id t.ledger c_tlb_flush (count * t.costs.Cost.tlb_flush_entry)
  end

let flush_all t =
  if Plan.armed () && Plan.fire Site.Tlb_omit_flush then ()
  else begin
    Hashtbl.reset t.cached;
    t.mru <- min_int;
    t.full_flushes <- t.full_flushes + 1;
    Cost.charge_id t.ledger c_tlb_flush t.costs.Cost.tlb_flush_full;
    if Trace.enabled () then Trace.emit (Trace.Tlb_flush { full = true })
  end

let entries t = Hashtbl.length t.cached
let flushes t = t.full_flushes
