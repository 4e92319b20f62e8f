module Hw = Fidelius_hw
module Xen = Fidelius_xen

type t = {
  ctx : Ctx.t;
  dom : Xen.Domain.t;
  bmt : Hw.Bmt.t;
  (* While [guest_write] stores: the frames holding the first and last
     byte of its range, the only ones whose blocks it can cover partly;
     -1 otherwise. *)
  mutable store_first : Hw.Addr.pfn;
  mutable store_last : Hw.Addr.pfn;
}

let protect ctx (dom : Xen.Domain.t) =
  let bmt = Hw.Bmt.create ctx.Ctx.machine ~frames:dom.Xen.Domain.frames in
  let t = { ctx; dom; bmt; store_first = -1; store_last = -1 } in
  (* Arm the controller's inline check: any encrypted fetch of a covered
     frame is verified against the tree as it happens, so a misrouted or
     disturbed fill surfaces as a Denial.Denied at the access — not as
     silently garbled guest state. Frames outside the tree pass through.
     The cache reloads a line that a store covers partly from DRAM right
     after the store, before [guest_write] refreshes the leaf: that fill
     is checked against the leaf plus the store. *)
  Hw.Memctrl.set_fetch_check ctx.Ctx.machine.Hw.Machine.ctrl
    (Some
       (fun pfn ~src ->
         if not (Hw.Bmt.covered bmt pfn) then Ok ()
         else if pfn = t.store_first || pfn = t.store_last then
           Hw.Bmt.verify_store_fill bmt pfn ~src
         else Hw.Bmt.verify_fill bmt pfn ~src));
  t

let last_gvfn ~addr ~len = Hw.Addr.frame_of (addr + Int.max 0 (len - 1))

(* The host frame behind guest-virtual frame [gvfn], resolved through the
   guest's own tables (gva -> gfn -> pfn) with the packed lookups, so no
   option or record is built per frame; [packed_absent] when either step
   is missing, and [unresolved] then says which. *)
let frame_of t gvfn =
  let gpte = Hw.Pagetable.lookup_packed t.dom.Xen.Domain.gpt gvfn in
  if gpte = Hw.Pagetable.packed_absent then gpte
  else
    let npte = Hw.Pagetable.lookup_packed t.dom.Xen.Domain.npt (Hw.Pagetable.packed_frame gpte) in
    if npte = Hw.Pagetable.packed_absent then npte else Hw.Pagetable.packed_frame npte

let unresolved t gvfn =
  let gpte = Hw.Pagetable.lookup_packed t.dom.Xen.Domain.gpt gvfn in
  if gpte = Hw.Pagetable.packed_absent then
    Error (Printf.sprintf "integrity: gva frame 0x%x unmapped" gvfn)
  else Error (Printf.sprintf "integrity: gfn 0x%x unbacked" (Hw.Pagetable.packed_frame gpte))

(* The first frame of [first..last] that does not resolve, or -1. *)
let first_unresolved t first last =
  let g = ref first in
  while !g <= last && frame_of t !g <> Hw.Pagetable.packed_absent do
    incr g
  done;
  if !g > last then -1 else !g

let verified_read t ~addr ~len =
  let first = Hw.Addr.frame_of addr and last = last_gvfn ~addr ~len in
  let bad = first_unresolved t first last in
  if bad >= 0 then unresolved t bad
  else begin
    (* Every frame resolves: verify them in order, up to the first
       failure. *)
    let g = ref first and r = ref (Ok ()) in
    while Result.is_ok !r && !g <= last do
      r := Hw.Bmt.verify t.bmt (frame_of t !g);
      incr g
    done;
    match !r with
    | Error _ as e -> e
    | Ok () ->
        Ok
          (Xen.Hypervisor.in_guest t.ctx.Ctx.hv t.dom (fun () ->
               Xen.Domain.read t.ctx.Ctx.machine t.dom ~addr ~len))
  end

let guest_write t ~addr data =
  let first = Hw.Addr.frame_of addr and last = last_gvfn ~addr ~len:(Bytes.length data) in
  t.store_first <- frame_of t first;
  t.store_last <- frame_of t last;
  (match
     Xen.Hypervisor.in_guest t.ctx.Ctx.hv t.dom (fun () ->
         Xen.Domain.write t.ctx.Ctx.machine t.dom ~addr data)
   with
  | () ->
      t.store_first <- -1;
      t.store_last <- -1
  | exception e ->
      t.store_first <- -1;
      t.store_last <- -1;
      raise e);
  if first_unresolved t first last < 0 then
    if first = last then Hw.Bmt.update t.bmt (frame_of t first)
    else
      (* One batch: a write spanning k frames rebuilds each shared
         ancestor once instead of once per frame. *)
      Hw.Bmt.update_many t.bmt (List.init (last - first + 1) (fun i -> frame_of t (first + i)))

let verify_domain t = Hw.Bmt.verify_all t.bmt

let bmt t = t.bmt
let root t = Hw.Bmt.root t.bmt
let hashes_performed t = Hw.Bmt.hashes_performed t.bmt
