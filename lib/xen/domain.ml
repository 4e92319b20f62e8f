module Hw = Fidelius_hw

type lifecycle =
  | Created
  | Runnable
  | Paused
  | Dying

type t = {
  domid : int;
  domid64 : int64;
  scope : string;
  guest_mode : Hw.Cpu.mode;
  name : string;
  is_dom0 : bool;
  gpt : Hw.Pagetable.t;
  npt : Hw.Pagetable.t;
  vmcb : Hw.Vmcb.t;
  mutable asid : int;
  (* Preallocated [Asid asid] selector for the per-access paths; anything
     that reassigns [asid] must refresh this alongside it. *)
  mutable asid_sel : Hw.Memctrl.selector;
  mutable sev_handle : int option;
  mutable sev_protected : bool;
  mutable sev_es : bool;
  vmsa : Hw.Vmcb.t;
  vmsa_regs : int64 array;
  mutable last_exit : Hw.Vmcb.exit_reason option;
  mutable state : lifecycle;
  mutable frames : Hw.Addr.pfn list;
  mutable next_free_gfn : Hw.Addr.gfn;
  msrs : (int, int64) Hashtbl.t;
  dirty : Hw.Dirty.t;
  mutable vmrun_thunk : (unit -> (unit, string) result) option;
}

let create machine ~domid ~name ~is_dom0 ~asid =
  let vmcb = Hw.Vmcb.create () in
  Hw.Vmcb.set vmcb Hw.Vmcb.Asid (Int64.of_int asid);
  { domid;
    domid64 = Int64.of_int domid;
    scope = "dom" ^ string_of_int domid;
    guest_mode = Hw.Cpu.Guest domid;
    name;
    is_dom0;
    gpt = Hw.Machine.new_table machine;
    npt = Hw.Machine.new_table machine;
    vmcb;
    asid;
    asid_sel = Hw.Memctrl.Asid asid;
    sev_handle = None;
    sev_protected = false;
    sev_es = false;
    vmsa = Hw.Vmcb.create ();
    vmsa_regs = Array.make 16 0L;
    last_exit = None;
    state = Created;
    frames = [];
    next_free_gfn = 0;
    msrs = Hashtbl.create 8;
    dirty = Hw.Dirty.create ();
    vmrun_thunk = None }

let guest_map t ~gvfn ~gfn ~writable ~executable ~c_bit =
  Hw.Pagetable.hw_set t.gpt gvfn
    (Some { Hw.Pagetable.frame = gfn; writable; executable; c_bit })

let read_into machine t ~addr ~len ~dst ~dst_off =
  Hw.Mmu.guest_read_sel_into machine ~domid:t.domid ~gpt:t.gpt ~npt:t.npt
    ~asid_sel:t.asid_sel ~addr ~len ~dst ~dst_off

let read machine t ~addr ~len =
  Hw.Mmu.guest_read_sel machine ~domid:t.domid ~gpt:t.gpt ~npt:t.npt
    ~asid_sel:t.asid_sel ~addr ~len

(* Dirty logging rides the guest-store path: every frame a write touches
   is marked before the MMU sees the store, so a faulting write can only
   over-report (a resent clean page is harmless; a missed dirty page would
   corrupt the migrated guest). One boolean test when tracking is off. *)
let log_dirty t ~addr ~len =
  if Hw.Dirty.tracking t.dirty && len > 0 then
    for gvfn = Hw.Addr.frame_of addr to Hw.Addr.frame_of (addr + len - 1) do
      match Hw.Pagetable.lookup t.gpt gvfn with
      | Some gpte -> Hw.Dirty.mark t.dirty gpte.Hw.Pagetable.frame
      | None -> ()
    done

let write machine t ~addr data =
  log_dirty t ~addr ~len:(Bytes.length data);
  Hw.Mmu.guest_write_sel machine ~domid:t.domid ~gpt:t.gpt ~npt:t.npt
    ~asid_sel:t.asid_sel ~addr data

let alloc_gfn t =
  let gfn = t.next_free_gfn in
  t.next_free_gfn <- gfn + 1;
  gfn
