module Hw = Fidelius_hw
module Xen = Fidelius_xen

type t = {
  hv : Xen.Hypervisor.t;
  machine : Hw.Machine.t;
  pit : Pit.t;
  git : Git_table.t;
  shadows : (int, Shadow.t) Hashtbl.t;
  fid_text : Hw.Addr.pfn list;
  vmrun_page : Hw.Addr.pfn;
  vmrun_pfns : Hw.Addr.pfn list;
  cr3_page : Hw.Addr.pfn;
  host_exec_ok : Hw.Addr.pfn -> bool;
  xen_measurement : bytes;
  mutable protected_domids : int list;
  mutable next_domain_protected : bool;
  mutable teardown_for : int option;
  mutable boot_window : int option;
  mutable gate1_count : int;
  mutable gate2_count : int;
  mutable gate3_count : int;
  mutable violations : string list;
  exec_once_done : (string, unit) Hashtbl.t;
  write_once_bits : (string, Bytes.t) Hashtbl.t;
}

let is_protected t domid = List.mem domid t.protected_domids

let with_teardown t domid f =
  let saved = t.teardown_for in
  t.teardown_for <- Some domid;
  Fun.protect ~finally:(fun () -> t.teardown_for <- saved) f

let audit t msg = t.violations <- msg :: t.violations

let violations t = t.violations
