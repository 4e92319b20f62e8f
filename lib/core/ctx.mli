(** The Fidelius context: all state of the trusted extension.

    Fidelius lives at the hypervisor's privilege level (sibling protection) —
    here that is rendered as: this record's data lives in frames that are
    unmapped or read-only in the hypervisor's address space, its code region
    is the only home of privileged instructions after the binary scan, and
    the CPU's [in_fidelius] flag marks when control is inside a gate. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen

type t = {
  hv : Xen.Hypervisor.t;
  machine : Hw.Machine.t;
  pit : Pit.t;
  git : Git_table.t;
  shadows : (int, Shadow.t) Hashtbl.t;
      (** domid -> shadow state of each live protected domain; the
          teardown ({!Lifecycle.shutdown_protected_vm}) drops the entry *)
  fid_text : Hw.Addr.pfn list;          (** Fidelius code, mapped RX in Xen *)
  vmrun_page : Hw.Addr.pfn;             (** VMRUN's only home, normally unmapped *)
  vmrun_pfns : Hw.Addr.pfn list;
      (** [[vmrun_page]], preallocated so the per-crossing type-3 gate call
          does not cons a fresh singleton *)
  cr3_page : Hw.Addr.pfn;               (** mov-CR3's only home, normally unmapped *)
  host_exec_ok : Hw.Addr.pfn -> bool;
      (** [Mmu.exec_ok machine hv.host_space], closed over once at install
          so gate WP toggles don't build the partial application per call *)
  xen_measurement : bytes;              (** SHA-256 of hypervisor text at late launch *)
  mutable protected_domids : int list;
  mutable next_domain_protected : bool;
      (** set by the lifecycle just before [create_domain] so the
          frame-allocation hook knows to revoke the hypervisor's mappings *)
  mutable teardown_for : int option;
      (** domid whose NPT unmaps are authorized; only {!with_teardown}
          sets it *)
  mutable boot_window : int option;
      (** domid whose frames the hypervisor may temporarily map writable to
          load the encrypted kernel image (paper Section 6.2) *)
  mutable gate1_count : int;
  mutable gate2_count : int;
  mutable gate3_count : int;
  mutable violations : string list;     (** audit log of denied operations *)
  exec_once_done : (string, unit) Hashtbl.t;
  write_once_bits : (string, Bytes.t) Hashtbl.t;
      (** the write-once policy's state: per-region bit-vector, one bit
          per byte (paper Section 5.3) *)
}

val is_protected : t -> int -> bool

val with_teardown : t -> int -> (unit -> 'a) -> 'a
(** [with_teardown t domid f] runs [f] with the NPT unmaps of [domid]
    authorized — the one teardown-authority window, used by the teardown
    of a protected domain and by a guest-initiated page release. The
    previous authority comes back on every exit, a raising [f]
    included. *)

val audit : t -> string -> unit
(** Record a denied operation for later auditing (paper Section 5.3). *)

val violations : t -> string list
(** Most recent first. *)
