(** Secure inter-VM memory sharing (paper Section 4.3.7).

    The flow a cooperative pair of guests runs: the initiator declares its
    intent with the [pre_sharing_op] hypercall (recorded in the GIT) and
    offers the pages through the ordinary grant-table hypercall (now
    GIT-validated) — {!Xen.Hypervisor.grant_pages}, the grant flow the
    block and network drivers run too — and the peer maps each grant
    reference. A hypervisor that forges or
    widens the grant, or redirects it to a conspirator, is denied by the GIT
    policy. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen

type shared = {
  gref : int;
  owner_gfn : Hw.Addr.gfn;  (** the owner's guest-physical frame being shared *)
  owner_gvfn : Hw.Addr.vfn;   (** where the owner mapped the shared page *)
  peer_gvfn : Hw.Addr.vfn;    (** where the peer mapped it *)
  frame : Hw.Addr.pfn;        (** the backing host frame *)
}

val share :
  Ctx.t ->
  owner:Xen.Domain.t -> peer:Xen.Domain.t ->
  owner_gvfn:Hw.Addr.vfn -> peer_gvfn:Hw.Addr.vfn ->
  writable:bool ->
  (shared, string) result
(** Establish a shared (necessarily unencrypted) page between two guests.
    The owner's page is freshly allocated at [owner_gvfn]. This is
    {!share_range} with [~nr:1]. *)

val share_range :
  Ctx.t ->
  owner:Xen.Domain.t -> peer:Xen.Domain.t ->
  owner_gvfn:Hw.Addr.vfn -> peer_gvfn:Hw.Addr.vfn ->
  nr:int -> writable:bool ->
  (shared list, string) result
(** Multi-frame sharing under a single pre_sharing_op intent — the paper's
    hypercall carries "the number of shared frames" precisely for this. One
    grant entry per frame, all validated against the one recorded range;
    the peer maps the frames once the owner has granted them all. *)

val owner_write : Ctx.t -> Xen.Domain.t -> shared -> off:int -> bytes -> unit
val peer_read : Ctx.t -> Xen.Domain.t -> shared -> off:int -> len:int -> bytes
val peer_write : Ctx.t -> Xen.Domain.t -> shared -> off:int -> bytes -> unit
(** Guest-mode accesses through each side's own mapping. *)

val unshare : Ctx.t -> owner:Xen.Domain.t -> shared -> (unit, string) result
(** End the grant and revoke the GIT intent. *)
