(** Fidelius — the public facade.

    A software extension to AMD SEV that provides comprehensive VM
    protection against an untrusted hypervisor (HPCA 2018). Install it over
    a booted {!Fidelius_xen.Hypervisor}, then drive protected guests through
    this module:

    {[
      let machine = Fidelius_hw.Machine.create ~seed:1L () in
      let hv = Fidelius_xen.Hypervisor.boot machine in
      let fid = Fidelius_core.Fidelius.install hv in
      let prepared = (* owner side, offline *)
        Fidelius_sev.Transport.Owner.prepare ~rng ~platform_public:(platform_key fid)
          ~policy:1 ~kernel_pages
      in
      match Fidelius_core.Fidelius.boot_protected_vm fid ~name:"tenant"
              ~memory_pages:32 ~prepared with
      | Ok dom -> ...
      | Error e -> ...
    ]} *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev

type t = Ctx.t
(** The installed Fidelius context. *)

val install : Xen.Hypervisor.t -> t
(** Late launch: measure the hypervisor, build PIT/GIT, write-protect the
    mapping structures and grant table, scrub and re-home the privileged
    instructions, wire the mediation gates, arm the IOMMU. See {!Iso}. *)

val platform_key : t -> Fidelius_crypto.Dh.public
(** The platform identity a guest owner targets when preparing an encrypted
    kernel image. *)

(** {2 VM life cycle} *)

val boot_protected_vm :
  t -> name:string -> memory_pages:int -> prepared:Sev.Transport.Owner.prepared ->
  (Xen.Domain.t, string) result

val shutdown_protected_vm : t -> Xen.Domain.t -> unit
val kblk_of_guest : t -> Xen.Domain.t -> bytes
val attestation_report : t -> string

(** {2 I/O protection} *)

val aesni_codec : t -> kblk:bytes -> Xen.Blkif.codec
val setup_sev_io :
  t -> Xen.Domain.t -> md_gvfn:Hw.Addr.vfn -> (Io_protect.sev_io, string) result
val sev_codec : Io_protect.sev_io -> Xen.Blkif.codec
val setup_gek_io :
  t -> Xen.Domain.t -> md_gvfn:Hw.Addr.vfn -> (Io_protect.gek_io, string) result
val gek_codec : Io_protect.gek_io -> Xen.Blkif.codec

(** {2 Memory sharing} *)

val share :
  t ->
  owner:Xen.Domain.t -> peer:Xen.Domain.t ->
  owner_gvfn:Hw.Addr.vfn -> peer_gvfn:Hw.Addr.vfn -> writable:bool ->
  (Sharing.shared, string) result

val unshare : t -> owner:Xen.Domain.t -> Sharing.shared -> (unit, string) result

(** {2 Introspection} *)

val violations : t -> string list
(** Audit log of denied operations, most recent first. *)

val is_protected : t -> int -> bool
