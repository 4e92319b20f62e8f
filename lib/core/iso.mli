(** Fidelius installation: late launch, non-bypassable memory isolation,
    binary scan, gated privileged instructions and mediation-hook wiring
    (paper Sections 4.1 and 4.3.1).

    After {!install} returns:

    - the hypervisor's page-table-pages, the guests' NPT pages and the grant
      table are mapped read-only in the hypervisor's address space;
    - PIT, GIT, shadow frames and SEV metadata are unmapped from it;
    - each privileged instruction of Table 2 exists exactly once, on a
      Fidelius page, wrapped in its checking-loop policy; VMRUN and
      [mov CR3] live on pages that are unmapped until a type-3 gate
      opens them;
    - every mediated path of the hypervisor (NPT updates, host-mapping
      updates, grant updates, vmexit/vmrun boundaries, frame
      allocation/release, [pre_sharing_op]) runs through Fidelius gates
      with policy enforcement — the guest-initiated NPT changes
      (Enable_mem_enc, Balloon_release) included, since the hypervisor
      runs their one body through these hooks; a page release's unmap
      runs under {!Ctx.with_teardown} for the releasing domain;
    - DMA is filtered by the IOMMU to frames whose PIT usage permits it. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen

val install : Xen.Hypervisor.t -> Ctx.t

val new_shadow : Ctx.t -> Xen.Domain.t -> Shadow.t
(** Allocate (or fetch) the shadow state for a domain, backed by a
    Fidelius-private frame. *)

val measure_xen_text : Xen.Hypervisor.t -> bytes
(** SHA-256 over the hypervisor's code region — the integrity measurement
    Fidelius takes during its own boot for remote attestation. *)
