(** Privileged-instruction placement registry.

    The paper's isolation depends on controlling *where* certain privileged
    instructions exist in the host code region (Table 2): after a binary
    scan, each dangerous opcode exists exactly once ("monopolized"), wrapped
    in Fidelius' gate logic; VMRUN and [mov CR3] additionally live in pages
    that are unmapped from the hypervisor's view until a type-3 gate remaps
    them.

    The registry records instruction instances (opcode, page, handler) and
    is the only software path to their effects: {!execute} checks that the
    acting address space currently maps the instance's page executable —
    i.e. the very check the hardware instruction fetch performs — and then
    runs the installed handler, which carries the gate's policy. *)

type op =
  | Mov_cr0
  | Mov_cr3
  | Mov_cr4
  | Wrmsr   (** EFER writes *)
  | Vmrun
  | Lgdt
  | Lidt

val op_to_string : op -> string
val all_ops : op list

val cr0_wp : int64 -> bool
val cr0_pg : int64 -> bool
val cr4_smep : int64 -> bool
val efer_nxe : int64 -> bool
(** The one decoding of the control-register bits the paper's isolation
    depends on (Table 2) — CR0.WP bit 16, CR0.PG bit 31, CR4.SMEP bit 20,
    EFER.NXE bit 11 — read by {!apply} and by Fidelius' policy checks. *)

val cr0 : pg:bool -> wp:bool -> int64
val cr4 : smep:bool -> int64
val efer : nxe:bool -> int64
(** The matching encoders: the register image with exactly the named
    bits set, for the gates' CR0 writes, the hypervisor's EFER read-back
    and the attacks' hostile writes. *)

val apply : Cpu.t -> Tlb.t -> op -> int64 -> unit
(** An instruction's one architectural effect: mov-CR0 sets WP and PG,
    mov-CR4 SMEP, WRMSR(EFER) NXE; mov-CR3 loads the address space and
    flushes the TLB; LGDT/LIDT change nothing modelled. Stock handlers run
    it as is, Fidelius' after their policy check. Allocates nothing.
    Raises [Invalid_argument] on [Vmrun], whose effect is the world
    switch. *)

type registry

val create : Cost.ledger -> registry

val place :
  registry -> op -> page:Addr.vfn -> handler:(int64 -> (unit, string) result) -> unit
(** Boot-time placement (trusted setup or pre-scan hypervisor code). *)

val scrub : registry -> op -> keep:Addr.vfn -> unit
(** The binary scan: remove every instance of [op] except those on page
    [keep]. *)

val instances : registry -> op -> Addr.vfn list
val monopolized : registry -> op -> bool
(** True when exactly one instance of [op] exists. *)

val execute :
  registry -> exec_ok:(Addr.vfn -> bool) -> op -> int64 -> (unit, string) result
(** Fetch-check then run. [Error] carries the fault or policy-denial
    reason. When several instances exist (pre-scan), the first executable
    one runs — which is exactly why the scan matters. *)

val inject :
  registry ->
  wx_ok:(Addr.vfn -> bool) ->
  op -> page:Addr.vfn -> handler:(int64 -> (unit, string) result) ->
  (unit, string) result
(** Code-injection attempt at runtime: succeeds only if the target page is
    simultaneously writable and executable in the acting address space
    ([wx_ok]), which Fidelius' W^X layout rules out. *)
