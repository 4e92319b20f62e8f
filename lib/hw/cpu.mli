(** CPU architectural state: mode, general-purpose registers and the control
    registers whose bits the paper's isolation depends on (CR0.WP, CR0.PG,
    CR4.SMEP, EFER.NXE, CR3).

    Control-register *setters* model the microarchitectural effect of the
    corresponding privileged instructions. Software never calls them
    directly: the only software-reachable path is {!Insn.execute}, whose
    handler (installed by Fidelius as a gate) decides whether the write is
    allowed and then runs the instruction's one effect, {!Insn.apply},
    which decodes the operand's bits. The [in_fidelius] flag records which
    protection context the host kernel is currently executing in — the
    simulator's rendering of "control is inside the Fidelius text
    section". *)

type mode =
  | Host
  | Guest of int  (** domain id *)

type reg =
  | Rax | Rbx | Rcx | Rdx | Rsi | Rdi | Rbp | Rsp
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

type t

val create : unit -> t
(** Fresh CPU in host mode, paging on, WP set, SMEP set, NXE set. *)

val mode : t -> mode
val set_mode : t -> mode -> unit

val get_reg : t -> reg -> int64
val set_reg : t -> reg -> int64 -> unit

val nr_regs : int
(** 16. *)

val reg_index : reg -> int
(** Dense 0-based index ([Rax] = 0 … [R15] = 15), matching {!regs} order. *)

val get_reg_i : t -> int -> int64
val set_reg_i : t -> int -> int64 -> unit
(** Indexed register access for preindexed loops (world-switch capture and
    restore); moving [int64]s between arrays this way copies pointers only,
    so the loops allocate nothing. *)

val unsafe_set_reg_i : t -> int -> int64 -> unit
(** Unchecked {!set_reg_i} for the per-crossing loops whose bounds are
    pinned to [0 .. nr_regs - 1]; the caller guarantees the range. *)

val snapshot_regs_into : t -> int64 array -> unit
(** Blit all 16 GPRs into a caller-owned array (allocation-free). *)

val all_regs : t -> (reg * int64) list

val rip : t -> int64
val set_rip : t -> int64 -> unit

val wp : t -> bool
val paging : t -> bool
val smep : t -> bool
val nxe : t -> bool
val cr3 : t -> int
(** Current address-space (page-table) id. *)

val in_fidelius : t -> bool
val enter_fidelius : t -> unit
val leave_fidelius : t -> unit

val priv_set_wp : t -> bool -> unit
(** Microcode effect of a CR0 write touching WP. *)

val priv_set_paging : t -> bool -> unit
val priv_set_smep : t -> bool -> unit
val priv_set_nxe : t -> bool -> unit
val priv_set_cr3 : t -> int -> unit

val reg_of_string : string -> reg option
val reg_to_string : reg -> string
val regs : reg list
