(** Fidelius-effect classification of XSAs (paper Section 6.2).

    Fidelius thwarts hypervisor-side privilege escalations and information
    leaks (its isolation means a compromised hypervisor no longer holds the
    permissions those bugs abuse); QEMU bugs live in the driver domain and
    are out of Fidelius' code base but their *impact* on protected-guest
    confidentiality is already covered by memory/I/O encryption; guest-
    internal flaws and DoS are explicitly out of the threat model. *)

type effect =
  | Thwarted            (** hypervisor privesc/leak: blocked by Fidelius *)
  | Out_of_scope_qemu
  | Guest_flaw
  | Dos_not_targeted

val effect_of : Db.record -> effect

val why : Db.record -> string
(** One-line rationale naming the Fidelius mechanism (or the reason it is
    out of scope). *)
