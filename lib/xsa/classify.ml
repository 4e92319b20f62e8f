type effect =
  | Thwarted
  | Out_of_scope_qemu
  | Guest_flaw
  | Dos_not_targeted

let effect_of (r : Db.record) =
  match (r.Db.component, r.Db.category) with
  | Db.Qemu, _ -> Out_of_scope_qemu
  | Db.Hypervisor, Db.Privilege_escalation | Db.Hypervisor, Db.Information_leak -> Thwarted
  | Db.Hypervisor, Db.Guest_internal -> Guest_flaw
  | Db.Hypervisor, Db.Denial_of_service -> Dos_not_targeted


let why (r : Db.record) =
  match (r.Db.component, r.Db.category) with
  | Db.Qemu, _ ->
      "driver-domain code; protected-guest data stays encrypted on every path it touches"
  | Db.Hypervisor, Db.Privilege_escalation ->
      "escalation payloads need mapping/PTE/grant writes the PIT/GIT policies deny"
  | Db.Hypervisor, Db.Information_leak ->
      "leaked bytes are ciphertext or masked shadow state under Fidelius"
  | Db.Hypervisor, Db.Guest_internal ->
      "flaw inside the guest; explicitly outside the threat model (Section 3.2)"
  | Db.Hypervisor, Db.Denial_of_service ->
      "availability is not a confidentiality/integrity target (Section 3.2)"
