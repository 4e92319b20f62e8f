type mode =
  | Host
  | Guest of int

type reg =
  | Rax | Rbx | Rcx | Rdx | Rsi | Rdi | Rbp | Rsp
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

let regs =
  [ Rax; Rbx; Rcx; Rdx; Rsi; Rdi; Rbp; Rsp; R8; R9; R10; R11; R12; R13; R14; R15 ]

let reg_index = function
  | Rax -> 0 | Rbx -> 1 | Rcx -> 2 | Rdx -> 3 | Rsi -> 4 | Rdi -> 5 | Rbp -> 6 | Rsp -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11 | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let reg_to_string = function
  | Rax -> "rax" | Rbx -> "rbx" | Rcx -> "rcx" | Rdx -> "rdx"
  | Rsi -> "rsi" | Rdi -> "rdi" | Rbp -> "rbp" | Rsp -> "rsp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10" | R11 -> "r11"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"

let reg_of_string s =
  List.find_opt (fun r -> String.equal (reg_to_string r) s) regs

type t = {
  mutable cpu_mode : mode;
  gprs : int64 array;
  mutable cpu_rip : int64;
  mutable cr0_wp : bool;
  mutable cr0_pg : bool;
  mutable cr3_space : int;
  mutable cr4_smep : bool;
  mutable efer_nxe : bool;
  mutable fidelius_ctx : bool;
}

let create () =
  { cpu_mode = Host;
    gprs = Array.make 16 0L;
    cpu_rip = 0L;
    cr0_wp = true;
    cr0_pg = true;
    cr3_space = 0;
    cr4_smep = true;
    efer_nxe = true;
    fidelius_ctx = false }

let mode t = t.cpu_mode
let set_mode t m = t.cpu_mode <- m

let get_reg t r = t.gprs.(reg_index r)
let set_reg t r v = t.gprs.(reg_index r) <- v
let nr_regs = 16
let get_reg_i t i = t.gprs.(i)
let set_reg_i t i v = t.gprs.(i) <- v
let unsafe_set_reg_i t i v = Array.unsafe_set t.gprs i v
let snapshot_regs_into t dst = Array.blit t.gprs 0 dst 0 16
let all_regs t = List.map (fun r -> (r, get_reg t r)) regs

let rip t = t.cpu_rip
let set_rip t v = t.cpu_rip <- v

let wp t = t.cr0_wp
let paging t = t.cr0_pg
let smep t = t.cr4_smep
let nxe t = t.efer_nxe
let cr3 t = t.cr3_space

let in_fidelius t = t.fidelius_ctx
let enter_fidelius t = t.fidelius_ctx <- true
let leave_fidelius t = t.fidelius_ctx <- false

let priv_set_wp t v = t.cr0_wp <- v
let priv_set_paging t v = t.cr0_pg <- v
let priv_set_smep t v = t.cr4_smep <- v
let priv_set_nxe t v = t.efer_nxe <- v
let priv_set_cr3 t v = t.cr3_space <- v
