type exit_reason =
  | Cpuid
  | Hlt
  | Vmmcall
  | Npf
  | Ioio
  | Msr
  | Intr
  | Shutdown

let exit_reason_to_int64 = function
  | Cpuid -> 0x72L
  | Hlt -> 0x78L
  | Vmmcall -> 0x81L
  | Npf -> 0x400L
  | Ioio -> 0x7bL
  | Msr -> 0x7cL
  | Intr -> 0x60L
  | Shutdown -> 0x7fL

let exit_reason_of_int64 = function
  | 0x72L -> Some Cpuid
  | 0x78L -> Some Hlt
  | 0x81L -> Some Vmmcall
  | 0x400L -> Some Npf
  | 0x7bL -> Some Ioio
  | 0x7cL -> Some Msr
  | 0x60L -> Some Intr
  | 0x7fL -> Some Shutdown
  | _ -> None

let exit_reason_to_string = function
  | Cpuid -> "CPUID"
  | Hlt -> "HLT"
  | Vmmcall -> "VMMCALL"
  | Npf -> "NPF"
  | Ioio -> "IOIO"
  | Msr -> "MSR"
  | Intr -> "INTR"
  | Shutdown -> "SHUTDOWN"

type field =
  | Rip | Rsp | Rax | Cr0 | Cr3 | Cr4 | Efer
  | Exit_reason | Exit_info1 | Exit_info2
  | Intercepts | Asid | Sev_enabled | Np_enabled | Np_cr3

let fields =
  [ Rip; Rsp; Rax; Cr0; Cr3; Cr4; Efer;
    Exit_reason; Exit_info1; Exit_info2;
    Intercepts; Asid; Sev_enabled; Np_enabled; Np_cr3 ]

let save_area = [ Rip; Rsp; Rax; Cr0; Cr3; Cr4; Efer ]

let field_to_string = function
  | Rip -> "rip" | Rsp -> "rsp" | Rax -> "rax"
  | Cr0 -> "cr0" | Cr3 -> "cr3" | Cr4 -> "cr4" | Efer -> "efer"
  | Exit_reason -> "exit_reason" | Exit_info1 -> "exit_info1" | Exit_info2 -> "exit_info2"
  | Intercepts -> "intercepts" | Asid -> "asid"
  | Sev_enabled -> "sev_enabled" | Np_enabled -> "np_enabled" | Np_cr3 -> "np_cr3"

let index = function
  | Rip -> 0 | Rsp -> 1 | Rax -> 2 | Cr0 -> 3 | Cr3 -> 4 | Cr4 -> 5 | Efer -> 6
  | Exit_reason -> 7 | Exit_info1 -> 8 | Exit_info2 -> 9
  | Intercepts -> 10 | Asid -> 11 | Sev_enabled -> 12 | Np_enabled -> 13 | Np_cr3 -> 14

type t = int64 array

let nr_fields = 15
let fields_a = Array.of_list fields
let field_of_index i = fields_a.(i)

let create () = Array.make 15 0L
let get t f = t.(index f)
let set t f v = t.(index f) <- v
let get_i (t : t) i = t.(i)
let set_i (t : t) i v = t.(i) <- v
let unsafe_get_i (t : t) i = Array.unsafe_get t i
let unsafe_set_i (t : t) i v = Array.unsafe_set t i v
let snapshot_into (t : t) dst = Array.blit t 0 dst 0 15

let exit_reason t = exit_reason_of_int64 (get t Exit_reason)

(* The exit exchange: SEV-ES's GHCB protocol, which Fidelius' shadowing
   renders in software. The lists are the definition; the masks are folds
   over them at init, so the per-crossing loops test bits and allocate
   nothing. *)
let exit_reasons = [| Cpuid; Hlt; Vmmcall; Npf; Ioio; Msr; Intr; Shutdown |]

let reason_index = function
  | Cpuid -> 0 | Hlt -> 1 | Vmmcall -> 2 | Npf -> 3
  | Ioio -> 4 | Msr -> 5 | Intr -> 6 | Shutdown -> 7

let exchange_fields = function
  | Cpuid | Vmmcall | Ioio | Msr -> [ Rip; Rax ]
  | Hlt | Intr -> [ Rip ]
  | Npf | Shutdown -> []

let exchange_regs = function
  | Cpuid -> [ Cpu.Rax; Cpu.Rbx; Cpu.Rcx; Cpu.Rdx ]
  | Vmmcall | Ioio -> [ Cpu.Rax ]
  | Msr -> [ Cpu.Rax; Cpu.Rdx ]
  | Npf | Hlt | Intr | Shutdown -> []

let field_mask fs = List.fold_left (fun m f -> m lor (1 lsl index f)) 0 fs
let reg_mask rs = List.fold_left (fun m r -> m lor (1 lsl Cpu.reg_index r)) 0 rs
let exchange_field_masks = Array.map (fun r -> field_mask (exchange_fields r)) exit_reasons
let exchange_reg_masks = Array.map (fun r -> reg_mask (exchange_regs r)) exit_reasons
