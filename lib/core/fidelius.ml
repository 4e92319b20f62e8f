module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev

type t = Ctx.t

let install = Iso.install

let platform_key (ctx : t) = Sev.Firmware.platform_public ctx.Ctx.hv.Xen.Hypervisor.fw

(* The facade boots with a string error for casual callers; the typed
   variant lives in Lifecycle for consumers that must classify failures
   (the fault matrix, migration tests). *)
let boot_protected_vm ctx ~name ~memory_pages ~prepared =
  Result.map_error Lifecycle.boot_error_to_string
    (Lifecycle.boot_protected_vm ctx ~name ~memory_pages ~prepared)
let shutdown_protected_vm = Lifecycle.shutdown_protected_vm
let kblk_of_guest = Lifecycle.kblk_of_guest
let attestation_report = Lifecycle.attestation_report

let aesni_codec = Io_protect.aesni_codec
let setup_sev_io = Io_protect.setup_sev_io
let sev_codec = Io_protect.sev_codec
let setup_gek_io = Io_protect.setup_gek_io
let gek_codec = Io_protect.gek_codec

let share = Sharing.share
let unshare = Sharing.unshare

let violations = Ctx.violations
let is_protected = Ctx.is_protected
