module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev

let ( let* ) = Result.bind

(* Classified by call site, not by string matching: the boot path knows
   whether a step was the platform's verification verdict or mere
   mechanics, and downstream consumers (migration, the fault matrix) need
   that distinction to tell "fail closed with detection" from "boot simply
   did not happen". *)
type boot_error =
  | Rejected of string
      (* firmware verification refused the image: RECEIVE_START key unwrap
         or RECEIVE_FINISH measurement *)
  | Failed of string
      (* mechanical boot failure: image too large, load/mediation error,
         ACTIVATE, first VMRUN *)

let boot_error_to_string = function Rejected e | Failed e -> e

let start ctx dom = Xen.Hypervisor.vmrun ctx.Ctx.hv dom

(* The one boot-window write (paper Section 6.2): the hypervisor maps one
   frame of the domain writable, writes inside it and unmaps it. The
   window opens for this one write; it closes and the frame is unmapped on
   every exit, a refused map or a raising write included. A range that
   leaves the frame is refused before anything opens, compared by
   subtraction so a hypervisor-chosen [off] cannot wrap the bound.
   Returns the frame written. *)
let boot_write ctx (dom : Xen.Domain.t) ~gfn ~off data =
  let len = Bytes.length data in
  if off < 0 || off > Hw.Addr.page_size || len > Hw.Addr.page_size - off then
    Error (Printf.sprintf "boot write: %d bytes at offset %d leave the frame" len off)
  else
    match Hw.Pagetable.lookup dom.Xen.Domain.npt gfn with
    | None -> Error (Printf.sprintf "boot write: gfn 0x%x not populated" gfn)
    | Some { Hw.Pagetable.frame = pfn; _ } ->
        let map = ctx.Ctx.hv.Xen.Hypervisor.med.Xen.Hypervisor.host_map_update pfn in
        let unmapped = ref (Ok ()) in
        ctx.Ctx.boot_window <- Some dom.Xen.Domain.domid;
        let* () =
          Fun.protect
            ~finally:(fun () ->
              ctx.Ctx.boot_window <- None;
              unmapped := map None)
            (fun () ->
              let* () =
                map
                  (Some
                     { Hw.Pagetable.frame = pfn; writable = true; executable = false; c_bit = false })
              in
              Ok (Xen.Hypervisor.host_write ctx.Ctx.hv pfn ~off data))
        in
        let* () = !unmapped in
        Ok pfn

(* A partially received protected domain: RECEIVE_START has run, pages may
   stream in incrementally (live migration delivers them round by round),
   and nothing has been measured or activated yet. Any failure rolls the
   partial domain back and poisons the session. *)
type session = {
  ctx : Ctx.t;
  dom : Xen.Domain.t;
  handle : Sev.Firmware.handle;
  memory_pages : int;
  mutable closed : bool;
}

let session_domain s = s.dom

(* The one teardown of a protected domain (paper Section 4.3.8), for a
   shutdown and for a refused or aborted receive alike. Clear the NPT
   under teardown authority so PIT validity is maintained; destroy the
   domain, which DEACTIVATEs and DECOMMISSIONs its firmware context while
   the frame release hooks scrub PIT entries and hand frames back to the
   hypervisor; then revoke its GIT intents and drop its shadow and its
   protected mark. *)
let teardown ctx (dom : Xen.Domain.t) =
  let hv = ctx.Ctx.hv in
  let domid = dom.Xen.Domain.domid in
  Ctx.with_teardown ctx domid (fun () ->
      List.iter
        (fun (gfn, _) -> ignore (hv.Xen.Hypervisor.med.Xen.Hypervisor.npt_update dom gfn None))
        (Hw.Pagetable.mapped_frames dom.Xen.Domain.npt);
      Xen.Hypervisor.destroy_domain hv dom);
  Git_table.revoke_domain ctx.Ctx.git ~initiator:domid;
  Hashtbl.remove ctx.Ctx.shadows domid;
  ctx.Ctx.protected_domids <- List.filter (fun d -> d <> domid) ctx.Ctx.protected_domids

let rollback_session s err =
  s.closed <- true;
  teardown s.ctx s.dom;
  Error err

let receive_abort s = if not s.closed then ignore (rollback_session s (Failed "aborted"))

(* An upper bound on the frames [receive_begin] takes for a domain of [n]
   pages: the pages, one page-table page per 512 entries in each of the
   NPT and the guest page table, the shadow frame, and whatever PIT pages
   the host still lacks (at most one leaf per 1024 host frames plus one
   interior page). *)
let frames_for ctx n =
  let pages_for entries ~per_page = (entries + per_page - 1) / per_page in
  let host_frames = Hw.Physmem.nr_frames ctx.Ctx.machine.Hw.Machine.mem in
  let table_pages = pages_for n ~per_page:(Hw.Addr.page_size / 8) in
  let pit_pages = pages_for host_frames ~per_page:(Hw.Addr.page_size / 4) + 1 in
  n + (2 * table_pages) + 1 + pit_pages

let receive_begin ctx ~name ~memory_pages ~wrapped_keys ~origin_public ~nonce ~policy =
  let hv = ctx.Ctx.hv in
  let free = Hw.Machine.frames_free ctx.Ctx.machine in
  if frames_for ctx memory_pages > free then
    (* Refused before anything is allocated: running out of frames midway
       would raise and leave the host with none. *)
    Error
      (Failed
         (Printf.sprintf "boot: %d guest pages do not fit the %d free frames" memory_pages
            free))
  else begin
    (* 0. The frames allocated for this domain must be revoked from the
       hypervisor as they are handed out. *)
    ctx.Ctx.next_domain_protected <- true;
    let dom = Xen.Hypervisor.create_domain hv ~name ~memory_pages in
    ctx.Ctx.next_domain_protected <- false;
    ctx.Ctx.protected_domids <- dom.Xen.Domain.domid :: ctx.Ctx.protected_domids;
    ignore (Iso.new_shadow ctx dom);
    let s = { ctx; dom; handle = 0; memory_pages; closed = false } in
    (* 1. RECEIVE_START: unwrap Ktek/Ktik via the platform identity. *)
    match
      Sev.Firmware.receive_start hv.Xen.Hypervisor.fw ~wrapped:wrapped_keys
        ~origin_public ~nonce ~policy ()
    with
    | Error e -> rollback_session s (Rejected ("boot: " ^ e))
    | Ok handle -> Ok { s with handle }
  end

let receive_pages s pages =
  if s.closed then Error (Failed "boot: receive session already closed")
  else begin
    let ctx = s.ctx in
    let hv = ctx.Ctx.hv in
    (* 2./3. Load each transport page through the boot window, then
       re-encrypt it in place. A relayed page that is not exactly one page
       is refused before anything is mapped. *)
    let load_all =
      List.fold_left
        (fun acc (index, gfn, cipher) ->
          let* () = acc in
          let* () =
            if Bytes.length cipher = Hw.Addr.page_size then Ok ()
            else Error (Printf.sprintf "image page %d is not one page" index)
          in
          let* pfn = boot_write ctx s.dom ~gfn ~off:0 cipher in
          Sev.Firmware.receive_update_in_place hv.Xen.Hypervisor.fw ~handle:s.handle ~index
            ~pfn)
        (Ok ()) pages
    in
    match load_all with
    | Error e -> rollback_session s (Failed ("boot: " ^ e))
    | Ok () -> Ok ()
  end

let receive_complete s ~expected =
  if s.closed then Error (Failed "boot: receive session already closed")
  else begin
    let ctx = s.ctx in
    let hv = ctx.Ctx.hv in
    let dom = s.dom in
    (* 4. Verify the keyed measurement before the guest can run. *)
    match Sev.Firmware.receive_finish hv.Xen.Hypervisor.fw ~handle:s.handle ~expected with
    | Error e -> rollback_session s (Rejected ("boot: " ^ e))
    | Ok () -> (
        match Xen.Hypervisor.activate_sev hv dom ~handle:s.handle ~memory_pages:s.memory_pages with
        | Error e -> rollback_session s (Failed ("boot: " ^ e))
        | Ok () ->
            (* 5. First entry through the gated VMRUN. *)
            (match start ctx dom with
            | Ok () ->
                s.closed <- true;
                Ok dom
            | Error e -> rollback_session s (Failed ("boot: first vmrun: " ^ e))))
  end

let boot_protected_vm ctx ~name ~memory_pages ~prepared =
  let { Sev.Transport.Owner.image; wrapped_keys; owner_public; kblk = _ } = prepared in
  if List.length image.Sev.Transport.pages > memory_pages then
    Error (Failed "boot: encrypted image larger than guest memory")
  else
    let* s =
      receive_begin ctx ~name ~memory_pages ~wrapped_keys ~origin_public:owner_public
        ~nonce:image.Sev.Transport.nonce ~policy:image.Sev.Transport.policy
    in
    (* The one-shot boot is the degenerate single-round receive: transport
       index and placement gfn coincide. *)
    let* () =
      receive_pages s
        (List.map (fun (index, cipher) -> (index, index, cipher)) image.Sev.Transport.pages)
    in
    receive_complete s ~expected:image.Sev.Transport.measurement

let shutdown_protected_vm = teardown

let write_start_info ?(off = 0) ctx dom data =
  let* () =
    Policy.write_once_range ctx
      ~region:(Printf.sprintf "start_info/dom%d" dom.Xen.Domain.domid)
      ~off ~len:(Bytes.length data)
  in
  (* start_info lives in an unencrypted guest page the hypervisor fills
     exactly once during construction. *)
  let* _ = boot_write ctx dom ~gfn:0 ~off data in
  Ok ()

let kblk_of_guest ctx (dom : Xen.Domain.t) =
  Xen.Hypervisor.in_guest ctx.Ctx.hv dom (fun () ->
      Xen.Domain.read ctx.Ctx.machine dom
        ~addr:(Hw.Addr.addr_of 0 Sev.Transport.Owner.kblk_offset)
        ~len:16)

let attestation_report ctx =
  let g1, g2, g3 = Gate.counts ctx in
  Printf.sprintf
    "fidelius attestation\n  xen-text measurement: %s\n  gates: type1=%d type2=%d type3=%d\n  violations blocked: %d\n"
    (Fidelius_crypto.Sha256.hex ctx.Ctx.xen_measurement)
    g1 g2 g3
    (List.length ctx.Ctx.violations)
