(* The paper's Section 8 hardware suggestions, implemented as extensions:

   1. Bonsai-Merkle-Tree integrity in the secure processor — turns the
      physical-channel attacks Fidelius can only shrug at (Rowhammer,
      in-place ciphertext replay by a device) into *detected* violations.
   2. Customized keys (SETENC_GEK / ENC / DEC) — the SEV-based I/O path
      without the s-dom/r-dom helper-context gymnastics.

     dune exec examples/hardware_extensions.exe *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Rng = Fidelius_crypto.Rng

let () =
  let machine = Hw.Machine.create ~seed:81L () in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Fid.install hv in
  let rng = Rng.create 10L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  let dom =
    match Fid.boot_protected_vm fid ~name:"ext-guest" ~memory_pages:16 ~prepared with
    | Ok d -> d
    | Error e -> failwith e
  in

  (* ---- 1. BMT integrity -------------------------------------------------- *)
  print_endline "== Bonsai Merkle Tree integrity (Section 8, suggestion 1) ==";
  let integ = Core.Integrity.protect fid dom in
  Core.Integrity.guest_write integ ~addr:0x4000 (Bytes.of_string "balance: 1000 EUR");
  Printf.printf "root after trusted write: %s...\n"
    (String.sub (Fidelius_crypto.Sha256.hex (Core.Integrity.root integ)) 0 16);
  (match Core.Integrity.verified_read integ ~addr:0x4000 ~len:17 with
  | Ok b -> Printf.printf "verified read: %S\n" (Bytes.to_string b)
  | Error e -> Printf.printf "unexpected: %s\n" e);
  (* A Rowhammer flip on the frame: without BMT this garbles silently;
     with BMT it is detected before the guest consumes the data. *)
  (match Hw.Pagetable.lookup dom.Xen.Domain.npt 4 with
  | Some npte ->
      Hw.Cache.invalidate_page machine.Hw.Machine.cache npte.Hw.Pagetable.frame;
      Hw.Physmem.flip_bit machine.Hw.Machine.mem npte.Hw.Pagetable.frame ~off:7 ~bit:3;
      print_endline "rowhammer: flipped one bit in the frame's ciphertext"
  | None -> ());
  (match Core.Integrity.verified_read integ ~addr:0x4000 ~len:17 with
  | Ok b ->
      Printf.printf "!!! read passed: %S\n" (Bytes.to_string b);
      exit 1
  | Error e -> Printf.printf "verified read refused: %s\n" e);
  Printf.printf "whole-domain sweep: %s\n"
    (match Core.Integrity.verify_domain integ with
    | Ok () -> "clean"
    | Error e -> e);
  Printf.printf "hashes performed so far: %d\n" (Core.Integrity.hashes_performed integ);

  (* ---- 2. customized keys ------------------------------------------------- *)
  print_endline "\n== Customized keys: SETENC_GEK / ENC / DEC (suggestion 2) ==";
  let gek_io =
    match Fid.setup_gek_io fid dom ~md_gvfn:310 with Ok io -> io | Error e -> failwith e
  in
  Printf.printf "setup: 1 firmware command, GEK id %d, guest context stays RUNNING\n"
    (Core.Io_protect.gek_id gek_io);
  let disk = Xen.Vdisk.create ~nr_sectors:32 in
  let fe, _ =
    match Xen.Blkif.connect hv dom ~disk ~buffer_gvfn:311 with
    | Ok v -> v
    | Error e -> failwith e
  in
  Xen.Blkif.set_codec fe (Fid.gek_codec gek_io);
  (match Xen.Blkif.write_sectors fe ~sector:0 (Bytes.of_string (String.concat "" [ "GEK-PROTECTED"; String.make 499 '-' ])) with
  | Ok () -> ()
  | Error e -> failwith e);
  let platter = Xen.Vdisk.peek disk ~sector:0 ~count:1 in
  let leak =
    let s = Bytes.to_string platter in
    let rec scan i = i + 3 <= String.length s && (String.sub s i 3 = "GEK" || scan (i + 1)) in
    scan 0
  in
  Printf.printf "platter sees plaintext: %b\n" leak;
  (match Xen.Blkif.read_sectors fe ~sector:0 ~count:1 with
  | Ok b -> Printf.printf "guest reads back: %S\n" (Bytes.to_string (Bytes.sub b 0 13))
  | Error e -> failwith e);
  Printf.printf "compare: the SEND/RECEIVE retrofit needs 3 commands and 2 helper contexts\n"
