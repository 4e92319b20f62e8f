(* Secure boot from an encrypted kernel image (paper Sections 4.3.2-4.3.3).

   Walks the full owner-to-platform flow, then demonstrates that both forms
   of supply-chain tampering are caught before the guest ever runs: a
   modified image page, and an image prepared for a different platform.

     dune exec examples/secure_boot.exe *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Fid = Fidelius_core.Fidelius
module Rng = Fidelius_crypto.Rng
module Dh = Fidelius_crypto.Dh

let step n msg = Printf.printf "[%d] %s\n" n msg

let () =
  let machine = Hw.Machine.create ~seed:11L () in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Fid.install hv in
  step 1 "Fidelius late-launched; hypervisor text measured:";
  Printf.printf "      %s\n"
    (Fidelius_crypto.Sha256.hex (Fidelius_core.Iso.measure_xen_text hv));

  (* --- owner side, in a trusted environment --------------------------- *)
  let owner_rng = Rng.create 5150L in
  let kernel =
    List.init 6 (fun i ->
        let p = Bytes.make Hw.Addr.page_size '\000' in
        Bytes.blit_string (Printf.sprintf "kernel page %d contents" i) 0 p 128 22;
        p)
  in
  let prepared =
    Sev.Transport.Owner.prepare ~rng:owner_rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:kernel
  in
  step 2
    (Printf.sprintf
       "owner prepared a %d-page encrypted kernel image (Kblk embedded at offset %d of page 0)"
       (List.length prepared.Sev.Transport.Owner.image.Sev.Transport.pages)
       Sev.Transport.Owner.kblk_offset);

  (* --- the honest boot -------------------------------------------------- *)
  let dom =
    match Fid.boot_protected_vm fid ~name:"secure" ~memory_pages:16 ~prepared with
    | Ok dom -> dom
    | Error e -> failwith e
  in
  step 3 "RECEIVE flow completed: keys unwrapped, pages re-encrypted, measurement verified";
  let text =
    Xen.Hypervisor.in_guest hv dom (fun () ->
        Xen.Domain.read machine dom ~addr:(Hw.Addr.addr_of 3 128) ~len:22)
  in
  Printf.printf "      guest sees page 3: %S\n" (Bytes.to_string text);
  let kblk = Fid.kblk_of_guest fid dom in
  step 4
    (Printf.sprintf "guest recovered its disk key from the encrypted image: Kblk ok = %b"
       (Bytes.equal kblk prepared.Sev.Transport.Owner.kblk));

  (* --- tampered image --------------------------------------------------- *)
  let tampered =
    { prepared with
      Sev.Transport.Owner.image =
        { prepared.Sev.Transport.Owner.image with
          Sev.Transport.pages =
            List.map
              (fun (i, c) ->
                let c = Bytes.copy c in
                if i = 2 then Bytes.set c 50 '\xff';
                (i, c))
              prepared.Sev.Transport.Owner.image.Sev.Transport.pages } }
  in
  (match Fid.boot_protected_vm fid ~name:"tampered" ~memory_pages:16 ~prepared:tampered with
  | Ok _ ->
      step 5 "!!! tampered image booted — this should never print";
      exit 1
  | Error e -> step 5 (Printf.sprintf "tampered image rejected: %s" e));

  (* --- image for another platform -------------------------------------- *)
  let other_rng = Rng.create 6L in
  let _, foreign_platform = Dh.generate other_rng in
  let misdirected =
    Sev.Transport.Owner.prepare ~rng:other_rng ~platform_public:foreign_platform
      ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:kernel
  in
  (match Fid.boot_protected_vm fid ~name:"misdirected" ~memory_pages:16 ~prepared:misdirected with
  | Ok _ ->
      step 6 "!!! foreign image booted — this should never print";
      exit 1
  | Error e -> step 6 (Printf.sprintf "image for another platform rejected: %s" e));

  (* --- shutdown ---------------------------------------------------------- *)
  let frames = dom.Xen.Domain.frames in
  Fid.shutdown_protected_vm fid dom;
  let scrubbed =
    List.for_all
      (fun pfn ->
        Bytes.for_all (fun c -> c = '\000')
          (Hw.Physmem.read_raw machine.Hw.Machine.mem pfn ~off:0 ~len:64))
      frames
  in
  step 7 (Printf.sprintf "shutdown: DEACTIVATE+DECOMMISSION done, %d frames scrubbed = %b"
            (List.length frames) scrubbed)
