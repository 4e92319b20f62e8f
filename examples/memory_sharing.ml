(* Secure memory sharing between cooperative protected guests
   (paper Section 4.3.7).

   Two tenants establish a shared page through the pre_sharing_op + grant
   flow; then the hypervisor tries each of the grant-table manipulations the
   paper lists, and the GIT policy denies them.

     dune exec examples/memory_sharing.exe *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Rng = Fidelius_crypto.Rng

let boot_tenant fid name =
  let rng = Rng.create (Int64.of_int (Hashtbl.hash name)) in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  match Fid.boot_protected_vm fid ~name ~memory_pages:16 ~prepared with
  | Ok d -> d
  | Error e -> failwith e

let () =
  let machine = Hw.Machine.create ~seed:41L () in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Fid.install hv in
  let alice = boot_tenant fid "alice" in
  let bob = boot_tenant fid "bob" in
  let eve = Xen.Hypervisor.create_domain hv ~name:"eve" ~memory_pages:8 in
  Printf.printf "tenants: alice=dom%d bob=dom%d, conspirator eve=dom%d\n"
    alice.Xen.Domain.domid bob.Xen.Domain.domid eve.Xen.Domain.domid;

  (* The legitimate flow: pre_sharing_op declares the intent, the grant
     hypercall creates the entry under GIT validation, bob maps it. *)
  let sh =
    match Fid.share fid ~owner:alice ~peer:bob ~owner_gvfn:40 ~peer_gvfn:41 ~writable:true with
    | Ok sh -> sh
    | Error e -> failwith e
  in
  Core.Sharing.owner_write fid alice sh ~off:0 (Bytes.of_string "ping from alice");
  Printf.printf "bob reads the shared page: %S\n"
    (Bytes.to_string (Core.Sharing.peer_read fid bob sh ~off:0 ~len:15));
  Core.Sharing.peer_write fid bob sh ~off:64 (Bytes.of_string "pong from bob");
  Printf.printf "alice reads bob's reply (via peer mapping): %S\n"
    (Bytes.to_string (Core.Sharing.peer_read fid bob sh ~off:64 ~len:13));

  (* Hypervisor manipulation 1: redirect the grant to eve. *)
  print_newline ();
  let med = hv.Xen.Hypervisor.med in
  (match Xen.Granttab.get hv.Xen.Hypervisor.granttab sh.Core.Sharing.gref with
  | Some entry -> (
      let redirected = { entry with Xen.Granttab.target = eve.Xen.Domain.domid } in
      match med.Xen.Hypervisor.grant_update sh.Core.Sharing.gref (Some redirected) with
      | Ok () ->
          print_endline "!!! grant redirected to eve";
          exit 1
      | Error e -> Printf.printf "redirect to eve denied: %s\n" e)
  | None -> ());

  (* Hypervisor manipulation 2: invent a grant of alice's private memory. *)
  let forged =
    { Xen.Granttab.owner = alice.Xen.Domain.domid;
      target = eve.Xen.Domain.domid;
      gfn = 2 (* a private kernel page, never offered *);
      writable = true;
      in_use = true }
  in
  (match med.Xen.Hypervisor.grant_update 12 (Some forged) with
  | Ok () ->
      print_endline "!!! forged grant accepted";
      exit 1
  | Error e -> Printf.printf "forged grant denied: %s\n" e);

  (* Hypervisor manipulation 3: map alice's shared frame into eve's NPT
     directly, without any grant at all. *)
  let gfn = Xen.Domain.alloc_gfn eve in
  (match
     med.Xen.Hypervisor.npt_update eve gfn
       (Some
          { Hw.Pagetable.frame = sh.Core.Sharing.frame;
            writable = true;
            executable = false;
            c_bit = false })
   with
  | Ok () ->
      print_endline "!!! direct NPT mapping accepted";
      exit 1
  | Error e -> Printf.printf "direct NPT mapping denied: %s\n" e);

  (* Clean teardown revokes the intent. *)
  (match Fid.unshare fid ~owner:alice sh with
  | Ok () -> print_endline "\nsharing ended; GIT intent revoked"
  | Error e -> Printf.printf "unshare failed: %s\n" e);
  Printf.printf "violations blocked so far: %d\n" (List.length (Fid.violations fid))
