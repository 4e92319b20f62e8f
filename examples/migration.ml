(* Protected VM live migration between two physical machines
   (paper Section 4.3.6).

   Memory crosses the (attacker-observable) wire as Ktek ciphertext in
   pre-copy rounds while the guest keeps running; the target re-encrypts
   under a fresh Kvek and verifies the keyed measurement before the guest
   resumes, and the guest owner releases the disk key only to an attested
   target. On the way back a hostile relay flips one ciphertext bit: the
   migration is refused, the guest keeps running where it was, and a clean
   retry then succeeds.

     dune exec examples/migration.exe *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Migrate = Core.Migrate
module Rng = Fidelius_crypto.Rng
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

let platform seed =
  let machine = Hw.Machine.create ~seed () in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Fid.install hv in
  (machine, hv, fid)

let breach msg =
  print_endline ("!!! " ^ msg);
  exit 1

let print_report (r : Migrate.report) =
  Printf.printf
    "  %d rounds, %d pages sent, residual %d, downtime %.1fus, disk key released: %b\n"
    r.Migrate.rounds r.Migrate.pages_sent r.Migrate.residual_pages r.Migrate.downtime_us
    r.Migrate.secret_released

let () =
  let m1, hv1, fid1 = platform 51L in
  let m2, hv2, fid2 = platform 52L in
  print_endline "two SEV platforms booted, Fidelius installed on both";

  let rng = Rng.create 9L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid1)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size 'K' ]
  in
  let dom =
    match Fid.boot_protected_vm fid1 ~name:"traveller" ~memory_pages:16 ~prepared with
    | Ok d -> d
    | Error e -> failwith e
  in
  Xen.Hypervisor.in_guest hv1 dom (fun () ->
      Xen.Domain.write m1 dom ~addr:0x7000 (Bytes.of_string "in-memory session state"));
  Printf.printf "guest running on machine 1 with runtime state in encrypted memory\n";

  (* The guest keeps writing while pre-copy rounds are on the wire; the
     dirty log makes the driver resend what it touched. *)
  let mutate hv m d round =
    Xen.Hypervisor.in_guest hv d (fun () ->
        Xen.Domain.write m d ~addr:0x3000 (Bytes.of_string (Printf.sprintf "tick %d" round)))
  in
  let migrate ~src ~dst ~owner ~mutate d =
    match Migrate.migrate_live ~owner ~mutate ~src ~dst d with
    | Ok v -> v
    | Error e -> failwith (Migrate.error_to_string e)
  in
  let state hv m d =
    Xen.Hypervisor.in_guest hv d (fun () -> Xen.Domain.read m d ~addr:0x7000 ~len:23)
    |> Bytes.to_string
  in

  let owner = Migrate.Owner.create (Rng.create 10L) in
  let dom2, report = migrate ~src:fid1 ~dst:fid2 ~owner ~mutate:(mutate hv1 m1 dom) dom in
  Printf.printf "live migration machine 1 -> machine 2:\n";
  print_report report;
  Printf.printf "machine 2 guest dom%d resumes with state: %S\n" dom2.Xen.Domain.domid
    (state hv2 m2 dom2);
  Printf.printf "protected on target: %b; source destroyed at cut-over: %b\n"
    (Fid.is_protected fid2 dom2.Xen.Domain.domid)
    (Xen.Hypervisor.find_domain hv1 dom.Xen.Domain.domid = None);

  (* Back to machine 1, through a relay that flips one ciphertext bit. *)
  let owner = Migrate.Owner.create (Rng.create 11L) in
  Plan.install (Plan.make ~seed:3L Site.Snapshot_flip);
  let faulted =
    Migrate.migrate_live ~owner ~mutate:(mutate hv2 m2 dom2) ~src:fid2 ~dst:fid1 dom2
  in
  Plan.uninstall ();
  (match faulted with
  | Ok _ -> breach "bit-flipped migration accepted"
  | Error e -> Printf.printf "bit-flipped migration refused: %s\n" (Migrate.error_to_string e));
  if Xen.Hypervisor.find_domain hv2 dom2.Xen.Domain.domid = None then
    breach "source guest lost after a refused migration";
  if Migrate.Owner.released owner then breach "disk key released to a refused target";
  Printf.printf "guest still running on machine 2 with state: %S; disk key released: false\n"
    (state hv2 m2 dom2);

  (* SEND_CANCEL put the source's firmware context back in RUNNING, so the
     same migration can simply be retried. *)
  let dom1, report = migrate ~src:fid2 ~dst:fid1 ~owner ~mutate:(mutate hv2 m2 dom2) dom2 in
  Printf.printf "clean retry machine 2 -> machine 1:\n";
  print_report report;
  Printf.printf "machine 1 guest dom%d resumes with state: %S\n" dom1.Xen.Domain.domid
    (state hv1 m1 dom1)
