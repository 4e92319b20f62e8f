module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
open Surface

let contains_secret stack bytes =
  let s = Bytes.to_string bytes in
  let sec = stack.secret in
  let n = String.length s and m = String.length sec in
  let rec scan i = i + m <= n && (String.sub s i m = sec || scan (i + 1)) in
  m > 0 && scan 0

let mk id ~paper_ref description run = { id; description; paper_ref; run }

(* --- runtime-state attacks --------------------------------------------- *)

(* The victim exits with a secret-derived value in a register; the
   hypervisor harvests registers and VMCB save fields. *)
let vmcb_register_harvest =
  mk "vmcb-register-harvest" ~paper_ref:"2.2"
    "read guest registers and VMCB save area at vmexit" (fun stack ->
      let cpu = stack.machine.Hw.Machine.cpu in
      let marker = 0x5EC4E7L in
      Hw.Cpu.set_reg cpu Hw.Cpu.Rbx marker;
      Xen.Hypervisor.vmexit stack.hv stack.victim Hw.Vmcb.Hlt ~info1:0L ~info2:0L;
      let seen = Hw.Cpu.get_reg cpu Hw.Cpu.Rbx in
      let rip = Hw.Vmcb.get stack.victim.Xen.Domain.vmcb Hw.Vmcb.Rip in
      ignore (Xen.Hypervisor.vmrun stack.hv stack.victim);
      if Int64.equal seen marker then
        Leaked (Printf.sprintf "guest rbx=0x%Lx readable at exit" seen)
      else if Int64.equal rip 0L && Int64.equal seen 0L then
        Blocked "registers and save area masked (state hidden from the hypervisor)"
      else Leaked (Printf.sprintf "VMCB rip=0x%Lx readable at exit" rip))

let vmcb_control_tamper =
  mk "vmcb-control-tamper" ~paper_ref:"2.2/4.2.1"
    "rewrite VMCB control state (ASID) between exit and entry" (fun stack ->
      let vmcb = stack.victim.Xen.Domain.vmcb in
      Xen.Hypervisor.vmexit stack.hv stack.victim Hw.Vmcb.Hlt ~info1:0L ~info2:0L;
      let original = Hw.Vmcb.get vmcb Hw.Vmcb.Asid in
      Hw.Vmcb.set vmcb Hw.Vmcb.Asid 0x7777L;
      match Xen.Hypervisor.vmrun stack.hv stack.victim with
      | Ok () ->
          (* undo for subsequent attacks *)
          Hw.Vmcb.set vmcb Hw.Vmcb.Asid original;
          Tampered "guest re-entered with attacker-chosen ASID"
      | Error e ->
          Hw.Vmcb.set vmcb Hw.Vmcb.Asid original;
          ignore (Xen.Hypervisor.vmrun stack.hv stack.victim);
          Blocked e)

let vmcb_sev_disable =
  mk "vmcb-sev-disable" ~paper_ref:"2.2"
    "clear the VMCB SEV-enable bit to run the guest unencrypted" (fun stack ->
      let vmcb = stack.victim.Xen.Domain.vmcb in
      Xen.Hypervisor.vmexit stack.hv stack.victim Hw.Vmcb.Hlt ~info1:0L ~info2:0L;
      let original = Hw.Vmcb.get vmcb Hw.Vmcb.Sev_enabled in
      Hw.Vmcb.set vmcb Hw.Vmcb.Sev_enabled 0L;
      match Xen.Hypervisor.vmrun stack.hv stack.victim with
      | Ok () ->
          Hw.Vmcb.set vmcb Hw.Vmcb.Sev_enabled original;
          Tampered "SEV control bit cleared across a world switch"
      | Error e ->
          Hw.Vmcb.set vmcb Hw.Vmcb.Sev_enabled original;
          ignore (Xen.Hypervisor.vmrun stack.hv stack.victim);
          Blocked e)

(* --- memory-mapping attacks -------------------------------------------- *)

let direct_map_read =
  mk "direct-map-read" ~paper_ref:"6.2"
    "read the victim's frame through the hypervisor direct map" (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      try
        let bytes = Xen.Hypervisor.host_read stack.hv frame ~off:0 ~len:64 in
        if contains_secret stack bytes then
          Leaked "plaintext via direct map (resident cache line)"
        else Degraded "direct map readable but returned only ciphertext"
      with Hw.Mmu.Fault { reason; _ } -> Blocked ("page fault: " ^ reason))

let host_remap =
  mk "host-remap" ~paper_ref:"6.2"
    "create a fresh hypervisor mapping of the victim's frame" (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      match
        stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.host_map_update frame
          (Some { Hw.Pagetable.frame; writable = true; executable = false; c_bit = false })
      with
      | Error e -> Blocked e
      | Ok () -> (
          try
            let bytes = Xen.Hypervisor.host_read stack.hv frame ~off:0 ~len:64 in
            if contains_secret stack bytes then Leaked "remap + read returned plaintext"
            else Degraded "remap succeeded but only ciphertext visible"
          with Hw.Mmu.Fault { reason; _ } -> Blocked reason))

let inter_vm_remap =
  mk "inter-vm-remap" ~paper_ref:"6.2"
    "map the victim's frame into a conspirator VM and read through the cache"
    (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      let evil = Env.conspirator stack in
      let gfn = Xen.Domain.alloc_gfn evil in
      match
        stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.npt_update evil gfn
          (Some { Hw.Pagetable.frame; writable = false; executable = false; c_bit = false })
      with
      | Error e -> Blocked e
      | Ok () ->
          Xen.Domain.guest_map evil ~gvfn:7 ~gfn ~writable:false ~executable:false
            ~c_bit:false;
          let bytes =
            Xen.Hypervisor.in_guest stack.hv evil (fun () ->
                Xen.Domain.read stack.machine evil ~addr:(Hw.Addr.addr_of 7 0) ~len:64)
          in
          if contains_secret stack bytes then
            Leaked "conspirator read plaintext (cache line hit)"
          else Degraded "conspirator mapped the frame but saw only ciphertext")

let replay_restore =
  mk "replay-restore" ~paper_ref:"2.2/4.2.2"
    "snapshot the victim's ciphertext and restore it after the guest updates"
    (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      (* Phase 1: record today's ciphertext (e.g. the page holding a
         password-gate flag). *)
      match
        (try Ok (Xen.Hypervisor.host_read stack.hv frame ~off:0 ~len:Hw.Addr.page_size)
         with Hw.Mmu.Fault { reason; _ } -> Error reason)
      with
      | Error reason -> Blocked ("snapshot read: " ^ reason)
      | Ok old_cipher -> (
          (* Phase 2: the guest overwrites the value. *)
          Xen.Hypervisor.in_guest stack.hv stack.victim (fun () ->
              Xen.Domain.write stack.machine stack.victim ~addr:stack.secret_gva
                (Bytes.of_string "FRESH-VALUE-AFTER-UPDATE!!!!!!!!"));
          (* Phase 3: restore the stale ciphertext in place. *)
          match
            (try
               Ok (Xen.Hypervisor.host_write stack.hv frame ~off:0 old_cipher)
             with Hw.Mmu.Fault { reason; _ } -> Error reason)
          with
          | Error reason -> Blocked ("replay write: " ^ reason)
          | Ok () ->
              let now =
                Xen.Hypervisor.in_guest stack.hv stack.victim (fun () ->
                    Xen.Domain.read stack.machine stack.victim ~addr:stack.secret_gva
                      ~len:(String.length stack.secret))
              in
              if Bytes.to_string now = stack.secret then
                Tampered "guest observes the replayed (stale) value"
              else Degraded "replay wrote but guest state did not revert"))

(* --- grant / sharing attacks ------------------------------------------- *)

let grant_forgery =
  mk "grant-forgery" ~paper_ref:"2.2/4.3.7"
    "fabricate a grant entry handing dom0 the victim's page" (fun stack ->
      let gfn = Hw.Addr.frame_of stack.secret_gva in
      let forged =
        { Xen.Granttab.owner = stack.victim.Xen.Domain.domid;
          target = 0;
          gfn;
          writable = true;
          in_use = true }
      in
      match stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.grant_update 6 (Some forged) with
      | Error e -> Blocked e
      | Ok () -> (
          ignore (stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.grant_update 6 None);
          let frame = Env.resolve_secret_frame stack in
          try
            let bytes = Xen.Hypervisor.host_read stack.hv frame ~off:0 ~len:64 in
            if contains_secret stack bytes then Leaked "forged grant exposed plaintext"
            else Degraded "forged grant accepted; contents still ciphertext"
          with Hw.Mmu.Fault { reason; _ } ->
            Degraded ("forged grant accepted but frame unreadable: " ^ reason)))

let grant_widening =
  mk "grant-widening" ~paper_ref:"2.2"
    "escalate a legitimately shared read-only grant to writable" (fun stack ->
      (* The victim legitimately shares a read-only page with dom0 first. *)
      let gfn = Xen.Domain.alloc_gfn stack.victim in
      Xen.Domain.guest_map stack.victim ~gvfn:20 ~gfn ~writable:true ~executable:false
        ~c_bit:false;
      Xen.Hypervisor.in_guest stack.hv stack.victim (fun () ->
          Xen.Domain.write stack.machine stack.victim ~addr:(Hw.Addr.addr_of 20 0)
            (Bytes.of_string "read-only-share"));
      let setup =
        let ( let* ) = Result.bind in
        let* _ =
          Xen.Hypervisor.hypercall stack.hv stack.victim
            (Xen.Hypercall.Pre_sharing { target = 0; gfn; nr = 1; writable = false })
        in
        Xen.Hypervisor.hypercall stack.hv stack.victim
          (Xen.Hypercall.Grant_table_op
             (Xen.Hypercall.Grant_access { target = 0; gfn; writable = false }))
      in
      match setup with
      | Error e -> Blocked ("setup failed: " ^ e)
      | Ok gref64 -> (
          let gref = Int64.to_int gref64 in
          match Xen.Granttab.get stack.hv.Xen.Hypervisor.granttab gref with
          | None -> Blocked "grant vanished"
          | Some entry -> (
              let widened = { entry with Xen.Granttab.writable = true } in
              match
                stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.grant_update gref (Some widened)
              with
              | Error e -> Blocked e
              | Ok () -> Tampered "read-only grant silently became writable")))

(* Fidelius' GIT records the victim's *declared* sharing; the hypervisor
   lies to the peer about which grant to map (Iago-style forged return). *)
let iago_forged_gref =
  mk "iago-forged-return" ~paper_ref:"6.2"
    "return a forged grant reference so the peer maps an attacker page"
    (fun stack ->
      let evil = Env.conspirator stack in
      (* The attacker pre-creates a grant of a conspirator page claimed to
         come from the victim's domid. *)
      let attacker_gfn = 2 in
      let forged =
        { Xen.Granttab.owner = stack.victim.Xen.Domain.domid;
          target = evil.Xen.Domain.domid;
          gfn = attacker_gfn;
          writable = true;
          in_use = true }
      in
      match stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.grant_update 9 (Some forged) with
      | Error e -> Blocked e
      | Ok () -> (
          match
            Xen.Hypervisor.hypercall stack.hv evil
              (Xen.Hypercall.Grant_table_op (Xen.Hypercall.Map_grant { gref = 9 }))
          with
          | Ok _ -> Tampered "peer mapped a page the victim never offered"
          | Error e -> Blocked e))

(* The hypervisor keeps the grant entry intact but widens the *nested
   mapping* it installed for the peer — the grant-widening attack moved one
   level down, against the NPT instead of the grant table. *)
let mapping_widening =
  mk "mapping-widening" ~paper_ref:"2.2/5.2"
    "upgrade a read-only shared nested mapping to writable" (fun stack ->
      let hv = stack.hv in
      let evil = Env.conspirator stack in
      (* Legitimate read-only sharing first. *)
      let gfn = Xen.Domain.alloc_gfn stack.victim in
      Xen.Domain.guest_map stack.victim ~gvfn:21 ~gfn ~writable:true ~executable:false
        ~c_bit:false;
      Xen.Hypervisor.in_guest hv stack.victim (fun () ->
          Xen.Domain.write stack.machine stack.victim ~addr:(Hw.Addr.addr_of 21 0)
            (Bytes.make 16 '\000'));
      let ( let* ) = Result.bind in
      let setup =
        let* _ =
          Xen.Hypervisor.hypercall hv stack.victim
            (Xen.Hypercall.Pre_sharing
               { target = evil.Xen.Domain.domid; gfn; nr = 1; writable = false })
        in
        let* gref64 =
          Xen.Hypervisor.hypercall hv stack.victim
            (Xen.Hypercall.Grant_table_op
               (Xen.Hypercall.Grant_access
                  { target = evil.Xen.Domain.domid; gfn; writable = false }))
        in
        Xen.Hypervisor.hypercall hv evil
          (Xen.Hypercall.Grant_table_op
             (Xen.Hypercall.Map_grant { gref = Int64.to_int gref64 }))
      in
      match setup with
      | Error e -> Blocked ("setup failed: " ^ e)
      | Ok mapped_gfn64 -> (
          let mapped_gfn = Int64.to_int mapped_gfn64 in
          match Hw.Pagetable.lookup evil.Xen.Domain.npt mapped_gfn with
          | None -> Blocked "mapping vanished"
          | Some npte -> (
              match
                hv.Xen.Hypervisor.med.Xen.Hypervisor.npt_update evil mapped_gfn
                  (Some { npte with Hw.Pagetable.writable = true })
              with
              | Ok () -> Tampered "read-only shared mapping became writable"
              | Error e -> Blocked e)))

(* Ballooning abuse: the hypervisor unilaterally "reclaims" a protected
   frame by clearing its nested mapping and taking the page back. *)
let balloon_reclaim =
  mk "balloon-reclaim" ~paper_ref:"4.3.8"
    "reclaim a protected guest's frame outside any teardown" (fun stack ->
      let gfn = Hw.Addr.frame_of stack.secret_gva in
      let frame = Env.resolve_secret_frame stack in
      match stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.npt_update stack.victim gfn None with
      | Error e -> Blocked e
      | Ok () -> (
          try
            let bytes = Xen.Hypervisor.host_read stack.hv frame ~off:0 ~len:64 in
            if contains_secret stack bytes then Leaked "reclaimed frame read back"
            else Tampered "guest mapping destroyed at hypervisor's whim"
          with Hw.Mmu.Fault _ -> Tampered "guest mapping destroyed at hypervisor's whim"))

(* Rewrite the exit reason before re-entry, hoping the more permissive
   update rights of a hypercall exit apply to an NPF exit. *)
let exit_reason_forgery =
  mk "exit-reason-forgery" ~paper_ref:"5.1"
    "forge the VMCB exit reason to widen the updatable-field set" (fun stack ->
      let vmcb = stack.victim.Xen.Domain.vmcb in
      Xen.Hypervisor.vmexit stack.hv stack.victim Hw.Vmcb.Npf ~info1:0L ~info2:0x5L;
      (* Claim this was a hypercall, then use the hypercall's RIP/RAX
         update rights. *)
      Hw.Vmcb.set vmcb Hw.Vmcb.Exit_reason (Hw.Vmcb.exit_reason_to_int64 Hw.Vmcb.Vmmcall);
      Hw.Vmcb.set vmcb Hw.Vmcb.Rip 0xBAD0L;
      Hw.Vmcb.set vmcb Hw.Vmcb.Rax 0xBAD1L;
      match Xen.Hypervisor.vmrun stack.hv stack.victim with
      | Ok () ->
          if Int64.equal (Hw.Cpu.rip stack.machine.Hw.Machine.cpu) 0xBAD0L then
            Tampered "forged exit reason let attacker-chosen RIP through"
          else Degraded "re-entered but the forged state was discarded"
      | Error e ->
          ignore (Xen.Hypervisor.vmrun stack.hv stack.victim);
          Blocked e)

(* Alias the victim's frame at a second guest-physical address inside its
   own NPT — the stepping stone for within-guest replay games. *)
let double_map =
  mk "double-map" ~paper_ref:"5.2"
    "map a protected frame at a second gfn of the same guest" (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      let gfn = Xen.Domain.alloc_gfn stack.victim in
      match
        stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.npt_update stack.victim gfn
          (Some { Hw.Pagetable.frame; writable = true; executable = false; c_bit = false })
      with
      | Ok () -> Tampered "frame aliased at two guest-physical addresses"
      | Error e -> Blocked e)

(* --- key-management attacks -------------------------------------------- *)

let keyshare_abuse =
  mk "keyshare-abuse" ~paper_ref:"2.2"
    "ACTIVATE the victim's handle under the conspirator's ASID" (fun stack ->
      match stack.victim.Xen.Domain.sev_handle with
      | None -> Blocked "victim has no SEV context"
      | Some handle -> (
          let evil = Env.conspirator stack in
          match Sev.Firmware.activate stack.hv.Xen.Hypervisor.fw ~handle ~asid:evil.Xen.Domain.asid with
          | Error e -> Blocked ("firmware refused: " ^ e)
          | Ok () -> (
              (* The conspirator now holds the victim's Kvek in its key
                 slot; it still needs a mapping of the victim's frame. *)
              let frame = Env.resolve_secret_frame stack in
              let gfn = Xen.Domain.alloc_gfn evil in
              let restore () =
                ignore
                  (Sev.Firmware.activate stack.hv.Xen.Hypervisor.fw ~handle
                     ~asid:stack.victim.Xen.Domain.asid)
              in
              match
                stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.npt_update evil gfn
                  (Some
                     { Hw.Pagetable.frame; writable = false; executable = false; c_bit = false })
              with
              | Error e ->
                  restore ();
                  Blocked ("key installed but mapping denied: " ^ e)
              | Ok () ->
                  Xen.Domain.guest_map evil ~gvfn:9 ~gfn ~writable:false ~executable:false
                    ~c_bit:true;
                  let bytes =
                    Xen.Hypervisor.in_guest stack.hv evil (fun () ->
                        Xen.Domain.read stack.machine evil ~addr:(Hw.Addr.addr_of 9 0) ~len:64)
                  in
                  restore ();
                  if contains_secret stack bytes then
                    Leaked "conspirator decrypted victim memory with shared Kvek"
                  else Degraded "key shared but decryption misaligned")))

let dbg_decrypt_abuse =
  mk "dbg-decrypt" ~paper_ref:"4.3"
    "ask the firmware to DBG_DECRYPT a victim page" (fun stack ->
      match stack.victim.Xen.Domain.sev_handle with
      | None -> Blocked "victim has no SEV context"
      | Some handle -> (
          let frame = Env.resolve_secret_frame stack in
          match Sev.Firmware.dbg_decrypt stack.hv.Xen.Hypervisor.fw ~handle ~pfn:frame with
          | Ok plain ->
              if contains_secret stack plain then Leaked "firmware decrypted for the hypervisor"
              else Degraded "DBG_DECRYPT returned non-secret data"
          | Error e -> Blocked e))

(* --- privileged-instruction attacks ------------------------------------ *)

let exec_insn stack op v =
  Hw.Insn.execute stack.machine.Hw.Machine.insns
    ~exec_ok:(Hw.Mmu.exec_ok stack.machine stack.hv.Xen.Hypervisor.host_space)
    op v

let wp_disable =
  mk "wp-disable" ~paper_ref:"4.1.2/Table 2"
    "clear CR0.WP to write through read-only protections" (fun stack ->
      match exec_insn stack Hw.Insn.Mov_cr0 (Hw.Insn.cr0 ~pg:true ~wp:false) with
      | Error e -> Blocked e
      | Ok () ->
          let open_now = not (Hw.Cpu.wp stack.machine.Hw.Machine.cpu) in
          Hw.Cpu.priv_set_wp stack.machine.Hw.Machine.cpu true;
          if open_now then Tampered "WP cleared; read-only structures writable"
          else Degraded "instruction executed but WP unchanged")

let smep_disable =
  mk "smep-disable" ~paper_ref:"Table 2"
    "clear CR4.SMEP to run user-controlled code in kernel mode" (fun stack ->
      match exec_insn stack Hw.Insn.Mov_cr4 (Hw.Insn.cr4 ~smep:false) with
      | Error e -> Blocked e
      | Ok () ->
          let cleared = not (Hw.Cpu.smep stack.machine.Hw.Machine.cpu) in
          Hw.Cpu.priv_set_smep stack.machine.Hw.Machine.cpu true;
          if cleared then Tampered "SMEP cleared" else Degraded "SMEP unchanged")

let nxe_disable =
  mk "nxe-disable" ~paper_ref:"Table 2"
    "clear EFER.NXE so data pages become executable" (fun stack ->
      match exec_insn stack Hw.Insn.Wrmsr (Hw.Insn.efer ~nxe:false) with
      | Error e -> Blocked e
      | Ok () ->
          let cleared = not (Hw.Cpu.nxe stack.machine.Hw.Machine.cpu) in
          Hw.Cpu.priv_set_nxe stack.machine.Hw.Machine.cpu true;
          if cleared then Tampered "NXE cleared" else Degraded "NXE unchanged")

let rogue_vmrun =
  mk "rogue-vmrun" ~paper_ref:"4.1.2"
    "execute VMRUN directly, bypassing the entry gate" (fun stack ->
      match exec_insn stack Hw.Insn.Vmrun (Int64.of_int stack.victim.Xen.Domain.domid) with
      | Error e -> Blocked e
      | Ok () ->
          (* got into the guest without verification: clean up *)
          Xen.Hypervisor.vmexit stack.hv stack.victim Hw.Vmcb.Hlt ~info1:0L ~info2:0L;
          ignore (Xen.Hypervisor.vmrun stack.hv stack.victim);
          Tampered "world switch without Fidelius verification")

let rogue_cr3 =
  mk "rogue-cr3" ~paper_ref:"4.1.2"
    "switch CR3 to an attacker-built address space" (fun stack ->
      let rogue = Hw.Machine.new_table stack.machine in
      match exec_insn stack Hw.Insn.Mov_cr3 (Int64.of_int (Hw.Pagetable.id rogue)) with
      | Error e -> Blocked e
      | Ok () ->
          Hw.Cpu.priv_set_cr3 stack.machine.Hw.Machine.cpu
            (Hw.Pagetable.id stack.hv.Xen.Hypervisor.host_space);
          Tampered "address space switched to attacker page tables")

let code_injection =
  mk "code-injection" ~paper_ref:"6.3"
    "inject a new privileged-instruction instance into a data page" (fun stack ->
      let page = Hw.Machine.alloc_frame stack.machine in
      (* The attacker first needs the page mapped W+X somewhere. *)
      ignore
        (stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.host_map_update page
           (Some { Hw.Pagetable.frame = page; writable = true; executable = true; c_bit = false }));
      let handler _ =
        Hw.Cpu.priv_set_wp stack.machine.Hw.Machine.cpu false;
        Ok ()
      in
      match
        Hw.Insn.inject stack.machine.Hw.Machine.insns
          ~wx_ok:(Hw.Mmu.wx_ok stack.machine stack.hv.Xen.Hypervisor.host_space)
          Hw.Insn.Mov_cr0 ~page ~handler
      with
      | Error e -> Blocked e
      | Ok () ->
          Hw.Insn.scrub stack.machine.Hw.Machine.insns Hw.Insn.Mov_cr0 ~keep:(-2);
          Tampered "rogue mov-cr0 instance planted in executable memory")

(* Unmap the monitor's own code so the monopolized instructions become
   unfetchable and the gates break — an attack on Fidelius itself. *)
let unmap_monitor_text =
  mk "unmap-monitor-text" ~paper_ref:"6.3"
    "revoke the code-region mappings the protection depends on" (fun stack ->
      match stack.fid with
      | None -> (
          (* On stock Xen there is no Fidelius text; unmapping Xen's own
             text is the equivalent self-blinding move. *)
          match stack.hv.Xen.Hypervisor.xen_text with
          | [] -> Blocked "no text region"
          | pfn :: _ -> (
              match stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.host_map_update pfn None with
              | Ok () -> Tampered "hypervisor text mapping revoked at will"
              | Error e -> Blocked e))
      | Some fid -> (
          match fid.Fidelius_core.Ctx.fid_text with
          | [] -> Blocked "no fidelius text"
          | pfn :: _ -> (
              match stack.hv.Xen.Hypervisor.med.Xen.Hypervisor.host_map_update pfn None with
              | Ok () -> Tampered "Fidelius text mapping revoked"
              | Error e -> Blocked e)))

(* --- I/O-path attacks --------------------------------------------------- *)

let io_snoop =
  mk "io-snoop" ~paper_ref:"4.3.5"
    "observe the shared I/O buffer and the disk during guest writes" (fun stack ->
      let disk = Xen.Vdisk.create ~nr_sectors:64 in
      match Xen.Blkif.connect stack.hv stack.victim ~disk ~buffer_gvfn:150 with
      | Error e -> Blocked ("setup failed: " ^ e)
      | Ok (fe, be) -> (
          (match stack.fid with
          | Some fid ->
              let kblk = Core.Fidelius.kblk_of_guest fid stack.victim in
              Xen.Blkif.set_codec fe (Core.Fidelius.aesni_codec fid ~kblk)
          | None -> ());
          let payload = Bytes.of_string (stack.secret ^ String.make (512 - String.length stack.secret) '.') in
          match Xen.Blkif.write_sectors fe ~sector:4 payload with
          | Error e -> Blocked ("write failed: " ^ e)
          | Ok () ->
              let platter = Xen.Vdisk.peek disk ~sector:4 ~count:1 in
              let buffer =
                Hw.Physmem.dump stack.machine.Hw.Machine.mem (Xen.Blkif.shared_frame be)
              in
              if contains_secret stack platter || contains_secret stack buffer then
                Leaked "secret visible on the I/O path"
              else Degraded "I/O path carries only ciphertext"))

let dma_write_pt =
  mk "dma-overwrite-pt" ~paper_ref:"4.1 (IOMMU hardening)"
    "DMA-write into a hypervisor page-table-page" (fun stack ->
      match Hw.Pagetable.backing_frames stack.hv.Xen.Hypervisor.host_space with
      | [] -> Blocked "no page-table-pages"
      | pt :: _ -> (
          match
            Hw.Machine.dma_write stack.machine pt ~off:0 (Bytes.make 8 '\xff')
          with
          | Ok () -> Tampered "device rewrote translation state"
          | Error e -> Blocked e))

let dma_read_guest =
  mk "dma-read-guest" ~paper_ref:"2.2"
    "DMA-read the victim's frame from a malicious device" (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      match Hw.Machine.dma_read stack.machine frame ~off:0 ~len:64 with
      | Error e -> Blocked e
      | Ok bytes ->
          if contains_secret stack bytes then Leaked "device read plaintext"
          else Degraded "device read only ciphertext (SEV holds)")

(* The driver domain records all PV network traffic. The paper scopes this
   out ("network I/O data has been protected by the SSL protocol"); the
   attack shows the assumption is load-bearing — plaintext frames leak on
   both stacks, TLS-protected ones on neither. *)
let net_snoop =
  mk "net-snoop" ~paper_ref:"4.3.5"
    "record PV network frames in the driver domain" (fun stack ->
      let wire = Xen.Netif.create_wire () in
      let peer = Env.conspirator stack in
      match
        ( Xen.Netif.connect stack.hv stack.victim ~wire ~buffer_gvfn:160,
          Xen.Netif.connect stack.hv peer ~wire ~buffer_gvfn:160 )
      with
      | Ok ea, Ok eb -> (
          (* The victim follows the paper's assumption and speaks TLS. *)
          let rng = Fidelius_crypto.Rng.create 44L in
          let secret, hello = Fidelius_crypto.Secure_channel.client_hello rng in
          let ( let* ) = Result.bind in
          let run =
            let* () = Xen.Netif.send ea hello in
            let* h = Xen.Netif.recv eb in
            let* srv, reply =
              Fidelius_crypto.Secure_channel.server_accept rng
                ~client_hello:(Option.get h)
            in
            let* () = Xen.Netif.send eb reply in
            let* r = Xen.Netif.recv ea in
            let* cli =
              Fidelius_crypto.Secure_channel.client_finish secret
                ~server_reply:(Option.get r)
            in
            ignore srv;
            Xen.Netif.send ea
              (Fidelius_crypto.Secure_channel.seal cli (Bytes.of_string stack.secret))
          in
          match run with
          | Error e -> Blocked ("setup failed: " ^ e)
          | Ok () ->
              if List.exists (contains_secret stack) (Xen.Netif.snoop_log wire) then
                Leaked "secret visible in the driver domain's traffic log"
              else Degraded "wire carries only TLS ciphertext (the paper's SSL assumption)")
      | Error e, _ | _, Error e -> Blocked ("setup failed: " ^ e))

(* --- physical attacks --------------------------------------------------- *)

let cold_boot =
  mk "cold-boot" ~paper_ref:"6.1"
    "dump the victim's frame straight from DRAM" (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      let image = Hw.Physmem.dump stack.machine.Hw.Machine.mem frame in
      if contains_secret stack image then Leaked "plaintext resident in DRAM"
      else Degraded "DRAM holds only ciphertext")

let bus_snoop =
  mk "bus-snoop" ~paper_ref:"6.1"
    "capture memory-bus traffic during a guest read" (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      (* Bus traffic is what DRAM returns: the raw line. *)
      let line = Hw.Physmem.read_raw stack.machine.Hw.Machine.mem frame ~off:0 ~len:64 in
      if contains_secret stack line then Leaked "plaintext on the memory bus"
      else Degraded "bus carries ciphertext; key never leaves the SoC")

let rowhammer =
  mk "rowhammer" ~paper_ref:"6.2"
    "flip a bit in the victim's frame by DRAM disturbance" (fun stack ->
      let frame = Env.resolve_secret_frame stack in
      Hw.Cache.invalidate_page stack.machine.Hw.Machine.cache frame;
      Hw.Physmem.flip_bit stack.machine.Hw.Machine.mem frame ~off:3 ~bit:2;
      let now =
        Xen.Hypervisor.in_guest stack.hv stack.victim (fun () ->
            Xen.Domain.read stack.machine stack.victim ~addr:stack.secret_gva
              ~len:(String.length stack.secret))
      in
      (* restore by rewriting the secret *)
      Xen.Hypervisor.in_guest stack.hv stack.victim (fun () ->
          Xen.Domain.write stack.machine stack.victim ~addr:stack.secret_gva
            (Bytes.of_string stack.secret));
      if Bytes.to_string now = stack.secret then Blocked "flip had no effect"
      else
        Degraded
          "bit flip garbles a whole AES block: no targeted plaintext control (paper: \
           not strictly eradicated)")

let all =
  [ vmcb_register_harvest;
    vmcb_control_tamper;
    vmcb_sev_disable;
    direct_map_read;
    host_remap;
    inter_vm_remap;
    replay_restore;
    grant_forgery;
    grant_widening;
    mapping_widening;
    balloon_reclaim;
    exit_reason_forgery;
    double_map;
    iago_forged_gref;
    keyshare_abuse;
    dbg_decrypt_abuse;
    wp_disable;
    smep_disable;
    nxe_disable;
    rogue_vmrun;
    rogue_cr3;
    code_injection;
    unmap_monitor_text;
    io_snoop;
    net_snoop;
    dma_write_pt;
    dma_read_guest;
    cold_boot;
    bus_snoop;
    rowhammer ]

let hardware =
  List.filter (fun a -> List.mem a.id [ "cold-boot"; "bus-snoop"; "rowhammer"; "dma-overwrite-pt"; "dma-read-guest" ]) all

let host_software = List.filter (fun a -> not (List.mem a hardware)) all
