module Hw = Fidelius_hw
module Xen = Fidelius_xen

type shared = {
  gref : int;
  owner_gfn : Hw.Addr.gfn;
  owner_gvfn : Hw.Addr.vfn;
  peer_gvfn : Hw.Addr.vfn;
  frame : Hw.Addr.pfn;
}

let ( let* ) = Result.bind

(* Multi-frame sharing: one declared intent covering [nr] consecutive
   guest-physical frames, then the per-frame grant/map flow. *)
let share_range ctx ~owner ~peer ~owner_gvfn ~peer_gvfn ~nr ~writable =
  if nr <= 0 then Error "share_range: nr must be positive"
  else begin
    let hv = ctx.Ctx.hv in
    let machine = ctx.Ctx.machine in
    (* Allocate a contiguous guest-physical run and fault it in. The
       pages must be unencrypted: each guest has its own Kvek, so
       plaintext is the only common coin (paper Section 2.2). *)
    let first_gfn = Xen.Domain.alloc_gfn owner in
    for i = 1 to nr - 1 do
      ignore (Xen.Domain.alloc_gfn owner);
      ignore i
    done;
    for i = 0 to nr - 1 do
      Xen.Domain.guest_map owner ~gvfn:(owner_gvfn + i) ~gfn:(first_gfn + i) ~writable:true
        ~executable:false ~c_bit:false;
      Xen.Hypervisor.in_guest hv owner (fun () ->
          Xen.Domain.write machine owner
            ~addr:(Hw.Addr.addr_of (owner_gvfn + i) 0)
            (Bytes.make Hw.Addr.page_size '\000'))
    done;
    let* _ =
      Xen.Hypervisor.hypercall hv owner
        (Xen.Hypercall.Pre_sharing
           { target = peer.Xen.Domain.domid; gfn = first_gfn; nr; writable })
    in
    let rec grant_all i acc =
      if i = nr then Ok (List.rev acc)
      else
        let gfn = first_gfn + i in
        let* gref64 =
          Xen.Hypervisor.hypercall hv owner
            (Xen.Hypercall.Grant_table_op
               (Xen.Hypercall.Grant_access { target = peer.Xen.Domain.domid; gfn; writable }))
        in
        let gref = Int64.to_int gref64 in
        let* peer_gfn64 =
          Xen.Hypervisor.hypercall hv peer
            (Xen.Hypercall.Grant_table_op (Xen.Hypercall.Map_grant { gref }))
        in
        let peer_gfn = Int64.to_int peer_gfn64 in
        Xen.Domain.guest_map peer ~gvfn:(peer_gvfn + i) ~gfn:peer_gfn ~writable
          ~executable:false ~c_bit:false;
        match Hw.Pagetable.lookup owner.Xen.Domain.npt gfn with
        | None -> Error "share_range: owner frame vanished"
        | Some npte ->
            grant_all (i + 1)
              ({ gref;
                 owner_gfn = gfn;
                 owner_gvfn = owner_gvfn + i;
                 peer_gvfn = peer_gvfn + i;
                 frame = npte.Hw.Pagetable.frame }
              :: acc)
    in
    grant_all 0 []
  end

let share ctx ~owner ~peer ~owner_gvfn ~peer_gvfn ~writable =
  Result.map List.hd (share_range ctx ~owner ~peer ~owner_gvfn ~peer_gvfn ~nr:1 ~writable)

let owner_write ctx dom shared ~off data =
  Xen.Hypervisor.in_guest ctx.Ctx.hv dom (fun () ->
      Xen.Domain.write ctx.Ctx.machine dom ~addr:(Hw.Addr.addr_of shared.owner_gvfn off) data)

let peer_read ctx dom shared ~off ~len =
  Xen.Hypervisor.in_guest ctx.Ctx.hv dom (fun () ->
      Xen.Domain.read ctx.Ctx.machine dom ~addr:(Hw.Addr.addr_of shared.peer_gvfn off) ~len)

let peer_write ctx dom shared ~off data =
  Xen.Hypervisor.in_guest ctx.Ctx.hv dom (fun () ->
      Xen.Domain.write ctx.Ctx.machine dom ~addr:(Hw.Addr.addr_of shared.peer_gvfn off) data)

let unshare ctx ~owner shared =
  let* _ =
    Xen.Hypervisor.hypercall ctx.Ctx.hv owner
      (Xen.Hypercall.Grant_table_op (Xen.Hypercall.End_access { gref = shared.gref }))
  in
  (match Xen.Granttab.get ctx.Ctx.hv.Xen.Hypervisor.granttab shared.gref with
  | Some _ -> ()
  | None -> ());
  Git_table.revoke ctx.Ctx.git ~initiator:owner.Xen.Domain.domid ~gfn:shared.owner_gfn;
  Ok ()
