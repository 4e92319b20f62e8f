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

(* Multi-frame sharing: the owner grants the run under one declared
   intent, then the peer maps each grant. *)
let share_range ctx ~owner ~peer ~owner_gvfn ~peer_gvfn ~nr ~writable =
  if nr <= 0 then Error "share_range: nr must be positive"
  else
    let hv = ctx.Ctx.hv in
    let* gfns, grefs =
      Xen.Hypervisor.grant_pages hv owner ~target:peer.Xen.Domain.domid ~gvfn:owner_gvfn ~nr
        ~writable
    in
    let rec map_all i acc =
      if i = nr then Ok (List.rev acc)
      else
        let* peer_gfn =
          Xen.Hypervisor.hypercall hv peer
            (Xen.Hypercall.Grant_table_op (Xen.Hypercall.Map_grant { gref = grefs.(i) }))
        in
        Xen.Domain.guest_map peer ~gvfn:(peer_gvfn + i) ~gfn:(Int64.to_int peer_gfn) ~writable
          ~executable:false ~c_bit:false;
        match Hw.Pagetable.lookup owner.Xen.Domain.npt gfns.(i) with
        | None -> Error "share_range: owner frame vanished"
        | Some npte ->
            map_all (i + 1)
              ({ gref = grefs.(i);
                 owner_gfn = gfns.(i);
                 owner_gvfn = owner_gvfn + i;
                 peer_gvfn = peer_gvfn + i;
                 frame = npte.Hw.Pagetable.frame }
              :: acc)
    in
    map_all 0 []

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
  Git_table.revoke ctx.Ctx.git ~initiator:owner.Xen.Domain.domid ~gfn:shared.owner_gfn;
  Ok ()
