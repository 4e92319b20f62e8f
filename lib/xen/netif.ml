module Hw = Fidelius_hw

type wire = {
  mutable endpoints : endpoint list; (* at most two, in connect order *)
  queues : (int, bytes Queue.t) Hashtbl.t; (* receiver slot -> inbound frames *)
  capacity : int;             (* per-slot inbound bound; senders see backpressure *)
  log : bytes Queue.t;        (* dom0's record: the last [capacity] frames forwarded *)
  mutable forwarded : int;
}

and endpoint = {
  hv : Hypervisor.t;
  dom : Domain.t;
  e_wire : wire;
  slot : int;                 (* 0 or 1 *)
  buffer_gva : int;
  shared_frame : Hw.Addr.pfn;
}

let default_capacity = 512

let create_wire ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Netif.create_wire: capacity must be >= 1";
  let queues = Hashtbl.create 2 in
  Hashtbl.replace queues 0 (Queue.create ());
  Hashtbl.replace queues 1 (Queue.create ());
  { endpoints = []; queues; capacity; log = Queue.create (); forwarded = 0 }

let wire_capacity wire = wire.capacity

(* Hand one payload to the peer's inbound queue and to dom0's log, dropping
   the log's oldest frame once it holds [capacity]. *)
let forward wire dest_q payload =
  Queue.push payload dest_q;
  Queue.push payload wire.log;
  if Queue.length wire.log > wire.capacity then ignore (Queue.pop wire.log);
  wire.forwarded <- wire.forwarded + 1

let ( let* ) = Result.bind

let connect hv dom ~wire ~buffer_gvfn =
  if List.length wire.endpoints >= 2 then Error "netif: wire already has two endpoints"
  else
    let* gfns, _grefs =
      Hypervisor.grant_pages hv dom ~target:0 ~gvfn:buffer_gvfn ~nr:1 ~writable:true
    in
    match Hw.Pagetable.lookup dom.Domain.npt gfns.(0) with
    | None -> Error "netif: shared frame unbacked"
    | Some npte ->
        let ep =
          { hv;
            dom;
            e_wire = wire;
            slot = List.length wire.endpoints;
            buffer_gva = Hw.Addr.addr_of buffer_gvfn 0;
            shared_frame = npte.Hw.Pagetable.frame }
        in
        wire.endpoints <- wire.endpoints @ [ ep ];
        Ok ep

(* Per-transfer costs split in two: the event-channel doorbell, paid once
   per notification, and the copy cost, paid per frame. A batch of N frames
   pays one doorbell + N copies. *)
let c_netif = Hw.Cost.intern "netif"

let notify_cost ep =
  let machine = ep.hv.Hypervisor.machine in
  Hw.Cost.charge_id machine.Hw.Machine.ledger c_netif
    machine.Hw.Machine.costs.Hw.Cost.event_channel

let copy_cost ep n =
  let machine = ep.hv.Hypervisor.machine in
  Hw.Cost.charge_id machine.Hw.Machine.ledger c_netif
    (n / Hw.Addr.block_size * machine.Hw.Machine.costs.Hw.Cost.memcpy_block / 10)

(* --- batched transfers -------------------------------------------------- *)

(* Frames staged back-to-back in the shared page, each length-prefixed:
   [len0 || payload0 || len1 || payload1 || ...]. One guest write, one
   backend read, one doorbell for the whole batch. *)
let staged_size frames = List.fold_left (fun acc f -> acc + 4 + Bytes.length f) 0 frames

let stage_frames frames =
  let total = staged_size frames in
  let staged = Bytes.create total in
  let off = ref 0 in
  List.iter
    (fun f ->
      let n = Bytes.length f in
      Bytes.set_int32_be staged !off (Int32.of_int n);
      Bytes.blit f 0 staged (!off + 4) n;
      off := !off + 4 + n)
    frames;
  staged

(* Parse [count] length-prefixed frames back out of a staged region. Every
   prefix crossed a guest-writable shared page, so each is validated before
   it indexes anything — one corrupt length fails the whole batch closed. *)
let parse_frames raw count =
  let total = Bytes.length raw in
  let rec go acc off k =
    if k = 0 then Ok (List.rev acc)
    else if off + 4 > total then Error "netif: truncated frame header on the shared ring"
    else
      let len = Int32.to_int (Bytes.get_int32_be raw off) in
      if len < 0 || off + 4 + len > total then
        Error "netif: corrupt frame length on the shared ring"
      else go (Bytes.sub raw (off + 4) len :: acc) (off + 4 + len) (k - 1)
  in
  go [] 0 count

let send_batch ep frames =
  match frames with
  | [] -> Ok ()
  | _ ->
      let total = staged_size frames in
      let nframes = List.length frames in
      let dest_q = Hashtbl.find ep.e_wire.queues (1 - ep.slot) in
      if total > Hw.Addr.page_size then Error "netif: batch larger than the shared buffer"
      else if Queue.length dest_q + nframes > ep.e_wire.capacity then
        Error "netif: wire queue full (backpressure)"
      else begin
        let machine = ep.hv.Hypervisor.machine in
        notify_cost ep;
        List.iter (fun f -> copy_cost ep (Bytes.length f)) frames;
        let staged = stage_frames frames in
        Hypervisor.in_guest ep.hv ep.dom (fun () ->
            Domain.write machine ep.dom ~addr:ep.buffer_gva staged);
        let raw = Hypervisor.host_read ep.hv ep.shared_frame ~off:0 ~len:total in
        match parse_frames raw nframes with
        | Error e -> Error e
        | Ok payloads ->
            List.iter (forward ep.e_wire dest_q) payloads;
            Ok ()
      end

let recv_batch ?max ep =
  let q = Hashtbl.find ep.e_wire.queues ep.slot in
  let limit = match max with Some m -> min m (Queue.length q) | None -> Queue.length q in
  (* Take as many queued frames as both the limit and the shared page
     allow; the rest stay queued for the next notification. *)
  let rec collect acc used k =
    if k = 0 then List.rev acc
    else
      match Queue.peek_opt q with
      | None -> List.rev acc
      | Some f when used + 4 + Bytes.length f > Hw.Addr.page_size -> List.rev acc
      | Some f ->
          ignore (Queue.pop q);
          collect (f :: acc) (used + 4 + Bytes.length f) (k - 1)
  in
  match Queue.peek_opt q with
  | Some f when limit > 0 && 4 + Bytes.length f > Hw.Addr.page_size ->
      (* dom0 owns the queues and can grow a frame past the page
         ([tamper]). Such a head frame could never be delivered, and
         leaving it queued would wedge the endpoint: drop it and fail
         closed, before charging or staging anything. *)
      ignore (Queue.pop q);
      Error "netif: queued frame larger than the shared buffer"
  | _ -> (
      let frames = collect [] 0 (Stdlib.max 0 limit) in
      match frames with
      | [] -> Ok []
      | _ ->
          let machine = ep.hv.Hypervisor.machine in
          notify_cost ep;
          List.iter (fun f -> copy_cost ep (Bytes.length f)) frames;
          let staged = stage_frames frames in
          Hypervisor.host_write ep.hv ep.shared_frame ~off:0 staged;
          let raw =
            Hypervisor.in_guest ep.hv ep.dom (fun () ->
                Domain.read machine ep.dom ~addr:ep.buffer_gva ~len:(Bytes.length staged))
          in
          parse_frames raw (List.length frames))

let send ep frame = send_batch ep [ frame ]

let recv ep = Result.map (function [] -> None | f :: _ -> Some f) (recv_batch ~max:1 ep)

let pending ep = Queue.length (Hashtbl.find ep.e_wire.queues ep.slot)

let snoop wire =
  Hashtbl.fold (fun _ q acc -> List.of_seq (Queue.to_seq q) @ acc) wire.queues []

let snoop_log wire = List.of_seq (Queue.to_seq wire.log)

let tamper wire f =
  Hashtbl.iter
    (fun _ q ->
      let frames = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      List.iter (fun frame -> Queue.push (f frame) q) frames)
    wire.queues

let frames_forwarded wire = wire.forwarded
