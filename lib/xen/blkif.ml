module Hw = Fidelius_hw

type codec = {
  codec_name : string;
  encode : sector:int -> bytes -> unit;
  decode : sector:int -> bytes -> unit;
}

let identity_codec =
  { codec_name = "identity"; encode = (fun ~sector:_ _ -> ()); decode = (fun ~sector:_ _ -> ()) }

let sectors_per_frame = Hw.Addr.page_size / Vdisk.sector_size

let c_blk_io = Hw.Cost.intern "blk-io"

(* The device's one ring, its data frames and its event channel. *)
type queue = {
  q_ring : Ring.t;
  q_port : int;                    (* frontend-side event port *)
  q_grefs : int array;             (* grant references of the data frames *)
  q_gvas : int array;              (* guest VA of each data frame *)
  q_frames : Hw.Addr.pfn array;    (* backend-resolved host frames *)
}

(* Each side moves a frame's bytes through one page scratch of its own
   (DESIGN.md 4i): the scratch never outlives the descriptor or chunk it
   stages, and it is as machine-local as the frontend or backend holding
   it. *)
type backend = {
  hv : Hypervisor.t;
  disk : Vdisk.t;
  b_queue : queue;
  b_scratch : bytes;
  mutable served : int;
  mutable rejected : int;
  mutable notifications : int;
}

type frontend = {
  f_hv : Hypervisor.t;
  dom : Domain.t;
  f_queue : queue;
  f_scratch : bytes;
  mutable codec : codec;
  mutable next_req_id : int;
}

let ( let* ) = Result.bind

(* A full frame is staged in [scratch]; a shorter transfer gets a buffer of
   its exact length, since the codec and the frame write take a whole
   buffer. *)
let frame_buf scratch len = if len = Bytes.length scratch then scratch else Bytes.create len

(* --- backend ----------------------------------------------------------- *)

(* Everything in a request descriptor crossed the shared ring from the
   (untrusted) frontend: validate it all against the vdisk and the granted
   data frames *before* charging or touching memory, and answer malformed
   descriptors with a typed error instead of serving them. [seen] holds the
   req_ids already drained in this batch; duplicate ids — whose responses
   the frontend could not tell apart — fail closed too. Every bound is
   tested by subtraction from the limit: [count] and [len] are already
   bounded by then, while [sector + count] or [data_off + len] wraps
   negative for an offset near [max_int]. *)
let validate_request be seen (req : Ring.request) =
  let q = be.b_queue in
  let len = req.Ring.count * Vdisk.sector_size in
  if req.Ring.count < 1 || req.Ring.count > sectors_per_frame then
    Error (Ring.Bad_count { count = req.Ring.count; max_count = sectors_per_frame })
  else if req.Ring.sector < 0 || req.Ring.sector > Vdisk.nr_sectors be.disk - req.Ring.count
  then
    Error
      (Ring.Bad_sector
         { sector = req.Ring.sector;
           count = req.Ring.count;
           nr_sectors = Vdisk.nr_sectors be.disk })
  else if req.Ring.data_off < 0 || req.Ring.data_off > Hw.Addr.page_size - len then
    Error (Ring.Bad_span { data_off = req.Ring.data_off; len; frame_bytes = Hw.Addr.page_size })
  else if Hashtbl.mem seen req.Ring.req_id then
    Error (Ring.Duplicate_req_id { req_id = req.Ring.req_id })
  else begin
    Hashtbl.replace seen req.Ring.req_id ();
    let rec find i =
      if i >= Array.length q.q_grefs then
        Error
          (Ring.Bad_gref
             { gref = req.Ring.data_gref; reason = "not a data grant of this device" })
      else if q.q_grefs.(i) = req.Ring.data_gref then Ok i
      else find (i + 1)
    in
    let* slot = find 0 in
    match Granttab.get be.hv.Hypervisor.granttab req.Ring.data_gref with
    | None -> Error (Ring.Bad_gref { gref = req.Ring.data_gref; reason = "grant vanished" })
    | Some entry when entry.Granttab.target <> 0 ->
        Error (Ring.Bad_gref { gref = req.Ring.data_gref; reason = "grant not for dom0" })
    | Some _ -> Ok q.q_frames.(slot)
  end

let serve_request be (req : Ring.request) frame =
  let len = req.Ring.count * Vdisk.sector_size in
  let costs = be.hv.Hypervisor.machine.Hw.Machine.costs in
  Hw.Cost.charge_id be.hv.Hypervisor.machine.Hw.Machine.ledger c_blk_io
    (costs.Hw.Cost.io_sector * req.Ring.count);
  try
    (match req.Ring.op with
    | Ring.Write ->
        Hypervisor.host_read_into be.hv frame ~off:req.Ring.data_off ~len ~dst:be.b_scratch
          ~dst_off:0;
        Vdisk.write_from be.disk ~sector:req.Ring.sector ~src:be.b_scratch ~src_off:0 ~len
    | Ring.Read ->
        let buf = frame_buf be.b_scratch len in
        Vdisk.read_into be.disk ~sector:req.Ring.sector ~count:req.Ring.count ~dst:buf
          ~dst_off:0;
        Hypervisor.host_write be.hv frame ~off:req.Ring.data_off buf);
    Ok ()
  with
  | Invalid_argument m -> Error (Ring.Backend_fault m)
  | Hw.Mmu.Fault { reason; _ } -> Error (Ring.Backend_fault reason)

(* One event notification drains the whole ring: N descriptors, one
   world-switch — the batching that amortizes the 9.9 µs hypercall. *)
let process_ring be =
  let q = be.b_queue in
  be.notifications <- be.notifications + 1;
  let seen = Hashtbl.create 8 in
  let rec loop () =
    match Ring.pop_request q.q_ring with
    | None -> ()
    | Some req ->
        be.served <- be.served + 1;
        let status =
          let* frame = validate_request be seen req in
          serve_request be req frame
        in
        if Result.is_error status then be.rejected <- be.rejected + 1;
        (* Response slots cannot overrun: both halves have equal capacity
           and every response answers a popped request. *)
        (match Ring.push_response q.q_ring { Ring.resp_id = req.Ring.req_id; status } with
        | Ok () -> ()
        | Error _ -> assert false);
        loop ()
  in
  loop ()

(* --- connect ----------------------------------------------------------- *)

let connect ?(ring_size = Ring.default_size) ?(buffer_pages = 1) hv dom ~disk ~buffer_gvfn =
  if buffer_pages < 1 then invalid_arg "Blkif.connect: buffer_pages must be >= 1";
  (* The guest grants dom0 its data pages (DMA memory cannot carry the
     C-bit), then publishes the wiring via XenStore. *)
  let* _gfns, grefs =
    Hypervisor.grant_pages hv dom ~target:0 ~gvfn:buffer_gvfn ~nr:buffer_pages ~writable:true
  in
  let gvas = Array.init buffer_pages (fun pi -> Hw.Addr.addr_of (buffer_gvfn + pi) 0) in
  let event_port = Event.alloc_unbound hv.Hypervisor.events ~domid:dom.Domain.domid ~remote:0 in
  let path leaf = Printf.sprintf "/local/domain/%d/device/vbd/%s" dom.Domain.domid leaf in
  Xenstore.write hv.Hypervisor.store ~domid:dom.Domain.domid ~path:(path "ring-ref")
    (string_of_int grefs.(0));
  Xenstore.write hv.Hypervisor.store ~domid:dom.Domain.domid ~path:(path "event-channel")
    (string_of_int event_port);
  (* Back-end side: bind the channel and resolve the grants to frames. *)
  let* back_port = Event.bind hv.Hypervisor.events ~domid:0 ~remote_port:event_port in
  let rec resolve pi acc =
    if pi = buffer_pages then Ok (List.rev acc)
    else
      match Granttab.get hv.Hypervisor.granttab grefs.(pi) with
      | None -> Error "backend: grant not found"
      | Some entry -> (
          match Hw.Pagetable.lookup dom.Domain.npt entry.Granttab.gfn with
          | None -> Error "backend: granted gfn unbacked"
          | Some npte -> resolve (pi + 1) (npte.Hw.Pagetable.frame :: acc))
  in
  let* frames = resolve 0 [] in
  let q =
    { q_ring = Ring.create ~size:ring_size ();
      q_port = event_port;
      q_grefs = grefs;
      q_gvas = gvas;
      q_frames = Array.of_list frames }
  in
  let be =
    { hv;
      disk;
      b_queue = q;
      b_scratch = Bytes.create Hw.Addr.page_size;
      served = 0;
      rejected = 0;
      notifications = 0 }
  in
  Event.on_event hv.Hypervisor.events ~domid:0 ~port:back_port (fun () -> process_ring be);
  let fe =
    { f_hv = hv;
      dom;
      f_queue = q;
      f_scratch = Bytes.create Hw.Addr.page_size;
      codec = identity_codec;
      next_req_id = 1 }
  in
  Ok (fe, be)

let set_codec fe codec = fe.codec <- codec

let fresh_req_id fe =
  let id = fe.next_req_id in
  fe.next_req_id <- id + 1;
  id

let data_gref fe ~page = fe.f_queue.q_grefs.(page)

(* --- frontend submission ----------------------------------------------- *)

(* Push N descriptors, ring the doorbell once (a single Event_send
   hypercall covers the whole batch), then collect the responses. The
   backend serves FIFO, so responses must come back in request order with
   matching ids — anything else (a stray response, a missing one) is a
   protocol violation and fails the whole batch closed. *)
let submit_batch fe reqs =
  let q = fe.f_queue in
  let n = List.length reqs in
  if n = 0 then Ok []
  else if n > Ring.free_request_slots q.q_ring then
    Error
      (Printf.sprintf "frontend: ring full (%d in flight, %d free, %d requested)"
         (Ring.requests_pending q.q_ring)
         (Ring.free_request_slots q.q_ring)
         n)
  else begin
    List.iter
      (fun r ->
        match Ring.push_request q.q_ring r with Ok () -> () | Error _ -> assert false)
      reqs;
    let* _ = Hypervisor.hypercall fe.f_hv fe.dom (Hypercall.Event_send { port = q.q_port }) in
    let resps = Ring.pop_responses q.q_ring ~max:n in
    if List.length resps <> n then
      Error (Printf.sprintf "frontend: %d responses for %d requests" (List.length resps) n)
    else if Ring.responses_pending q.q_ring > 0 then
      Error "frontend: response without request left on the ring"
    else
      let rec check acc rs ps =
        match (rs, ps) with
        | [], [] -> Ok (List.rev acc)
        | (r : Ring.request) :: rs, (p : Ring.response) :: ps ->
            if p.Ring.resp_id <> r.Ring.req_id then
              Error
                (Printf.sprintf
                   "frontend: response id %d does not match request id %d (response without \
                    request)"
                   p.Ring.resp_id r.Ring.req_id)
            else check (p.Ring.status :: acc) rs ps
        | _ -> Error "frontend: response count mismatch"
      in
      check [] reqs resps
  end

(* Split a transfer into ring requests of at most a frame each; the batched
   paths below serve them [batch] requests per doorbell, each request on
   its own data frame of the device. *)
let plan_chunks ~sector ~total_sectors =
  let rec go s off acc remaining =
    if remaining = 0 then List.rev acc
    else
      let n = Int.min remaining sectors_per_frame in
      go (s + n) (off + (n * Vdisk.sector_size)) ((s, off, n) :: acc) (remaining - n)
  in
  go sector 0 [] total_sectors

let rec take n = function
  | [] -> ([], [])
  | x :: rest when n > 0 ->
      let got, left = take (n - 1) rest in
      (x :: got, left)
  | l -> ([], l)

let all_ok statuses =
  List.fold_left
    (fun acc st ->
      let* () = acc in
      Result.map_error Ring.error_to_string st)
    (Ok ()) statuses

let write_sectors ?(batch = 1) fe ~sector data =
  let len = Bytes.length data in
  if len mod Vdisk.sector_size <> 0 then Error "write_sectors: length must be a multiple of 512"
  else begin
    let machine = fe.f_hv.Hypervisor.machine in
    let q = fe.f_queue in
    let batch = Int.max 1 (Int.min batch (Array.length q.q_grefs)) in
    let rec groups chunks =
      match chunks with
      | [] -> Ok ()
      | _ ->
          let grp, rest = take batch chunks in
          let stage i (s, off, n) =
            let clen = n * Vdisk.sector_size in
            let buf = frame_buf fe.f_scratch clen in
            Bytes.blit data off buf 0 clen;
            fe.codec.encode ~sector:s buf;
            Hypervisor.in_guest fe.f_hv fe.dom (fun () ->
                Domain.write machine fe.dom ~addr:q.q_gvas.(i) buf);
            { Ring.req_id = fresh_req_id fe;
              op = Ring.Write;
              sector = s;
              count = n;
              data_gref = q.q_grefs.(i);
              data_off = 0 }
          in
          let reqs = List.mapi stage grp in
          let* statuses = submit_batch fe reqs in
          let* () = all_ok statuses in
          groups rest
    in
    groups (plan_chunks ~sector ~total_sectors:(len / Vdisk.sector_size))
  end

let read_sectors ?(batch = 1) fe ~sector ~count =
  if count <= 0 then Error "read_sectors: count must be positive"
  else begin
    let machine = fe.f_hv.Hypervisor.machine in
    let q = fe.f_queue in
    let batch = Int.max 1 (Int.min batch (Array.length q.q_grefs)) in
    let out = Bytes.create (count * Vdisk.sector_size) in
    let rec groups chunks =
      match chunks with
      | [] -> Ok out
      | _ ->
          let grp, rest = take batch chunks in
          let reqs =
            List.mapi
              (fun i (s, _off, n) ->
                { Ring.req_id = fresh_req_id fe;
                  op = Ring.Read;
                  sector = s;
                  count = n;
                  data_gref = q.q_grefs.(i);
                  data_off = 0 })
              grp
          in
          let* statuses = submit_batch fe reqs in
          let* () = all_ok statuses in
          List.iteri
            (fun i (s, off, n) ->
              let clen = n * Vdisk.sector_size in
              let buf = frame_buf fe.f_scratch clen in
              Hypervisor.in_guest fe.f_hv fe.dom (fun () ->
                  Domain.read_into machine fe.dom ~addr:q.q_gvas.(i) ~len:clen ~dst:buf
                    ~dst_off:0);
              fe.codec.decode ~sector:s buf;
              Bytes.blit buf 0 out off clen)
            grp;
          groups rest
    in
    groups (plan_chunks ~sector ~total_sectors:count)
  end

let frontend_ring fe = fe.f_queue.q_ring

let shared_frame be = be.b_queue.q_frames.(0)
let backend_disk be = be.disk
let requests_served be = be.served
let requests_rejected be = be.rejected
let notifications be = be.notifications
