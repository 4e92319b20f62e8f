type op = Read | Write

type request = {
  req_id : int;
  op : op;
  sector : int;
  count : int;
  data_gref : int;
  data_off : int;
}

type error =
  | Ring_full of { capacity : int }
  | Bad_count of { count : int; max_count : int }
  | Bad_sector of { sector : int; count : int; nr_sectors : int }
  | Bad_span of { data_off : int; len : int; frame_bytes : int }
  | Bad_gref of { gref : int; reason : string }
  | Duplicate_req_id of { req_id : int }
  | Backend_fault of string

let error_to_string = function
  | Ring_full { capacity } -> Printf.sprintf "ring: full (%d slots in flight)" capacity
  | Bad_count { count; max_count } ->
      Printf.sprintf "ring: bad sector count %d (must be 1..%d)" count max_count
  | Bad_sector { sector; count; nr_sectors } ->
      Printf.sprintf "ring: sectors %d+%d outside disk of %d sectors" sector count nr_sectors
  | Bad_span { data_off; len; frame_bytes } ->
      Printf.sprintf "ring: payload span %d+%d outside the %d-byte data frame" data_off len
        frame_bytes
  | Bad_gref { gref; reason } -> Printf.sprintf "ring: bad data grant %d (%s)" gref reason
  | Duplicate_req_id { req_id } -> Printf.sprintf "ring: duplicate in-flight req_id %d" req_id
  | Backend_fault m -> "backend fault: " ^ m

type response = {
  resp_id : int;
  status : (unit, error) result;
}

(* One direction of the shared ring: a power-of-two slot array under
   free-running producer/consumer indices (prod - cons = in flight),
   the shape of Xen's ring.h macros. *)
type 'a half = {
  slots : 'a option array;
  mask : int;
  mutable prod : int;
  mutable cons : int;
}

let half_create size = { slots = Array.make size None; mask = size - 1; prod = 0; cons = 0 }

let half_push h v ~capacity =
  if h.prod - h.cons >= Array.length h.slots then Error (Ring_full { capacity })
  else begin
    h.slots.(h.prod land h.mask) <- Some v;
    h.prod <- h.prod + 1;
    Ok ()
  end

let half_pop h =
  if h.cons = h.prod then None
  else begin
    let i = h.cons land h.mask in
    let v = h.slots.(i) in
    h.slots.(i) <- None;
    h.cons <- h.cons + 1;
    v
  end

let half_pending h = h.prod - h.cons

type t = {
  ring_size : int;
  req : request half;
  resp : response half;
}

let default_size = 32

let is_pow2 n = n >= 2 && n land (n - 1) = 0

let create ?(size = default_size) () =
  if not (is_pow2 size) then
    invalid_arg (Printf.sprintf "Ring.create: size %d must be a power of two >= 2" size);
  { ring_size = size; req = half_create size; resp = half_create size }

let push_request t r = half_push t.req r ~capacity:t.ring_size
let pop_request t = half_pop t.req
let push_response t r = half_push t.resp r ~capacity:t.ring_size

let pop_responses t ~max =
  let rec go acc n =
    if n <= 0 then List.rev acc
    else match half_pop t.resp with None -> List.rev acc | Some v -> go (v :: acc) (n - 1)
  in
  go [] max

let requests_pending t = half_pending t.req
let responses_pending t = half_pending t.resp
let free_request_slots t = t.ring_size - half_pending t.req

let indices t = ((t.req.prod, t.req.cons), (t.resp.prod, t.resp.cons))
