(** Para-virtualized I/O ring (block protocol flavour).

    Ring *data* travels through real simulated memory: each request names a
    grant reference for the data frame, and both ends copy sector payloads
    through their own (permission- and encryption-checked) access paths.
    The descriptor slots themselves are modelled as host-side arrays
    attached to the shared frame — their few bytes of metadata carry no
    confidential payload, matching the paper's focus on protecting the data
    path rather than ring indices.

    Since the batched-datapath work the ring is *bounded*, like the real
    Xen shared ring: a fixed power-of-two number of descriptor slots with
    free-running producer/consumer indices on each direction. Producers see
    backpressure ({!push_request} fails with {!Ring_full}) instead of
    unbounded growth. The backend pops requests one at a time
    ({!pop_request}); the frontend drains a whole batch of responses per
    notification ({!pop_responses}). *)

type op = Read | Write

type request = {
  req_id : int;
  op : op;
  sector : int;      (** first 512-byte sector *)
  count : int;       (** number of sectors *)
  data_gref : int;   (** grant reference of the data buffer frame *)
  data_off : int;    (** offset of the payload inside that frame *)
}

(** Typed ring-protocol errors. Everything crossing the ring is input from
    the other (untrusted) side, so malformed descriptors fail closed with a
    structured reason rather than raising or being served. *)
type error =
  | Ring_full of { capacity : int }
      (** Producer overran the consumer: no free descriptor slots. *)
  | Bad_count of { count : int; max_count : int }
      (** Zero, negative, or more sectors than fit one data frame. *)
  | Bad_sector of { sector : int; count : int; nr_sectors : int }
      (** [sector, sector+count) not within the backing vdisk. *)
  | Bad_span of { data_off : int; len : int; frame_bytes : int }
      (** Payload span does not fit inside the granted data frame. *)
  | Bad_gref of { gref : int; reason : string }
      (** Data grant unknown to this queue, revoked, or not for dom0. *)
  | Duplicate_req_id of { req_id : int }
      (** Two in-flight requests share an id; responses would be
          unmatchable, so the second fails. *)
  | Backend_fault of string
      (** The backend's own copy faulted while serving the request. *)

val error_to_string : error -> string

type response = {
  resp_id : int;
  status : (unit, error) result;
}

type t

val default_size : int
(** 32 descriptor slots per direction. *)

val create : ?size:int -> unit -> t
(** [create ?size ()] makes a ring with [size] request slots and [size]
    response slots. [size] must be a power of two ≥ 2 (like Xen's
    [__RING_SIZE]); raises [Invalid_argument] otherwise. *)

val push_request : t -> request -> (unit, error) result
(** Fails with {!Ring_full} when all request slots are in flight —
    the frontend's backpressure signal. *)

val pop_request : t -> request option

val push_response : t -> response -> (unit, error) result
val pop_responses : t -> max:int -> response list

val requests_pending : t -> int
val responses_pending : t -> int
val free_request_slots : t -> int

val indices : t -> (int * int) * (int * int)
(** [((req_prod, req_cons), (resp_prod, resp_cons))] — the free-running
    producer/consumer indices, for observability and tests. *)
