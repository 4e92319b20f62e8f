(** Traffic-serving workload over the batched PV datapath.

    A protected guest (AES-NI disk codec, as in the paper's deployment
    scenario) serves a mixed request stream: block reads/writes through the
    PV block ring and request/response frame exchanges through the PV
    network path. Requests arrive open-loop — arrival gaps are drawn
    independently of service progress, so queueing delay is visible — and
    are served [batch] descriptors per doorbell. Latency is measured per
    request in simulated ledger cycles from arrival to batch completion,
    which exposes the batching trade-off: throughput rises with [batch]
    while early members of a batch wait for it to fill.

    The traffic mix is fixed: 30% of batches are network exchanges, the
    offered load is 0.8 of calibrated capacity, and the platform seed is
    97. The load generator is calibrated closed-loop first: the measured
    mean service cost per request sets the arrival gap to
    [mean_service / 0.8] with uniform jitter in [0.5, 1.5] of the gap. *)

type config = {
  requests : int;      (** total requests (rounded down to whole batches) *)
  batch : int;         (** descriptors per doorbell, clamped to [1, 8] *)
}

val default_config : config
(** 512 requests, batch 8. *)

type report = {
  batch : int;
  completed : int;
  rps : float;             (** requests per second at a 1 GHz simulated clock *)
  p50_us : float;          (** latency percentiles, simulated microseconds *)
  p90_us : float;
  p99_us : float;
  mean_service_cycles : float;  (** calibrated per-request service cost *)
  hypercalls : int;        (** world switches taken while serving *)
  blk_notifications : int; (** block-backend doorbells *)
  net_frames : int;        (** frames forwarded on the wire *)
}

val run : config -> report

val ring_workload : batch:int -> iters:int -> unit -> unit
(** Wall-clock ring-throughput kernel for the bench harness: boots a
    protected-guest stack and returns a thunk that pushes [iters]
    single-sector read descriptors through the ring, [batch] per doorbell.
    The thunk is re-runnable; the harness supplies the timer (this library
    does not link [unix]). *)
