(** Streaming Chrome [trace_event] writer.

    A fleet run renders hundreds of thousands of trace events per call,
    so its Chrome export skips the [Json.t] tree: {!add_event} prints an
    entry straight into a growable byte cursor, and {!output} hands the
    finished bytes to a channel in one call. {!Trace.chrome_event} stays
    the executable specification: a qcheck property over all fourteen
    constructors in [test/test_obs.ml] holds {!add_event} byte-equal to
    [Json.to_buffer buf (Trace.chrome_event ~pid e)].

    Printing an event allocates nothing once the cursor has room: each
    constructor's [{"name":...,"cat":] prefix is one literal, the
    [,"pid":N,"tid":1,"args":{"seq":] run is rendered once per [pid]
    change rather than per event, and integers are printed digit by digit
    into the cursor. A [Gc.minor_words] pin in [test/test_xen.ml] holds
    the fleet's fragment writer to 0 words per event.

    A writer is owned by one domain at a time (fleet workers keep one
    each in their arena); it keeps no state outside itself, so writers on
    different domains print at once without a lock. *)

type t

val create : unit -> t
(** An empty writer with 64 KiB of room; it grows by doubling. *)

val clear : t -> unit
(** Forget the written bytes, keeping the room. *)

val contents : t -> string
(** The bytes written since the last {!clear} (a copy). *)

val output : out_channel -> t -> unit
(** [output oc w] writes {!contents} to [oc] without copying it first. *)

val add_string : t -> string -> unit
(** Append raw bytes. *)

val add_json : t -> Json.t -> unit
(** Append [Json.to_string j]. *)

val add_event : t -> pid:int -> Trace.entry -> unit
(** Append exactly the bytes of [Json.to_buffer buf (Trace.chrome_event
    ~pid e)]. *)

val add_ring : t -> pid:int -> Trace.ring -> unit
(** Every entry of the ring, oldest first, each as a comma followed by
    {!add_event}. *)
