(** Para-virtualized block device: front-end (guest) and back-end (driver
    domain) over one bounded shared ring and granted data frames.

    This is the I/O path of paper Section 2.3/4.3.5. The shared data frames
    are unencrypted guest pages (DMA-style memory cannot carry the C-bit),
    so whatever the front-end places there is readable by the back-end and
    by the hypervisor — hence the paper's two encoders, which the front-end
    accepts as a {!codec}:

    - the identity codec (stock Xen): plaintext crosses the shared frame;
    - AES-NI codec (Fidelius): sectors encrypted with the disk key Kblk;
    - SEV codec (Fidelius): sectors transformed by the s-dom/r-dom firmware
      contexts.

    The data movements are real memory traffic through the simulated MMU on
    both sides; the cost model charges the appropriate encoder rates. Each
    side stages a frame's bytes in one page scratch of its own, so a
    full-frame transfer allocates no page-sized buffer on either side
    (only {!read_sectors}' result).

    {2 Batched datapath}

    A device has one ring and [buffer_pages] data frames. The front-end
    submits up to [buffer_pages] requests per doorbell ({!submit_batch}, or
    [?batch] on the sector helpers): one [Event_send] hypercall and one
    backend drain serve the whole batch, amortizing the 9.9 µs world
    switch. At [batch = 1] (the defaults) the wire traffic, disk contents
    and charged ledger costs are byte-identical to the pre-batching
    synchronous path.

    The back-end validates every descriptor against the vdisk and the
    granted frames {e before} charging or copying, and answers malformed
    ones with a typed {!Ring.error} — the ring is an untrusted input
    channel and fails closed. *)

module Hw = Fidelius_hw

type codec = {
  codec_name : string;
  encode : sector:int -> bytes -> unit;
  (** Applied by the front-end before data enters the shared frame. *)
  decode : sector:int -> bytes -> unit;
  (** Applied by the front-end after data leaves the shared frame. *)
}
(** An in-place transform of one frame's worth of whole sectors.
    [encode ~sector buf] and [decode ~sector buf] rewrite [buf], whose
    first sector is disk sector [sector], and keep no reference to it:
    the front-end hands each field the page scratch it stages the chunk
    in (a buffer of the chunk's exact length when the chunk is shorter
    than a frame), then reuses that buffer for the next chunk. Each field
    is called once per data frame. The type leaves no way to change the
    payload's size. *)

val identity_codec : codec

val sectors_per_frame : int
(** Sectors per data frame (page_size / sector_size = 8) — the maximum
    [count] of one ring request. *)

type backend
type frontend

val connect :
  ?ring_size:int ->
  ?buffer_pages:int ->
  Hypervisor.t ->
  Domain.t ->
  disk:Vdisk.t ->
  buffer_gvfn:Hw.Addr.vfn ->
  (frontend * backend, string) result
(** Wire a guest front-end to a dom0 back-end serving [disk]: the guest
    grants dom0 [buffer_pages] fresh unencrypted data pages (default 1)
    starting at [buffer_gvfn] ({!Hypervisor.grant_pages}) and publishes
    the wiring through XenStore; dom0 binds the event channel and
    resolves the grants to frames. [ring_size] (default
    {!Ring.default_size}) must be a power of two. *)

val set_codec : frontend -> codec -> unit

val fresh_req_id : frontend -> int

val data_gref : frontend -> page:int -> int
(** Grant reference of one of the device's data frames — what a raw
    {!submit_batch} request should carry in [data_gref]. *)

val submit_batch :
  frontend ->
  Ring.request list ->
  ((unit, Ring.error) result list, string) result
(** Submit N raw ring requests with a single doorbell hypercall and return
    their statuses in request order. Fails (without submitting) when the
    batch exceeds the ring's free slots — backpressure — and fails closed
    on any response-protocol violation (missing, stray or misnumbered
    responses). *)

val read_sectors :
  ?batch:int -> frontend -> sector:int -> count:int -> (bytes, string) result
(** Guest-visible read: back-end copies disk sectors into shared frames,
    front-end copies them out and decodes. Serves up to [batch] (clamped
    to [buffer_pages], default 1) frame-sized requests per doorbell. *)

val write_sectors :
  ?batch:int -> frontend -> sector:int -> bytes -> (unit, string) result
(** Guest-visible write: front-end encodes into shared frames, back-end
    copies to disk. Same batching as {!read_sectors}. *)

val frontend_ring : frontend -> Ring.t
(** The shared descriptor ring itself. The ring lives in dom0-visible
    memory, so this doubles as the attacker's descriptor-forgery surface
    (stray responses, malformed requests) for tests and the attack suite. *)

val shared_frame : backend -> Hw.Addr.pfn
(** The host frame backing the device's first data buffer — the attacker's
    observation point on the I/O path. *)

val backend_disk : backend -> Vdisk.t

val requests_served : backend -> int
(** Every descriptor the backend consumed, valid or not. *)

val requests_rejected : backend -> int
(** Descriptors answered with a typed error by fail-closed validation. *)

val notifications : backend -> int
(** Doorbells received — [requests_served / notifications] is the achieved
    batch factor. *)
