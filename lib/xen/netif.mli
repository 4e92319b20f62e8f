(** Para-virtualized network interface.

    The same trust shape as the block path: frames cross an unencrypted
    shared page granted to dom0, whose virtual switch ("the wire") forwards
    them — and can read or rewrite every byte. The paper assumes SSL covers
    this channel (Section 4.3.5); pairing this module with
    {!Fidelius_crypto.Secure_channel} demonstrates that assumption holding:
    the driver domain sees only handshake public values and record
    ciphertext, and any tampering breaks the record MACs.

    A {!wire} is a point-to-point vif pair between the first two endpoints
    connected to it, with explicit dom0-side snoop and tamper channels for
    the attack suite. *)

module Hw = Fidelius_hw

type wire
type endpoint

val create_wire : ?capacity:int -> unit -> wire
(** The wire's inbound queues are bounded ([capacity] frames per receiver,
    default 512): a sender overrunning a slow receiver gets a typed
    backpressure error instead of unbounded growth. *)

val wire_capacity : wire -> int

val connect :
  Hypervisor.t -> Domain.t -> wire:wire -> buffer_gvfn:Hw.Addr.vfn ->
  (endpoint, string) result
(** Attach a guest: it grants dom0 one fresh unencrypted shared frame at
    [buffer_gvfn] ({!Hypervisor.grant_pages}). At most two endpoints per
    wire. *)

val send_batch : endpoint -> bytes list -> (unit, string) result
(** Transmit N frames with one event-channel notification: the front end
    stages the frames back-to-back (length-prefixed) in the shared page,
    and the back end reads them out and forwards them onto the wire
    toward the peer, all in one doorbell. Costs one event-channel charge
    plus N copy charges. Fails closed (before charging or staging) when
    the batch exceeds the page or would overrun the wire queue, and on
    any corrupt length prefix. *)

val recv_batch : ?max:int -> endpoint -> (bytes list, string) result
(** Take up to [max] (default: all) queued inbound frames in one
    notification, as many as fit the shared page; the remainder stays
    queued. [[]] when nothing is pending. Same cost shape as
    {!send_batch}. The queues belong to dom0, which can rewrite a queued
    frame ({!tamper}): when the next frame cannot fit the shared page on
    its own, it is dropped and the call returns [Error] without charging
    or staging anything, so later frames still arrive. *)

val send : endpoint -> bytes -> (unit, string) result
(** [send ep frame] is [send_batch ep [frame]]: one frame, one doorbell. *)

val recv : endpoint -> (bytes option, string) result
(** [recv ep] is [recv_batch ~max:1 ep], with [None] when nothing is
    pending. *)

val pending : endpoint -> int

(** {2 The driver domain's view} *)

val snoop : wire -> bytes list
(** Every frame currently queued anywhere on the wire, as dom0 sees it. *)

val snoop_log : wire -> bytes list
(** The most recent frames that crossed the wire, oldest first (dom0
    records traffic). The log keeps at most {!wire_capacity} frames — the
    same bound as each inbound queue — and drops the oldest beyond that;
    {!frames_forwarded} still counts every frame. *)

val tamper : wire -> (bytes -> bytes) -> unit
(** Rewrite all queued frames (man-in-the-middle). *)

val frames_forwarded : wire -> int
