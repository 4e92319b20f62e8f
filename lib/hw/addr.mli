(** Address-space vocabulary shared by the whole simulator.

    All three address kinds are frame-number based: a frame number times
    {!page_size} plus an offset is a full address. Keeping them as plain
    ints (with distinct names) matches how the rest of the code reasons —
    translation tables map frame numbers, not byte addresses. *)

type pfn = int (** host physical frame number *)

type gfn = int (** guest physical frame number (the "GPA" page) *)

type vfn = int (** virtual frame number (host-virtual or guest-virtual) *)

val page_size : int
(** 4096 bytes, as on the paper's hardware. *)

val block_size : int
(** Encryption-engine granularity: 16 bytes (one AES block). *)

val blocks_per_page : int

val addr_of : int -> int -> int
(** [addr_of frame off] is the byte address. *)

val frame_of : int -> int
(** Frame number containing a byte address. *)

val offset_of : int -> int
(** Offset within the page of a byte address. *)
