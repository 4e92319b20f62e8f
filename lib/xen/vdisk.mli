(** Virtual disk backing store (512-byte sectors).

    Lives on the dom0 / management-VM side of the world: in the threat model
    its contents are fully visible to the attacker, which is why both of the
    paper's I/O-protection schemes arrange for only ciphertext to reach it. *)

type t

val sector_size : int

val create : nr_sectors:int -> t
val of_bytes : bytes -> t
(** Rounded up to whole sectors. *)

val nr_sectors : t -> int

val read : t -> sector:int -> count:int -> bytes
val write : t -> sector:int -> bytes -> unit
(** Length must be a multiple of the sector size. *)

val read_into : t -> sector:int -> count:int -> dst:bytes -> dst_off:int -> unit
(** {!read} into [dst] at [dst_off]. Range checks cannot wrap: any
    [sector], [count] outside the disk raises [Invalid_argument], however
    large. *)

val write_from : t -> sector:int -> src:bytes -> src_off:int -> len:int -> unit
(** {!write} of [src]'s [src_off, len] slice, without copying it out
    first. *)

val peek : t -> sector:int -> count:int -> bytes
(** The attacker's view of the platter — identical to {!read}; a separate
    name so attack code reads honestly. *)
