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

val read_into : t -> sector:int -> count:int -> dst:bytes -> dst_off:int -> unit
(** Copy [count] sectors starting at [sector] into [dst] at [dst_off].
    Range checks cannot wrap: any [sector], [count] outside the disk
    raises [Invalid_argument], however large. *)

val write_from : t -> sector:int -> src:bytes -> src_off:int -> len:int -> unit
(** Store [src]'s [src_off, len] slice at [sector], without copying it out
    first. [len] must be a multiple of the sector size. *)

val peek : t -> sector:int -> count:int -> bytes
(** The attacker's view of the platter: a fresh copy of [count] sectors
    starting at [sector], range-checked like {!read_into}. The back-end
    itself moves data only through {!read_into} and {!write_from}. *)
