(** Deterministic pseudo-random generator (splitmix64).

    The whole simulator must be reproducible run-to-run, so every source of
    randomness (key generation, nonces, workload access patterns) draws from
    an explicitly seeded generator instead of [Random]. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed yield identical streams. *)

val next64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] fresh pseudo-random bytes. *)

val split : t -> t
(** [split t] derives an independent generator (and advances [t]). *)

val seed_of_label : string -> int64
(** A seed derived from a label by a fixed hash (64-bit FNV-1a, low 62
    bits), the same on every OCaml release and host, unlike
    [Hashtbl.hash]. The harnesses seed each job from its identity with
    it, so a job's result depends on what the job is, never on its
    position in a list or on how many domains ran the list. *)
