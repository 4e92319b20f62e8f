(** Fleet-scale live-migration benchmark: N concurrent migrations, each a
    complete src-host/dst-host pair with an attesting owner, sharded over a
    {!Fidelius_fleet.Pool}.

    Determinism contract (SCALING.md): every job owns {e all} of its
    mutable state — both simulated machines, the guest, the owner, and the
    guest's dirty-page bitmap (which lives in the domain record, inside
    the job's own machine) — and seeds are a stable hash of the job
    identity, so [csv] is byte-identical at any [?domains] count. *)

type row = {
  vm : int;
  budget_us : float;  (** downtime budget this migration ran under *)
  rounds : int;
  pages_sent : int;
  residual_pages : int;
  downtime_us : float;
  key_delivered : bool;
      (** owner released the disk key {e and} the migrated guest can read
          exactly that key back from its kblk slot *)
}

type t = { rows : row list }

val run : ?domains:int -> ?vms:int -> budget_us:float -> unit -> t
(** Run [vms] (default 8) complete live migrations under the given
    downtime budget. The guest's working set halves every pre-copy round,
    so total pages sent decreases monotonically as the budget grows. *)

val csv : t -> string
val total_pages : t -> int
val all_keys_delivered : t -> bool
