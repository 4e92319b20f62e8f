(** Differential fault-injection matrix.

    For every (fault site × stack) cell this runner arms a single-shot
    deterministic plan ({!Fidelius_inject.Plan}) and drives three probes:

    - the full attack suite, each attack on a fresh stack, comparing the
      faulted outcome against the same attack's fault-free reference;
    - a migration round trip (source platform → untrusted channel →
      target platform) followed by a secret readback on the target;
    - a runtime read of the victim's secret — through the
      hardware-integrity extension ([Core.Integrity]) on the Fidelius
      stack, through the ordinary path on plain SEV.

    Each probe scores one of four verdicts; a cell reports the worst.
    The whole matrix is a pure function of the seed: same seed, same
    table, byte for byte. *)

module Site = Fidelius_inject.Site

type stack_kind = Plain_sev | Fidelius

type verdict =
  | Fail_closed
      (** the fault had no security-relevant effect: outcomes match the
          fault-free reference, or the operation was refused before any
          state changed *)
  | Detected
      (** a defence caught the perturbation: a Denial-class error, a
          typed migration failure, a measurement or integrity mismatch *)
  | Silent_corruption
      (** state or outcomes changed with no defence noticing — the
          verdict the Fidelius column must never show *)
  | Harness_error
      (** the simulator itself broke (an unclassified exception): a bug
          in the harness, never a defence *)

val verdict_to_string : verdict -> string

type cell = {
  site : Site.t;
  stack : stack_kind;
  verdict : verdict;
  detail : string;  (** the probe and observation behind the verdict *)
}

type report = {
  seed : int64;
  cells : cell list;  (** all (site × stack) cells, sites in {!Site.all} order *)
}

val run :
  ?seed:int64 ->
  ?domains:int ->
  ?sites:Site.t list ->
  ?attacks:Fidelius_attacks.Surface.attack list ->
  unit ->
  report
(** Run the matrix. [sites] defaults to {!Site.all}; [attacks] defaults
    to the full suite ([Fidelius_attacks.Suite.all]) — tests pass a
    subset to keep runtime down. [domains] (default
    [Fidelius_fleet.Pool.recommended_domains ()]) shards the fault-free
    reference runs and then the (site × stack) cells across that many
    OCaml domains; each cell arms its plan in its own domain-local slot,
    and the report is identical for every domain count (pinned by a
    test). *)

val fidelius_clean : report -> bool
(** True iff no Fidelius-column cell is [Silent_corruption] or
    [Harness_error] — the CLI's exit-code gate. *)

val pp_table : Format.formatter -> report -> unit
