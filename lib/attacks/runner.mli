(** Execute the attack catalogue against all three stacks and tabulate.

    {2 Isolation and determinism}

    Every attack runs on a {e fresh triple} of stacks (plain SEV, SEV-ES,
    Fidelius), and every stack owns all of its mutable state — machine,
    ledger, page tables, conspirator — so attacks can neither poison one
    another nor observe execution order. Each attack's platform seed is
    derived from a stable FNV-1a hash of its {e id} (not its position in
    [Suite.all]), which makes the outcome of attack [x] a pure function of
    [(x, seed)]: independent of catalogue order, of which other attacks
    ran, and of how many domains executed the suite. A regression test
    pins all three independences. *)

type row = {
  attack : Surface.attack;
  baseline : Surface.outcome;   (** plain SEV, stock Xen *)
  sev_es : Surface.outcome;     (** plain SEV with the ES extension *)
  fidelius : Surface.outcome;
}

val attempt : (unit -> 'a) -> ('a, [> `Denied of string | `Exn of string ]) result
(** [attempt f] runs [f]; the one rule for what counts as a defence. A
    {!Fidelius_hw.Denial.Denied} [m] is [`Denied m], a refused NPF
    ({!Fidelius_xen.Hypervisor.Npf_unresolved} [m]) is
    [`Denied ("NPF handler refused: " ^ m)] and a page fault is
    [`Denied ("page fault: " ^ reason)]. Any other exception is a harness
    fault: [`Exn] of its [Printexc.to_string]. *)

val guard : (unit -> Surface.outcome) -> Surface.outcome
(** Run one attack body and classify how it ended with {!attempt}: a
    defence is {!Surface.Blocked}, anything else {!Surface.Errored}, so a
    simulator crash never counts as a defence. *)

val run_all : ?seed:int64 -> ?domains:int -> unit -> row list
(** Runs the whole catalogue, one fresh stack-triple per attack.
    [domains] (default [Fidelius_fleet.Pool.recommended_domains ()])
    shards attacks across that many OCaml domains via
    [Fidelius_fleet.Pool]; rows come back in catalogue order and are
    identical for any domain count. *)

val run_one : ?seed:int64 -> Surface.attack -> row
(** Runs one attack on fresh stacks. [seed] (default [2024L]) is the
    {e base} seed; the stacks' actual seed also mixes in the attack id,
    exactly as [run_all] does, so a lone [run_one] reproduces the suite's
    row for that attack. *)

val errors : row list -> (string * string * string) list
(** [(attack id, stack name, message)] for every {!Surface.Errored}
    outcome on any stack. Non-empty means the harness itself broke — the
    suite must treat that as a failure, never as a defense. *)

val summary : row list -> int * int * int
(** (attacks total, defended under Fidelius, undefended under baseline). *)

val pp_table : Format.formatter -> row list -> unit
(** Renders the three-column outcome table plus the summary line the CLI
    prints. Pure formatting — does not run anything. *)
