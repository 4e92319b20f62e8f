(** Deterministic, seed-driven single-shot fault plan.

    A plan arms one {!Site.t} for one firing: the site's first guarded
    occurrence fires, and every later occurrence and every other site
    never does. Product code asks [if Plan.armed () && Plan.fire Site.X
    then ...] at each instrumented site — the same cheap-when-off
    discipline as [Obs.Trace]: with no plan installed the guard is a
    single domain-local load and nothing else runs.

    {2 Thread-safety: one plan per domain}

    The installed plan is [Domain.DLS]-backed: {!install}, {!fire},
    {!draw} and {!uninstall} all act on the calling domain's slot only.
    Fleet shards ([Fidelius_fleet.Pool]) arm independent plans
    concurrently without locks; a freshly spawned domain starts with no
    plan installed. A plan value carries mutable state (whether it has
    fired, how many parameters it has drawn), so installing the same [t]
    in two domains at once is a data race — build one plan per shard
    ({!make} is cheap).

    {2 Determinism}

    When a plan fires is fixed by its site alone. Fault {e parameters}
    (which bit to flip, which page to hit) come from {!draw}: a
    splitmix64-style finalizer hashed over [(plan seed, Site.index s,
    k)] for the [k]-th draw, so the same seed always reproduces the same
    perturbation, and no generator state is shared with anything else.

    A plan armed on a site the run never reaches never fires, emits no
    trace events and charges no cost: running under it is byte-identical
    to running with injection disabled (pinned by a qcheck property).

    {2 Observability}

    The firing emits [Obs.Trace.Fault {site; hit = 1}] when tracing is
    enabled, so a trace shows exactly which fault landed when. *)

type t

val make : ?seed:int64 -> Site.t -> t
(** [make ~seed site] arms [site] for one firing. [seed] defaults to
    [2026L]. *)

val armed : unit -> bool
(** The cheap guard: true iff the calling domain has a plan installed.
    One domain-local load, no allocation. *)

val install : t -> unit
(** Makes [t] the calling domain's active plan (replacing any previous
    one). A plan that has fired stays spent — install a fresh plan to
    fire again. *)

val uninstall : unit -> unit
(** Clears the calling domain's plan; subsequent [fire] calls return
    false. *)

val fire : Site.t -> bool
(** True exactly once: on the armed site's first occurrence. False when
    no plan is installed, for any other site, and once the plan has
    fired. Emits the trace event on true. *)

val draw : Site.t -> bound:int -> int
(** Deterministic fault parameter in [\[0, bound)], from the plan's seed
    and its draw counter. Meant to be called only after {!fire} returned
    true. Raises [Invalid_argument] if [bound <= 0] or no plan is
    installed. *)

val fired : t -> bool
(** Whether the plan's site has fired. *)
