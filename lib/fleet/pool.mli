(** Fixed-size multicore job pool ([Domain.spawn]-based, no dependencies
    beyond the OCaml 5 runtime).

    [map ~njobs f] runs the jobs [f 0 .. f (njobs - 1)] across a pool of
    worker domains and returns the results {e in canonical job order} —
    the caller can never observe scheduling order, which is the
    foundation of the fleet determinism contract (see [SCALING.md]):
    provided each job is itself deterministic and touches only state it
    owns, the returned list is identical for every [domains] value,
    including 1.

    {2 Scheduling}

    Scheduling is chunked and static: job [j] belongs to the domain given
    by {!chunks}, a pure function of [(njobs, ndomains)]. There is no
    work-stealing and no shared queue, so no lock, no contention, and no
    run-to-run variation in which domain executes which job.

    Requested parallelism and spawned domains are decoupled: [domains]
    fixes the chunking (and therefore the results), while the number of
    worker domains actually spawned is capped at {!recommended_domains},
    with excess chunks dealt out to the workers in contiguous blocks
    ({!worker_of_chunk}), so each worker runs one contiguous job range.
    OCaml 5's minor GC is a stop-the-world rendezvous over all running
    domains, so running more domains than cores stalls every allocation
    on timesliced stragglers, and even {e sequential} extra domains pay
    a measurable spawn/teardown cost against a warm heap — both were
    measured as [~domains:2] running slower than [~domains:1] on one
    core before the cap. The cap changes only which domain hosts a
    chunk, never the chunking itself, so results and artifacts remain
    byte-identical across domain counts.

    {2 State ownership}

    Jobs always execute on freshly spawned worker domains — never on the
    caller's domain, even when [domains = 1] — so no job inherits the
    caller's [Domain.DLS] state: tracing disabled ({!Fidelius_obs.Trace}),
    no fault plan installed ([Fidelius_inject.Plan]). Jobs mapped to the
    same worker share that worker's DLS (this was always true within a
    chunk: [domains = 1] runs every job on one domain), so a job that
    mutates DLS must restore it — e.g. scope tracing with
    [Trace.capture] — or jobs could observe co-scheduled neighbours and
    break domain-count invariance. A job must construct (or be handed
    exclusive ownership of) every piece of mutable state it touches;
    sharing a machine, ledger, or expanded AES key between jobs is a
    data race. *)

val recommended_domains : unit -> int
(** The runtime's suggested parallelism ([Domain.recommended_domain_count]),
    at least 1. The default for every [?domains] argument in the fleet. *)

val workers : njobs:int -> ndomains:int -> int
(** [workers ~njobs ~ndomains] is how many worker domains {!map} (and
    {!map_with}) will actually spawn for that job/domain request:
    [min (recommended_domains ()) (List.length (chunks ~njobs ~ndomains))].
    Deterministic for a fixed host ({!recommended_domains} is the only
    environment-dependent input); never 0 for [njobs >= 0]. Callers that
    size per-worker accumulators (e.g. one GC report slot per worker)
    must use this, not [ndomains] — requested domains beyond the cap are
    multiplexed and own no worker of their own. Raises
    [Invalid_argument] like {!chunks}. *)

val chunks : njobs:int -> ndomains:int -> (int * int) list
(** [chunks ~njobs ~ndomains] is the static job → domain assignment: one
    [(start, len)] pair per worker domain, covering [0 .. njobs - 1] with
    contiguous, disjoint, in-order chunks whose lengths differ by at most
    one. A pure function of its two arguments — part of the determinism
    contract, pinned by a qcheck partition property. At most
    [max njobs 1] domains are used, so no worker is ever empty (except
    the single worker of an empty job list). Raises [Invalid_argument]
    if [njobs < 0] or [ndomains < 1]. *)

val worker_of_chunk : nchunks:int -> nworkers:int -> int -> int
(** [worker_of_chunk ~nchunks ~nworkers i] is the worker that runs chunk
    [i] of [nchunks]: [i * nworkers / nchunks]. Non-decreasing in [i], so
    each worker's chunks are contiguous and run in chunk order; for
    [nworkers <= nchunks] (always the case in {!map}) every worker gets
    at least one chunk and block sizes differ by at most one. Pure;
    pinned by a qcheck property over every shape up to 8 x 8. *)

exception Job_failed of { job : int; exn : exn }
(** Raised by {!map} after all workers have joined, carrying the
    lowest-numbered failing job and its original exception. Deterministic:
    the reported job index does not depend on which domain crashed
    first. *)

val map : ?domains:int -> njobs:int -> (int -> 'a) -> 'a list
(** [map ~domains ~njobs f] runs every job on the pool and returns
    [[f 0; f 1; ...; f (njobs - 1)]] in job order. [domains] defaults to
    {!recommended_domains} and is clamped to [njobs] (an idle domain is
    never spawned); [njobs = 0] returns [[]] without spawning.

    If any job raises, the remaining jobs still run to completion
    (failure of one shard never aborts another's work), and once every
    worker has joined, {!Job_failed} is raised for the lowest failing job
    index. Raises [Invalid_argument] if [njobs < 0] or [domains < 1]. *)

val map_with :
  ?domains:int ->
  njobs:int ->
  init:(int -> 'w) ->
  ?finish:(int -> 'w -> unit) ->
  ('w -> int -> 'a) ->
  'a list
(** [map_with ~njobs ~init ~finish f] is {!map} with worker-lifetime
    state — the hook the per-domain arenas hang off. On each spawned
    worker domain [w] (indices [0 .. workers ~njobs ~ndomains - 1]):

    - [init w] runs once, {e on the worker domain}, before its first
      chunk — allocate the arena (reusable machine backing, trace ring,
      scratch buffers) and snapshot GC baselines here;
    - every job [j] assigned to [w] runs as [f st j] with the state [st]
      that [init] returned — jobs on the same worker see the {e same}
      [st], in canonical job order within each chunk;
    - [finish w st] runs once after the worker's last chunk, still on the
      worker domain, {e even when jobs raised} (job exceptions are
      confined to their result slots) — close spill channels and publish
      GC deltas here.

    Determinism contract: [st] is a reuse pool, never an input — [f st j]
    must return (and write) bytes that are a pure function of [j], so a
    run that reuses a neighbour's arena is byte-identical to one that
    allocates fresh. The qcheck arena-reuse property in
    [test/test_fleet.ml] pins exactly this.

    Error behaviour: a job exception is recorded and re-raised as
    {!Job_failed} for the lowest failing index, after all workers joined.
    An exception escaping [init] or [finish] itself aborts the call —
    every worker is still joined first (no leaked domains, no unpublished
    slots), then the lowest-indexed worker's exception is re-raised
    verbatim. Raises [Invalid_argument] if [njobs < 0] or [domains < 1].

    Thread-safety: [init]/[f]/[finish] run concurrently across workers —
    anything they share must be safe for that (the arena itself must not
    be shared; per-worker slot arrays with disjoint writes are the
    intended pattern, published by the internal joins). *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f xs] is {!map} over the elements of [xs], preserving list
    order. The list is forced into an array up front, so [xs] itself is
    not consulted concurrently. *)
