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

    Scheduling is static: {!workers} worker domains are spawned, and
    worker [w] of [n] runs jobs [w], [w + n], [w + 2n], ... in increasing
    order, so job [j] runs on worker [j mod n] and job counts differ by
    at most one. There is no work-stealing and no shared queue, and no
    run-to-run variation in which domain executes which job on a given
    host. The only lock is {!map_with}'s commit turn, taken only when a
    [commit] is given. The stride keeps consecutive jobs on different
    workers, so commits taken in job order never wait on a whole block
    of another worker's jobs.

    The worker count is capped at {!recommended_domains}. OCaml 5's
    minor GC is a stop-the-world rendezvous over all running domains, so
    running more domains than cores stalls every allocation on
    timesliced stragglers — measured as [~domains:2] running slower than
    [~domains:1] on one core before the cap. The schedule therefore
    depends on the core count, but no result does: every job writes only
    its own slot, so results and artifacts are byte-identical across
    domain counts and host shapes.

    {2 State ownership}

    Jobs always execute on freshly spawned worker domains — never on the
    caller's domain, even when [domains = 1] — so no job inherits the
    caller's [Domain.DLS] state: tracing disabled ({!Fidelius_obs.Trace}),
    no fault plan installed ([Fidelius_inject.Plan]). Jobs mapped to the
    same worker share that worker's DLS ([domains = 1] runs every job
    on one domain), so a job that
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
    [min (recommended_domains ()) (min ndomains njobs)] — 0 when there
    are no jobs. Deterministic for a fixed host ({!recommended_domains}
    is the only environment-dependent input). Callers that size
    per-worker accumulators (e.g. one GC report slot per worker) must use
    this, not [ndomains] — requested domains beyond the cap own no worker
    of their own. Raises [Invalid_argument] if [njobs < 0] or
    [ndomains < 1]. *)

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
  ?commit:('w -> int -> 'a -> waited:bool -> unit) ->
  ('w -> int -> 'a) ->
  'a list
(** [map_with ~njobs ~init ~finish ~commit f] is {!map} with
    worker-lifetime state — the hook the per-domain arenas hang off — and
    an optional in-order commit. On each spawned worker domain [w]
    (indices [0 .. workers ~njobs ~ndomains - 1]):

    - [init w] runs once, {e on the worker domain}, before its first
      job — allocate the arena (reusable machine backing, trace ring,
      scratch buffers) and snapshot GC baselines here;
    - every job [j] assigned to [w] (the stride above) runs as [f st j]
      with the state [st] that [init] returned — jobs on the same worker
      see the {e same} [st], in increasing job order;
    - [commit st j v ~waited], when given, runs on the worker right after
      [f st j] returned [v], but only once the commits of jobs [0 .. j-1]
      have run: commits run one at a time, in job order, so they may
      append to shared outputs. [waited] tells whether job [j] finished
      before its turn and blocked for it. A job that raises, in [f] or in
      its commit, still passes its turn, and a worker whose [init] raised
      passes the turns of all its jobs, so no commit ever waits forever;
    - [finish w st] runs once after the worker's last job, still on the
      worker domain, {e even when jobs raised} (job exceptions are
      confined to their result slots) — publish GC deltas here.

    Determinism contract: [st] is a reuse pool, never an input — [f st j]
    must return (and write) bytes that are a pure function of [j], so a
    run that reuses a neighbour's arena is byte-identical to one that
    allocates fresh. The qcheck arena-reuse property in
    [test/test_fleet.ml] pins exactly this.

    Error behaviour: a job exception, or one raised by its commit, is
    recorded and re-raised as {!Job_failed} for the lowest failing index,
    after all workers joined; the commits of every other job still run.
    An exception escaping [init] or [finish] itself aborts the call —
    every worker is still joined first (no leaked domains, no unpublished
    slots), then the lowest-indexed worker's exception is re-raised
    verbatim. Raises [Invalid_argument] if [njobs < 0] or [domains < 1].

    Thread-safety: [init]/[f]/[finish] run concurrently across workers —
    anything they share must be safe for that (the arena itself must not
    be shared; per-worker slot arrays with disjoint writes are the
    intended pattern, published by the internal joins). [commit] never
    overlaps another commit, and each sees every earlier commit's
    writes. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f xs] is {!map} over the elements of [xs], preserving list
    order. The list is forced into an array up front, so [xs] itself is
    not consulted concurrently. *)
