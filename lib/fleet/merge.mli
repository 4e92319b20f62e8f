(** Deterministic merging of per-shard fleet results.

    Every merge in this module keeps its input {e in the order given} —
    callers pass shard results, or the spill files shards wrote, in
    canonical job order (what {!Pool.map} returns), so merged output is
    byte-identical for any domain count. Nothing here reads domain-local
    state; all inputs are plain values or files handed over by finished
    shards.

    A merged Chrome trace is streamed, never built as one tree: it is
    [chrome_header ^ fragments ^ chrome_footer ~shards], where shard [k]'s
    fragment is its {!process_meta} event followed by its own serialized
    events, comma-separated, and every fragment after the first starts
    with its separating comma. Spill files holding fragments can
    therefore be joined by {!concat_spills} without parsing. *)

val process_meta : pid:int -> string -> Fidelius_obs.Json.t
(** The Chrome [process_name] metadata event that names shard row [pid]
    — the first object every shard contributes to the [traceEvents]
    array. Deterministic in its inputs. *)

val chrome_header : string
(** The bytes of a Chrome trace document up to (and including) the
    opening of the [traceEvents] array. The streamed document is exactly
    what [Json.to_string] prints for its own parse; the fleet tests hold
    it to that and check its shape with [Json.parse]. *)

val chrome_footer : shards:(string * int) list -> string
(** Closes the [traceEvents] array and appends the [displayTimeUnit] and
    [otherData] sections for the given per-shard [(label, event count)]
    listing, in listing order: [otherData] carries the shard count and
    each shard's event count under its label. See {!chrome_header}. *)

val concat_spills : out:string -> ?header:string -> ?footer:string -> string list -> unit
(** [concat_spills ~out ~header ~footer paths] writes [header], then the
    raw bytes of every spill file in {e list order}, then [footer], to
    [out] — streaming in 64 KiB blocks, so peak memory is independent of
    the spill sizes (the bounded-RSS half of the 1,000-VM fleet story).
    Determinism is inherited from the inputs: callers pass spill paths in
    worker order, and each spill was written by exactly one worker, its
    contiguous block of jobs in canonical job order. No separators are inserted — writers
    embed their own (the fleet's chrome spills carry a leading comma on
    every job fragment after the global first). Raises [Sys_error] if
    any file cannot be opened; [out] is closed (possibly truncated) on
    any failure, never left dangling. *)

val csv : header:string -> (string list) list -> string
(** [csv ~header rows] assembles per-shard row groups into one CSV
    string, header first, then every shard's rows in shard order,
    ["\n"]-terminated. Purely concatenation — no reordering, no
    formatting — so shards keep full control of their cells. *)
