(** Deterministic merging of per-shard fleet results.

    Every merge in this module keeps its input {e in the order given} —
    callers pass shard results, or the files shards wrote, in canonical
    job order (what {!Pool.map} returns), so merged output is
    byte-identical for any domain count. Nothing here reads domain-local
    state; all inputs are plain values or files handed over by finished
    shards.

    A merged Chrome trace is streamed, never built as one tree: it is
    [chrome_header ^ fragments ^ chrome_footer ~shards], where shard [k]'s
    fragment is its {!process_meta} event followed by its own serialized
    events, comma-separated, and every fragment after the first starts
    with its separating comma. Fragments can therefore be appended to the
    document in shard order without parsing — as
    [Fidelius_workloads.Fleetbench.run_stream] does, one fragment per
    turn — or joined from files by {!concat_spills}. *)

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
    raw bytes of every file in {e list order}, then [footer], to [out] —
    streaming in 64 KiB blocks, so peak memory is independent of the file
    sizes. Determinism is inherited from the inputs: callers pass the
    paths in job order. No separators are inserted — writers embed their
    own (chrome fragments carry a leading comma after the global first).
    Raises [Sys_error] if any file cannot be opened; [out] is closed
    (possibly truncated) on any failure, never left dangling.

    [Fidelius_workloads.Fleetbench.run_stream] no longer spills: it
    appends each fragment to its output in VM order. This stays for its
    one caller, perfbench's fleet workload ([perfbench/fleet_wl.ml]),
    whose traced half repeats the fleet's per-VM steps on one domain
    through files of its own. *)

val csv : header:string -> (string list) list -> string
(** [csv ~header rows] assembles per-shard row groups into one CSV
    string, header first, then every shard's rows in shard order,
    ["\n"]-terminated. Purely concatenation — no reordering, no
    formatting — so shards keep full control of their cells. *)
