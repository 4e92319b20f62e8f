(** Workload execution engine.

    A run boots a fresh stack in the requested configuration, samples real
    guest memory traffic and real hypercall round trips on it (through the
    full MMU/encryption/gate machinery), and extrapolates the sampled
    per-operation costs to the profile's operation counts. Overheads are
    therefore produced by the same mechanisms as on hardware — extra
    engine latency per encrypted line, shadowing and gate cycles per exit —
    not by hard-coded factors.

    The three configurations mirror the paper's Section 7.1:
    - [Xen_baseline]: stock hypervisor, unprotected guest;
    - [Fidelius]: all Fidelius mechanisms active, memory encryption off
      (the paper had no SEV-capable board, so SME is toggled separately);
    - [Fidelius_enc]: Fidelius plus the [enable_mem_enc] hypercall, which
      sets the C-bit in the guest's nested mappings so the SME engine
      encrypts its memory traffic. *)

type config =
  | Xen_baseline
  | Fidelius
  | Fidelius_enc

val config_to_string : config -> string

val seed_of : Profile.t -> config -> int64
(** Deterministic per-(profile, config) platform seed, derived with a
    stable FNV-1a hash of ["name/config"] so the sampled results — and the
    golden CSVs pinned in the tests — survive OCaml upgrades (unlike
    [Hashtbl.hash]). Always positive. *)

type result = {
  profile : Profile.t;
  config : config;
  cycles : int;                     (** extrapolated total for the run *)
  per_access : float;               (** sampled cycles per 64-byte access *)
  per_exit : float;                 (** sampled cycles per hypervisor round trip *)
  breakdown : (string * int) list;  (** ledger categories sampled during the run *)
  attribution : (string * int) list;
      (** per-scope cycle attribution ("dom1", "(root)", …); sums to the
          run ledger's total *)
}

val run : ?mem:Fidelius_hw.Physmem.t -> Profile.t -> config -> result
(** Boot and measure one stack. [mem] recycles a DRAM backing for the
    machine ([Hw.Machine.create ?mem] — reset to all-zeroes first), the
    fleet arena fast path; the result is a pure function of
    [(profile, config)] whether or not a backing is reused, which the
    arena-reuse qcheck property in [test/test_fleet.ml] pins. The caller
    must own the backing exclusively for the duration of the run. Raises
    [Invalid_argument] if the backing's frame count differs from
    [Hw.Machine.default_nr_frames], and [Failure] if the protected boot
    itself fails. *)

val overhead_pct : base:result -> result -> float
(** [(cycles - base.cycles) / base.cycles * 100]. *)

val run_suite :
  ?domains:int -> Profile.t list -> (Profile.t * float * float * result) list
(** For each profile: (profile, Fidelius overhead %, Fidelius-enc overhead %,
    the Fidelius-enc run) against the Xen baseline — the one runner behind
    Figures 5/6 and the CLI's [bench spec|parsec --breakdown], which reads
    the Fidelius-enc run's ledgers. Each profile's three runs are one
    independent job on [Fidelius_fleet.Pool] — [domains] (default
    [Fidelius_fleet.Pool.recommended_domains ()]) shards profiles across
    that many OCaml domains; every run builds a fresh machine from
    {!seed_of}, so the returned list is identical for any domain
    count. *)
