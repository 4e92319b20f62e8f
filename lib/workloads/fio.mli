(** fio reproduction (paper Table 3).

    Four access patterns are replayed through the *real* PV block path —
    front-end, grant-mapped shared buffer, back-end, virtual disk — once on
    stock Xen with the identity codec and once under Fidelius with the
    AES-NI codec. Device-side characteristics that the simulator's block
    device does not model intrinsically are explicit per-pattern knobs,
    charged identically on both stacks:

    - [seek_cycles]: per-request device latency (dominates random 4K I/O,
      which is why the paper's random rows show near-zero slowdown);
    - [decode_duplication]: the paper's observation that read-side
      decryption is duplicated by sector-granularity processing and sits on
      the critical path (seq-read is the worst row, 22.91%);
    - [write_overlap]: the fraction of write-side encryption cost hidden by
      batching off the critical path (why seq-write shows only 3.61%). *)

type pattern = {
  pat_name : string;
  sequential : bool;
  is_read : bool;
  requests : int;
  request_sectors : int;
  seek_cycles : int;
  decode_duplication : float;
  write_overlap : float;
  unit_name : string;
  unit_bytes_per_rate : float;  (** KB/s or MB/s conversion *)
}

type row = {
  pattern : pattern;
  xen_rate : float;      (** throughput on stock Xen, in [unit_name] *)
  fidelius_rate : float; (** throughput under Fidelius + AES-NI codec *)
  slowdown_pct : float;
}

val table : unit -> row list
