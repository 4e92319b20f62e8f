(** Synthetic workload profiles.

    Real SPECCPU/PARSEC binaries cannot run on the simulator, so each
    benchmark is characterized by the knobs that determine its behaviour on
    the three stacks (see DESIGN.md §1): how much of its time is memory
    stalls (which the SME engine inflates), how often it exits to the
    hypervisor (which Fidelius' shadowing and gates inflate), and how big
    its working set is. The shape of the paper's figures — which benchmarks
    suffer, which don't — follows mechanically from these. *)

type t = {
  name : string;
  suite : string;                 (** "SPECCPU2006" | "PARSEC" *)
  total_mcycles : int;            (** scaled run length, in millions of cycles *)
  mem_stall_fraction : float;     (** fraction of baseline time stalled on DRAM *)
  working_set_pages : int;
  vmexits : int;                  (** hypervisor round trips during the run *)
  write_fraction : float;         (** stores among memory operations *)
}
