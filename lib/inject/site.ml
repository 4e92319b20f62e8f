type t =
  | Dram_flip
  | Dram_remap
  | Fw_drop
  | Fw_replay
  | Tlb_omit_flush
  | Spurious_npf
  | Snapshot_truncate
  | Snapshot_flip
  | Round_truncate
  | Stale_firmware
  | Secret_before_attest

let all =
  [ Dram_flip; Dram_remap; Fw_drop; Fw_replay; Tlb_omit_flush; Spurious_npf;
    Snapshot_truncate; Snapshot_flip; Round_truncate; Stale_firmware;
    Secret_before_attest ]

let index = function
  | Dram_flip -> 0
  | Dram_remap -> 1
  | Fw_drop -> 2
  | Fw_replay -> 3
  | Tlb_omit_flush -> 4
  | Spurious_npf -> 5
  | Snapshot_truncate -> 6
  | Snapshot_flip -> 7
  | Round_truncate -> 8
  | Stale_firmware -> 9
  | Secret_before_attest -> 10

let to_string = function
  | Dram_flip -> "dram-flip"
  | Dram_remap -> "dram-remap"
  | Fw_drop -> "fw-drop"
  | Fw_replay -> "fw-replay"
  | Tlb_omit_flush -> "tlb-omit-flush"
  | Spurious_npf -> "spurious-npf"
  | Snapshot_truncate -> "snapshot-truncate"
  | Snapshot_flip -> "snapshot-flip"
  | Round_truncate -> "round-truncate"
  | Stale_firmware -> "stale-firmware"
  | Secret_before_attest -> "secret-before-attest"
