(** The fault-site taxonomy.

    Each constructor names one place in the simulated platform where a
    deterministic fault can be armed. The set mirrors the misbehaviours the
    literature attributes to a hostile platform: DRAM-level ciphertext
    corruption (SEVurity-style bit-flips, Rowhammer), hypervisor page
    remapping (Hetzelt & Buhren), dropped/replayed firmware commands,
    TLB-maintenance omission, spurious #NPF storms, and a lossy/tampering
    migration channel. *)

type t =
  | Dram_flip  (** flip one bit of stored ciphertext before a CPU read *)
  | Dram_remap
      (** serve a CPU read with the neighbouring frame's ciphertext — the
          physical-address tweak of XEX must turn this into garbage *)
  | Fw_drop  (** silently discard a RECEIVE_UPDATE firmware command *)
  | Fw_replay  (** apply a RECEIVE_UPDATE firmware command twice *)
  | Tlb_omit_flush  (** skip a requested TLB invalidation *)
  | Spurious_npf  (** raise an unsolicited nested page fault mid-guest *)
  | Snapshot_truncate
      (** cut a page-sized tail off an encoded migration UPDATE frame in
          [Migrate.Wire.transmit]; the header still claims the full length *)
  | Snapshot_flip
      (** flip one ciphertext bit of one page in an encoded migration
          UPDATE frame in [Migrate.Wire.transmit] *)
  | Round_truncate
      (** surgically drop the trailing page record of a live-migration
          round and re-frame the wire message consistently — framing
          checks cannot see it, only the keyed measurement can *)
  | Stale_firmware
      (** the hypervisor swaps in an old, vulnerable secure-processor
          firmware blob before the target platform is quoted — the quote
          MAC still verifies; only the owner's version policy can refuse *)
  | Secret_before_attest
      (** compromised owner-side tooling pushes the LAUNCH_SECRET packet
          before the attestation exchange has produced a quote *)

val all : t list
(** Every site, in declaration order. *)

val index : t -> int
(** Stable 0-based position in {!all}; part of the determinism contract
    ([Plan.draw]'s fault parameters hash over it). New sites must be
    appended, never inserted, so existing indices stay stable. *)

val to_string : t -> string
