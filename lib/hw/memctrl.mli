(** Memory controller with the AMD SME/SEV on-die AES engine.

    All CPU-originated memory traffic flows through here. Each access names
    an encryption selector: [Plain] bypasses the engine, [Smek] uses the host
    SME key (slot 0), and [Asid n] uses the per-guest VM-encryption key (the
    Kvek installed by the SEV ACTIVATE command). Ciphertext is bound to the
    physical address via an XEX tweak, so splicing ciphertext between frames
    (replay/remap) yields garbage on decryption, as with SME's
    physical-address tweak.

    Keys live only in the controller's slots — software (including the
    hypervisor) has no architectural read path to them, which is why raw
    physical dumps of protected pages are useless to the attacker. *)

type t

type selector =
  | Plain        (** no encryption (C-bit clear, no SME) *)
  | Smek         (** host SME key *)
  | Asid of int  (** guest key slot, installed by ACTIVATE *)

val create : Physmem.t -> Cost.ledger -> Fidelius_crypto.Rng.t -> t
(** A fresh controller with a newly generated SME key (keys are regenerated
    on every platform reset, per the paper's Section 2.1). *)

val install_key : t -> asid:int -> bytes -> unit
(** Install a 16-byte VM encryption key into a slot (ACTIVATE). Replaces any
    previous key in that slot. *)

val uninstall_key : t -> asid:int -> unit
(** DEACTIVATE: drop the slot; subsequent [Asid] traffic with that slot
    raises [Invalid_argument]. *)

val has_key : t -> asid:int -> bool

val read : t -> selector -> Addr.pfn -> off:int -> len:int -> bytes
(** Decrypting read. [off]/[len] may be unaligned; the engine works on the
    containing 16-byte blocks. Charges DRAM plus, for encrypted selectors,
    the engine's added latency. *)

val read_into :
  t -> selector -> Addr.pfn -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** {!read} into a caller-provided buffer — same ledger charges and trace
    events, no result allocation. The MMU's cached-access loop threads its
    per-machine scratch through this. *)

val write : t -> selector -> Addr.pfn -> off:int -> bytes -> unit
(** Encrypting write (read-modify-write of partial blocks). *)

val read_u64 : t -> selector -> Addr.pfn -> off:int -> int64
val write_u64 : t -> selector -> Addr.pfn -> off:int -> int64 -> unit

val reencrypt_page : t -> src:selector -> dst:selector -> Addr.pfn -> unit
(** In-place re-encryption of a whole page from one key domain to another,
    as the firmware does during RECEIVE_UPDATE. *)

val copy_page :
  t -> src_sel:selector -> src:Addr.pfn -> dst_sel:selector -> dst:Addr.pfn -> unit
(** Page copy through the engine (decrypt with [src_sel], re-encrypt with
    [dst_sel]). *)

(** {2 Firmware-orchestrated operations}

    The secure processor drives the engine with raw keys that are not (yet)
    installed in any ASID slot — e.g. encrypting launch pages with a fresh
    Kvek before ACTIVATE. The tweak convention matches slot traffic exactly,
    so pages prepared this way decrypt correctly once the key is
    activated. *)

val fw_encrypt_page : t -> key:bytes -> Addr.pfn -> unit
(** Encrypt a plaintext-resident page in place under a raw 16-byte key. *)

val fw_decrypt_page : t -> key:bytes -> Addr.pfn -> bytes
(** Plaintext of a page encrypted under a raw key (the page itself is left
    untouched), in a fresh buffer. *)

val fw_decrypt_page_into : t -> key:bytes -> Addr.pfn -> dst:bytes -> unit
(** {!fw_decrypt_page} into a caller-owned page-sized buffer — same ledger
    charge and trace event, no allocation. Raises [Invalid_argument] unless
    [dst] is exactly one page. *)

val forget_fw_key : t -> bytes -> unit
(** Drop the cached schedule of a raw firmware key (DECOMMISSION). The
    next use of the same key re-expands it; a miss charges nothing. *)

val fw_keys_cached : t -> int
(** Number of raw firmware keys whose schedule the controller holds.
    Introspection for the key-scrub tests (the keys themselves never
    leave the controller). *)

val fw_write_page : t -> key:bytes -> Addr.pfn -> bytes -> unit
(** Store a full plaintext page encrypted under a raw key. *)

(** {2 Inline integrity engine}

    Hook point for the hardware-integrity extension ({!Bmt},
    [Core.Integrity]): when armed, every encrypted CPU read hands the
    ciphertext page it actually fetched — together with the frame number
    the CPU {e requested} — to the check. A mismatch (disturbed row,
    aliased address decode, replay) raises {!Denial.Denied}, so corrupted
    data never reaches software. Disarmed (the default), the cost is one
    option match per read and behaviour is bit-for-bit unchanged. *)

val set_fetch_check : t -> (Addr.pfn -> bytes -> (unit, string) result) option -> unit
(** Install ([Some]) or clear ([None]) the inline check. Installing
    replaces any previous check — compose externally if two protected
    regions must coexist. *)
