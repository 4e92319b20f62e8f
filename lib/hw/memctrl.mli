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

val install_key : t -> asid:int -> Fidelius_crypto.Aes.key -> unit
(** Install a VM encryption key's schedule into a slot (ACTIVATE). The
    slot holds the schedule it is given, not a copy: the firmware expands
    each Kvek once and hands the same schedule to every slot and page
    command. Replaces any previous key in that slot. *)

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

(** {2 Firmware-orchestrated operations}

    The secure processor drives the engine with keys that are not (yet)
    installed in any ASID slot — e.g. encrypting launch pages with a fresh
    Kvek before ACTIVATE. It passes the schedule its guest context holds,
    so the controller keeps no key of its own for these commands. The
    tweak convention matches slot traffic exactly, so pages prepared this
    way decrypt correctly once the key is activated. *)

val fw_encrypt_page : t -> key:Fidelius_crypto.Aes.key -> Addr.pfn -> unit
(** Encrypt a plaintext-resident page in place under [key]. *)

val fw_decrypt_page : t -> key:Fidelius_crypto.Aes.key -> Addr.pfn -> bytes
(** Plaintext of a page encrypted under [key] (the page itself is left
    untouched), in a fresh buffer. *)

val fw_decrypt_page_into :
  t -> key:Fidelius_crypto.Aes.key -> Addr.pfn -> dst:bytes -> unit
(** {!fw_decrypt_page} into a caller-owned page-sized buffer — same ledger
    charge and trace event, no allocation. Raises [Invalid_argument] unless
    [dst] is exactly one page. *)

val fw_write_page : t -> key:Fidelius_crypto.Aes.key -> Addr.pfn -> bytes -> unit
(** Store a full plaintext page encrypted under [key]. *)

(** {2 Inline integrity engine}

    Hook point for the hardware-integrity extension ({!Bmt},
    [Core.Integrity]): when armed, every encrypted CPU read hands the
    frame number the CPU {e requested} and the frame whose DRAM it
    actually fetched ([src]; it differs under an aliased address decode)
    to the check, which reads that frame's ciphertext itself. A mismatch
    (disturbed row, aliased address decode, replay) raises
    {!Denial.Denied}, so corrupted data never reaches software. Disarmed
    (the default), the cost is one option match per read and behaviour is
    bit-for-bit unchanged. *)

val set_fetch_check :
  t -> (Addr.pfn -> src:Addr.pfn -> (unit, string) result) option -> unit
(** Install ([Some]) or clear ([None]) the inline check. Installing
    replaces any previous check — compose externally if two protected
    regions must coexist. *)
