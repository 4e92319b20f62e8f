(** Runtime disk-I/O protection (paper Section 4.3.5, Figure 4).

    Two para-virtualized encoders for the PV block front-end:

    - {!aesni_codec}: sector-granular AES-XEX under the owner's disk key
      Kblk, tweaked by the sector number — the AES-NI path for processors
      with the instruction set. Both the disk image and everything crossing
      the shared buffer are Kblk ciphertext.
    - {!sev_codec}: the novel SEV-API reuse for processors without AES-NI.
      Two helper firmware contexts are created for the guest: the s-dom
      (perpetually SENDING, sharing the guest's Kvek) encodes outbound data
      Kvek→Ktek through SEND_UPDATE; the r-dom (perpetually RECEIVING,
      sharing Kvek and Ktek) decodes inbound data through RECEIVE_UPDATE.
    - {!gek_codec}: the same datapath through the paper's proposed GEK
      instructions (Section 8).
    - {!software_codec}: plain software AES, the ablation baseline the paper
      reports as >20x slower than either hardware path.

    The two firmware codecs are one staged codec: each sector is written
    through the guest-private Md page, which both set-ups map the same
    way, and transformed by one firmware command pair. They differ only
    in their name, their charge label ([io-encode-sev] or
    [io-encode-gek]) and that command pair. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen

val aesni_codec : Ctx.t -> kblk:bytes -> Xen.Blkif.codec

val software_codec : Ctx.t -> kblk:bytes -> Xen.Blkif.codec
(** Same transformation as {!aesni_codec}, charged at the software-AES
    rate. *)

type sev_io
(** The s-dom/r-dom helper pair for one protected guest. *)

val setup_sev_io :
  Ctx.t -> Xen.Domain.t -> md_gvfn:Hw.Addr.vfn -> (sev_io, string) result
(** Create the helper contexts (LAUNCH shared-Kvek, SEND_START,
    RECEIVE_START) and the guest-private Md staging page. *)

val sev_codec : sev_io -> Xen.Blkif.codec

val helper_handles : sev_io -> int * int
(** (s-dom, r-dom) firmware handles, for inspection/tests. *)

(** {2 Customized-key codec (paper Section 8, suggestion 2)}

    The same data path as {!sev_codec} but through the proposed
    SETENC_GEK/ENC/DEC instruction family. The gain is a simpler set-up:
    one firmware command instead of three, no helper contexts left
    perpetually in SENDING and RECEIVING states, and the guest context
    itself stays RUNNING. *)

type gek_io

val setup_gek_io :
  Ctx.t -> Xen.Domain.t -> md_gvfn:Hw.Addr.vfn -> (gek_io, string) result
(** SETENC_GEK for the guest, and the same Md staging page as
    {!setup_sev_io}. *)

val gek_codec : gek_io -> Xen.Blkif.codec

val gek_id : gek_io -> int

val encrypt_disk : kblk:bytes -> bytes -> bytes
(** Owner-side preparation of an encrypted disk image: the same per-sector
    AES-XEX transformation the AES-NI codec applies, so a disk written this
    way mounts directly under {!aesni_codec}. Length is padded to whole
    sectors. *)

val decrypt_disk : kblk:bytes -> bytes -> bytes
