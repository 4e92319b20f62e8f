module Aes = Fidelius_crypto.Aes
module Modes = Fidelius_crypto.Modes
module Rng = Fidelius_crypto.Rng
module Trace = Fidelius_obs.Trace
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

(* Charge sites, interned once. *)
let c_dram = Cost.intern "dram"
let c_enc_engine = Cost.intern "enc-engine"

type selector =
  | Plain
  | Smek
  | Asid of int

type t = {
  mem : Physmem.t;
  ledger : Cost.ledger;
  smek : Aes.key;
  slots : (int, Aes.key) Hashtbl.t;
  costs : Cost.table;
  mutable fetch_check : (Addr.pfn -> src:Addr.pfn -> (unit, string) result) option;
  (* Span scratch for the encrypted read-modify-write paths: plaintext
     spans never outlive the call (reads copy out with [Bytes.sub]), so
     one page-sized buffer per controller replaces a [Bytes.create] per
     encrypted DRAM access — the hottest allocation in a fleet run.
     Machine-local, hence job-local under the fleet ownership rules. *)
  scratch : bytes;
}

let create mem ledger rng =
  { mem;
    ledger;
    smek = Aes.expand (Rng.bytes rng 16);
    slots = Hashtbl.create 16;
    costs = Cost.default;
    fetch_check = None;
    scratch = Bytes.create Addr.page_size }

let set_fetch_check t check = t.fetch_check <- check

let install_key t ~asid key =
  if asid <= 0 then invalid_arg "Memctrl.install_key: guest ASIDs are positive";
  Hashtbl.replace t.slots asid key

let uninstall_key t ~asid = Hashtbl.remove t.slots asid

let has_key t ~asid = Hashtbl.mem t.slots asid

let key_of t = function
  | Plain -> None
  | Smek -> Some t.smek
  | Asid asid -> (
      match Hashtbl.find_opt t.slots asid with
      | Some k -> Some k
      | None -> invalid_arg (Printf.sprintf "Memctrl: no key installed for ASID %d" asid))

(* The XEX tweak is the physical block address, binding ciphertext to its
   location. Consecutive blocks step the tweak by the block size, which is
   what lets a multi-block span go through one [Modes.xex_*_span] call —
   since the AES hardware backend that is one C call per page: tweak
   generation, whitening and the block cipher all happen in-register. *)
let tweak_of pfn block = Int64.of_int (Addr.addr_of pfn (block * Addr.block_size))

let tweak_step = Int64.of_int Addr.block_size

let charge_blocks t ~encrypted nblocks =
  Cost.charge_id t.ledger c_dram (t.costs.Cost.dram_access * nblocks);
  if encrypted then
    Cost.charge_id t.ledger c_enc_engine (t.costs.Cost.enc_extra * nblocks);
  if Trace.enabled () then Trace.emit (Trace.Dram { blocks = nblocks; encrypted })

let block_range off len =
  let first = off / Addr.block_size in
  let last = (off + len - 1) / Addr.block_size in
  (first, last)

(* Fault sites live on the CPU read path only: a disturbed DRAM row or an
   aliased address decode corrupts what the CPU sees. The firmware page
   paths model the encryption engine's internal DMA and stay exact, so an
   injected fault can never silently fold into a launch/migration
   measurement. *)
let faulted_src t pfn ~off ~len =
  if Plan.fire Site.Dram_flip then begin
    let bit = Plan.draw Site.Dram_flip ~bound:(len * 8) in
    Physmem.flip_bit t.mem pfn ~off:(off + (bit / 8)) ~bit:(bit mod 8)
  end;
  if Plan.fire Site.Dram_remap && Physmem.nr_frames t.mem > 1 then
    (* Aliased row decode: ciphertext is fetched from the adjacent frame
       while the engine still tweaks with the address the CPU issued. *)
    (if pfn + 1 < Physmem.nr_frames t.mem then pfn + 1 else pfn - 1)
  else pfn

let read_into t sel pfn ~off ~len ~dst ~dst_off =
  if len > 0 then begin
    let src_pfn = if Plan.armed () then faulted_src t pfn ~off ~len else pfn in
    let first, last = block_range off len in
    match key_of t sel with
    | None ->
        (* DRAM traffic is block-granular even without encryption: an
           unaligned access touching two blocks costs two accesses. *)
        charge_blocks t ~encrypted:false (last - first + 1);
        Bytes.blit (Physmem.view t.mem src_pfn ~off ~len) (Physmem.base src_pfn + off)
          dst dst_off len
    | Some key ->
        charge_blocks t ~encrypted:true (last - first + 1);
        let span = (last - first + 1) * Addr.block_size in
        let plain = t.scratch in
        let at = first * Addr.block_size in
        let page = Physmem.view t.mem src_pfn ~off:at ~len:span in
        let at = Physmem.base src_pfn + at in
        (* Integrity engine, if armed: check the ciphertext actually
           fetched against the tree entry for the *requested* frame, so a
           misrouted or disturbed fill is refused before any data flows.
           The check is told which frame's DRAM the fetch read; only a fill
           from the requested frame itself may be vouched for by that
           frame's write stamp. *)
        (match t.fetch_check with
        | None -> ()
        | Some check -> (
            match check pfn ~src:src_pfn with
            | Ok () -> ()
            | Error e -> Denial.deny "memory integrity: %s" e));
        Modes.xex_decrypt_span key ~tweak0:(tweak_of pfn first) ~tweak_step
          ~src:page ~src_off:at ~dst:plain ~dst_off:0 ~len:span;
        Bytes.blit plain (off - (first * Addr.block_size)) dst dst_off len
  end

let read t sel pfn ~off ~len =
  let out = Bytes.create len in
  read_into t sel pfn ~off ~len ~dst:out ~dst_off:0;
  out

let write t sel pfn ~off data =
  let len = Bytes.length data in
  if len > 0 then begin
    let first, last = block_range off len in
    match key_of t sel with
    | None ->
        charge_blocks t ~encrypted:false (last - first + 1);
        Physmem.write_raw t.mem pfn ~off data
    | Some key ->
        (* Read-modify-write the containing blocks so unaligned stores keep
           neighbouring plaintext intact. *)
        charge_blocks t ~encrypted:true (last - first + 1);
        let span = (last - first + 1) * Addr.block_size in
        let plain = t.scratch in
        let at = first * Addr.block_size in
        let page = Physmem.page_for_write t.mem pfn ~off:at ~len:span in
        let at = Physmem.base pfn + at in
        Modes.xex_decrypt_span key ~tweak0:(tweak_of pfn first) ~tweak_step
          ~src:page ~src_off:at ~dst:plain ~dst_off:0 ~len:span;
        Bytes.blit data 0 plain (off - (first * Addr.block_size)) len;
        Modes.xex_encrypt_span key ~tweak0:(tweak_of pfn first) ~tweak_step
          ~src:plain ~src_off:0 ~dst:page ~dst_off:at ~len:span
  end

let fw_charge t =
  Cost.charge_id t.ledger c_enc_engine
    ((t.costs.Cost.dram_access + t.costs.Cost.enc_extra) * Addr.blocks_per_page);
  if Trace.enabled () then
    Trace.emit (Trace.Dram { blocks = Addr.blocks_per_page; encrypted = true })

let fw_write_page t ~key pfn plain =
  if Bytes.length plain <> Addr.page_size then
    invalid_arg "Memctrl.fw_write_page: need a full page";
  fw_charge t;
  let page = Physmem.page_for_write t.mem pfn ~off:0 ~len:Addr.page_size in
  Modes.xex_encrypt_span key ~tweak0:(tweak_of pfn 0) ~tweak_step
    ~src:plain ~src_off:0 ~dst:page ~dst_off:(Physmem.base pfn) ~len:Addr.page_size

let fw_encrypt_page t ~key pfn =
  let plain = Physmem.read_raw t.mem pfn ~off:0 ~len:Addr.page_size in
  fw_write_page t ~key pfn plain

let fw_decrypt_page_into t ~key pfn ~dst =
  if Bytes.length dst <> Addr.page_size then
    invalid_arg "Memctrl.fw_decrypt_page_into: need a full page";
  fw_charge t;
  let page = Physmem.view t.mem pfn ~off:0 ~len:Addr.page_size in
  Modes.xex_decrypt_span key ~tweak0:(tweak_of pfn 0) ~tweak_step
    ~src:page ~src_off:(Physmem.base pfn) ~dst ~dst_off:0 ~len:Addr.page_size

let fw_decrypt_page t ~key pfn =
  let plain = Bytes.create Addr.page_size in
  fw_decrypt_page_into t ~key pfn ~dst:plain;
  plain
