module Trace = Fidelius_obs.Trace
module Plan = Fidelius_inject.Plan

(* Charge sites, interned once. *)
let c_pte_write = Cost.intern "pte-write"

type access = Read | Write | Exec

exception Fault of { space : int; vfn : Addr.vfn; access : access; reason : string }
exception Npt_fault of { domid : int; gfn : Addr.gfn; access : access }

let fault space vfn access reason =
  raise (Fault { space = Pagetable.id space; vfn; access; reason })

(* Packed walk: everything the host access paths need from one
   translation, without building a [proto] record or a result tuple. *)
let translate_packed (m : Machine.t) space access addr =
  let vfn = Addr.frame_of addr in
  ignore (Tlb.lookup m.tlb ~space_id:(Pagetable.id space) vfn);
  let p = Pagetable.lookup_packed space vfn in
  if p = Pagetable.packed_absent then fault space vfn access "not present";
  (match access with
  | Read -> ()
  | Write ->
      (* Supervisor writes honour CR0.WP: clear WP and read-only
         mappings become writable — the type-1 gate's lever. *)
      if not (Pagetable.packed_writable p || not (Cpu.wp m.cpu)) then
        fault space vfn access "read-only mapping with CR0.WP set"
  | Exec ->
      if not (Pagetable.packed_executable p || not (Cpu.nxe m.cpu)) then
        fault space vfn access "non-executable mapping with EFER.NXE set");
  p

let exec_ok (m : Machine.t) space vfn =
  let p = Pagetable.lookup_packed space vfn in
  p <> Pagetable.packed_absent
  && (Pagetable.packed_executable p || not (Cpu.nxe m.cpu))

let wx_ok (m : Machine.t) space vfn =
  let p = Pagetable.lookup_packed space vfn in
  p <> Pagetable.packed_absent
  && (Pagetable.packed_writable p || not (Cpu.wp m.cpu))
  && (Pagetable.packed_executable p || not (Cpu.nxe m.cpu))

(* The host paths only ever see C-bit/no-C-bit with no guest ASID in
   play, so both selector values are constants — no allocation when
   picking one per packed entry. *)
let sel_of_packed p = if Pagetable.packed_c_bit p then Memctrl.Smek else Memctrl.Plain

(* Block-granular CPU access through cache + controller, assembled in the
   machine's span scratch and blitted once into [dst]. Consecutive cache
   misses are fetched from the controller as one span (one decryption pass
   per run instead of one per block); per-block charges are linear in the
   block count, so the ledger sees the same cost either way. Encrypted
   traffic deposits plaintext lines; [Cache.fill_from] slices them straight
   out of the span, and a refill of a resident line reuses its buffer — the
   steady-state access allocates nothing. *)
(* One miss run: fetch blocks [run_first..run_last] from the controller into
   the span scratch (one decryption pass for the whole run) and deposit the
   plaintext lines. Module-level rather than a local function so the hot
   read path does not allocate it as a closure per call. *)
let fetch_run (m : Machine.t) sel pfn ~first ~encrypted run_first run_last =
  let span = m.mmu_span in
  let run_len = (run_last - run_first + 1) * Addr.block_size in
  let span_off = (run_first - first) * Addr.block_size in
  Memctrl.read_into m.ctrl sel pfn ~off:(run_first * Addr.block_size) ~len:run_len
    ~dst:span ~dst_off:span_off;
  if encrypted then
    for blk = run_first to run_last do
      Cache.fill_from m.cache pfn ~block:blk span
        ~src_off:((blk - first) * Addr.block_size)
    done

let cached_read_into (m : Machine.t) sel pfn ~off ~len ~dst ~dst_off =
  let encrypted = match sel with Memctrl.Plain -> false | Memctrl.Smek | Memctrl.Asid _ -> true in
  let first = off / Addr.block_size in
  let last = (off + len - 1) / Addr.block_size in
  let span = m.mmu_span in
  if not (Cache.frame_resident m.cache pfn) then
    (* No line of this frame is resident, so every probe would miss and the
       whole range is one fetch run. Probe misses charge nothing, so this
       shortcut is ledger-identical. *)
    fetch_run m sel pfn ~first ~encrypted first last
  else begin
    let pending = ref (-1) in
    (* start of the current miss run, -1 if none *)
    for blk = first to last do
      if
        Cache.probe_into m.cache pfn ~block:blk ~dst:span
          ~dst_off:((blk - first) * Addr.block_size)
      then begin
        if !pending >= 0 then begin
          fetch_run m sel pfn ~first ~encrypted !pending (blk - 1);
          pending := -1
        end
      end
      else if !pending < 0 then pending := blk
    done;
    if !pending >= 0 then fetch_run m sel pfn ~first ~encrypted !pending last
  end;
  Bytes.blit span (off - (first * Addr.block_size)) dst dst_off len

let cached_read (m : Machine.t) sel pfn ~off ~len =
  let out = Bytes.create len in
  cached_read_into m sel pfn ~off ~len ~dst:out ~dst_off:0;
  out

let cached_write (m : Machine.t) sel pfn ~off data =
  let len = Bytes.length data in
  if len > 0 then begin
    let encrypted = match sel with Memctrl.Plain -> false | Memctrl.Smek | Memctrl.Asid _ -> true in
    Memctrl.write m.ctrl sel pfn ~off data;
    (* Write-through: refresh plaintext lines for the fully covered blocks;
       invalidate partially covered ones so stale plaintext cannot linger.
       Plain traffic never fills, so when the frame has no resident lines
       the loop would be all probe misses — skip it (misses charge nothing,
       so the shortcut is ledger-identical). *)
    if encrypted || Cache.frame_resident m.cache pfn then begin
      let line_buf = m.mmu_line in
      let first = off / Addr.block_size in
      let last = (off + len - 1) / Addr.block_size in
      for blk = first to last do
        let blk_start = blk * Addr.block_size in
        if encrypted && blk_start >= off && blk_start + Addr.block_size <= off + len then
          Cache.fill_from m.cache pfn ~block:blk data ~src_off:(blk_start - off)
        else if Cache.probe_into m.cache pfn ~block:blk ~dst:line_buf ~dst_off:0 then begin
          (* Partial overwrite of a resident line: reload it through the
             engine to keep it coherent. *)
          Memctrl.read_into m.ctrl sel pfn ~off:blk_start ~len:Addr.block_size
            ~dst:line_buf ~dst_off:0;
          if encrypted then Cache.fill m.cache pfn ~block:blk line_buf
        end
      done
    end
  end

let read_frame_as (m : Machine.t) ~sel pfn ~off ~len = cached_read m sel pfn ~off ~len

(* Split a byte range into per-page chunks. *)
let iter_pages ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Addr.offset_of a in
    let chunk = Int.min (len - !pos) (Addr.page_size - off) in
    f ~chunk_addr:a ~chunk_off:!pos ~chunk_len:chunk;
    pos := !pos + chunk
  done

let check_dst fn ~len ~dst ~dst_off =
  if len < 0 || dst_off < 0 || dst_off > Bytes.length dst - len then
    invalid_arg (fn ^ ": dst range out of bounds")

let read_into m space ~addr ~len ~dst ~dst_off =
  check_dst "Mmu.read_into" ~len ~dst ~dst_off;
  iter_pages ~addr ~len (fun ~chunk_addr ~chunk_off ~chunk_len ->
      let p = translate_packed m space Read chunk_addr in
      cached_read_into m (sel_of_packed p) (Pagetable.packed_frame p)
        ~off:(Addr.offset_of chunk_addr) ~len:chunk_len ~dst ~dst_off:(dst_off + chunk_off))

let read m space ~addr ~len =
  let dst = Bytes.create len in
  read_into m space ~addr ~len ~dst ~dst_off:0;
  dst

let write m space ~addr data =
  iter_pages ~addr ~len:(Bytes.length data) (fun ~chunk_addr ~chunk_off ~chunk_len ->
      let p = translate_packed m space Write chunk_addr in
      let chunk =
        if chunk_off = 0 && chunk_len = Bytes.length data then data
        else Bytes.sub data chunk_off chunk_len
      in
      cached_write m (sel_of_packed p) (Pagetable.packed_frame p)
        ~off:(Addr.offset_of chunk_addr) chunk)


let check_frame_writable (m : Machine.t) ~space pfn =
  if m.enforce_paging then
    if not (Pagetable.frame_is_mapped space pfn) then
      raise
        (Fault
           { space = Pagetable.id space;
             vfn = pfn;
             access = Write;
             reason = Printf.sprintf "frame 0x%x is not mapped in the acting space" pfn })
    else if Cpu.wp m.cpu && not (Pagetable.frame_mapped_writable space pfn) then
      raise
        (Fault
           { space = Pagetable.id space;
             vfn = pfn;
             access = Write;
             reason =
               Printf.sprintf "frame 0x%x is mapped read-only and CR0.WP is set" pfn })

let set_pte_packed (m : Machine.t) ~space ~table vfn packed =
  (* The PTE store is a memory write to the page-table-page: the acting
     space must hold a writable mapping of that frame (or any mapping with
     CR0.WP clear). Before paging is enforced (boot building its direct
     map) every store is charged the same but traced by its caller as one
     phase, so neither the store nor its flush records an event. *)
  let backing = Pagetable.backing_frame_of table vfn in
  check_frame_writable m ~space backing;
  Cost.charge_id m.ledger c_pte_write m.costs.Cost.cacheline_write;
  let record = m.enforce_paging in
  if record && Trace.enabled () then Trace.emit (Trace.Pte_write { vfn });
  Pagetable.hw_set_packed table vfn packed;
  Tlb.flush_entry m.tlb ~space_id:(Pagetable.id table) ~record vfn

(* Early boot's bulk store. Before paging is enforced a store checks
   nothing and records no event, so with no plan armed a run is its
   stores, its TLB removals and its two charges, booked once each. An
   armed plan may fire on any one flush, and its fault event is stamped
   with the ledger at that point, so then each entry goes through
   [set_pte_packed], store and flush in turn. *)
let set_pte_run (m : Machine.t) ~space ~table vfn count entry =
  if m.enforce_paging then invalid_arg "Mmu.set_pte_run: paging is enforced";
  if Plan.armed () then
    for v = vfn to vfn + count - 1 do
      set_pte_packed m ~space ~table v (entry v)
    done
  else if count > 0 then begin
    Pagetable.hw_set_run table vfn count entry;
    Cost.charge_id m.ledger c_pte_write (count * m.costs.Cost.cacheline_write);
    Tlb.flush_run m.tlb ~space_id:(Pagetable.id table) vfn count
  end

let set_pte (m : Machine.t) ~space ~table vfn proto =
  set_pte_packed m ~space ~table vfn
    (match proto with
    | None -> Pagetable.packed_absent
    | Some (p : Pagetable.proto) ->
        Pagetable.packed_make ~frame:p.frame ~writable:p.writable
          ~executable:p.executable ~c_bit:p.c_bit)

(* Packed two-stage walk: the nested frame in the upper bits, the key
   selection in the low two (0 = plain, 1 = host SME key, 2 = guest key).
   The boxing wrapper [guest_translate] and the per-access read/write
   paths below share it; the latter thread a preallocated [Asid _]
   selector through, so a steady-state guest access never allocates one. *)
let guest_translate_code (m : Machine.t) ~domid ~gpt ~npt access addr =
  let gvfn = Addr.frame_of addr in
  ignore (Tlb.lookup m.tlb ~space_id:(Pagetable.id gpt) gvfn);
  let gp = Pagetable.lookup_packed gpt gvfn in
  if gp = Pagetable.packed_absent then
    fault gpt gvfn access "guest page table: not present";
  if access = Write && not (Pagetable.packed_writable gp) then
    fault gpt gvfn access "guest page table: read-only";
  let gfn = Pagetable.packed_frame gp in
  let np = Pagetable.lookup_packed npt gfn in
  if np = Pagetable.packed_absent then raise (Npt_fault { domid; gfn; access });
  if access = Write && not (Pagetable.packed_writable np) then
    raise (Npt_fault { domid; gfn; access });
  (* Guest C-bit selects the guest key and takes priority; the nested
     C-bit alone selects the host SME key. *)
  let code =
    if Pagetable.packed_c_bit gp then 2 else if Pagetable.packed_c_bit np then 1 else 0
  in
  (Pagetable.packed_frame np lsl 2) lor code

let sel_of_code ~asid_sel code =
  match code land 3 with 2 -> asid_sel | 1 -> Memctrl.Smek | _ -> Memctrl.Plain

let guest_translate (m : Machine.t) ~domid ~gpt ~npt ~asid access addr =
  let c = guest_translate_code m ~domid ~gpt ~npt access addr in
  (c lsr 2, sel_of_code ~asid_sel:(Memctrl.Asid asid) c)

let guest_read_chunk m ~domid ~gpt ~npt ~asid_sel ~chunk_addr ~chunk_len ~dst ~dst_off =
  let c = guest_translate_code m ~domid ~gpt ~npt Read chunk_addr in
  cached_read_into m (sel_of_code ~asid_sel c) (c lsr 2)
    ~off:(Addr.offset_of chunk_addr) ~len:chunk_len ~dst ~dst_off

let guest_read_sel_into m ~domid ~gpt ~npt ~asid_sel ~addr ~len ~dst ~dst_off =
  check_dst "Mmu.guest_read_sel_into" ~len ~dst ~dst_off;
  if Addr.offset_of addr + len <= Addr.page_size then
    (* Single-page access: no chunking closure on the common path. *)
    guest_read_chunk m ~domid ~gpt ~npt ~asid_sel ~chunk_addr:addr ~chunk_len:len ~dst
      ~dst_off
  else
    iter_pages ~addr ~len (fun ~chunk_addr ~chunk_off ~chunk_len ->
        guest_read_chunk m ~domid ~gpt ~npt ~asid_sel ~chunk_addr ~chunk_len ~dst
          ~dst_off:(dst_off + chunk_off))

let guest_read_sel m ~domid ~gpt ~npt ~asid_sel ~addr ~len =
  let dst = Bytes.create len in
  guest_read_sel_into m ~domid ~gpt ~npt ~asid_sel ~addr ~len ~dst ~dst_off:0;
  dst

let guest_write_sel m ~domid ~gpt ~npt ~asid_sel ~addr data =
  iter_pages ~addr ~len:(Bytes.length data) (fun ~chunk_addr ~chunk_off ~chunk_len ->
      let c = guest_translate_code m ~domid ~gpt ~npt Write chunk_addr in
      let chunk =
        if chunk_off = 0 && chunk_len = Bytes.length data then data
        else Bytes.sub data chunk_off chunk_len
      in
      cached_write m (sel_of_code ~asid_sel c) (c lsr 2)
        ~off:(Addr.offset_of chunk_addr) chunk)
