module Rng = Fidelius_crypto.Rng

(* Charge sites, interned once. *)
let c_dma = Cost.intern "dma"

type t = {
  mem : Physmem.t;
  ctrl : Memctrl.t;
  tlb : Tlb.t;
  cache : Cache.t;
  ledger : Cost.ledger;
  costs : Cost.table;
  rng : Rng.t;
  cpu : Cpu.t;
  insns : Insn.registry;
  mutable fresh_frames : int;
  mutable freed : Addr.pfn list;
  mutable nr_freed : int;
  mutable next_table_id : int;
  mutable enforce_paging : bool;
  mutable iommu : (Addr.pfn -> bool) option;
  mmu_span : bytes;
  mmu_line : bytes;
}

let default_nr_frames = 8192

let create ?(nr_frames = default_nr_frames) ?mem ~seed () =
  let ledger = Cost.ledger () in
  let rng = Rng.create seed in
  let mem =
    match mem with
    | None -> Physmem.create ~nr_frames
    | Some m ->
        (* Arena reuse: a recycled backing must behave exactly like a
           fresh one, so its geometry must match and its contents are
           zeroed before anything reads them. *)
        if Physmem.nr_frames m <> nr_frames then
          invalid_arg
            (Printf.sprintf "Machine.create: reused backing has %d frames, expected %d"
               (Physmem.nr_frames m) nr_frames);
        Physmem.reset m;
        m
  in
  { mem;
    ctrl = Memctrl.create mem ledger rng;
    tlb = Tlb.create ledger;
    cache = Cache.create ledger;
    ledger;
    costs = Cost.default;
    rng;
    cpu = Cpu.create ();
    insns = Insn.create ledger;
    (* Frame 0 stays reserved so that "frame 0" can never be a valid
       mapping target, catching uninitialized-entry bugs early. *)
    fresh_frames = nr_frames - 1;
    freed = [];
    nr_freed = 0;
    next_table_id = 1;
    enforce_paging = false;
    iommu = None;
    mmu_span = Bytes.create Addr.page_size;
    mmu_line = Bytes.create Addr.block_size }

(* The last frame freed comes back first; with none freed, the highest
   frame never handed out. *)
let alloc_frame t =
  match t.freed with
  | pfn :: rest ->
      t.freed <- rest;
      t.nr_freed <- t.nr_freed - 1;
      pfn
  | [] ->
      if t.fresh_frames = 0 then failwith "Machine.alloc_frame: out of physical memory";
      let pfn = t.fresh_frames in
      t.fresh_frames <- pfn - 1;
      pfn

let alloc_frames t n = List.init n (fun _ -> alloc_frame t)

let free_frame t pfn =
  (* Scrub on free so stale secrets never leak through reallocation. *)
  Physmem.scrub t.mem pfn;
  Cache.invalidate_page t.cache pfn;
  t.freed <- pfn :: t.freed;
  t.nr_freed <- t.nr_freed + 1

let frames_free t = t.fresh_frames + t.nr_freed

let new_table t =
  let id = t.next_table_id in
  t.next_table_id <- id + 1;
  Pagetable.create ~id ~mem:t.mem ~alloc:(fun () -> alloc_frame t)

let dma_allowed t pfn =
  match t.iommu with None -> true | Some ok -> ok pfn

let dma_write t pfn ~off data =
  if dma_allowed t pfn then begin
    Cost.charge_id t.ledger c_dma t.costs.Cost.dram_access;
    Physmem.write_raw t.mem pfn ~off data;
    Ok ()
  end
  else Error (Printf.sprintf "IOMMU: DMA write to frame 0x%x denied" pfn)

let dma_read t pfn ~off ~len =
  if dma_allowed t pfn then begin
    Cost.charge_id t.ledger c_dma t.costs.Cost.dram_access;
    Ok (Physmem.read_raw t.mem pfn ~off ~len)
  end
  else Error (Printf.sprintf "IOMMU: DMA read from frame 0x%x denied" pfn)

let set_iommu t filter = t.iommu <- filter
