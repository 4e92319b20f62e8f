(* Charge sites, interned once. *)
let c_cache_fill = Cost.intern "cache-fill"
let c_cache_hit = Cost.intern "cache-hit"

type t = {
  lines : (int, bytes) Hashtbl.t;
  order : int Queue.t;
  (* [order] is the FIFO of line keys awaiting eviction. A key appears at
     most once ([queued] tracks membership); [invalidate_page] removes the
     line but leaves the key behind as a ghost, purged lazily when the
     eviction scan pops it. Evictions trigger on the LIVE count, so ghosts
     can no longer shrink the effective capacity. *)
  queued : (int, unit) Hashtbl.t;
  (* Resident-line count per frame, so the MMU can skip the per-block probe
     loop in O(1) for frames with nothing cached (a probe miss has no
     ledger effect, so the skip is cycle- and byte-identical). *)
  per_frame : (int, int) Hashtbl.t;
  nr_lines : int;
  ledger : Cost.ledger;
  costs : Cost.table;
}

(* One tagged int per line: pfn above the block bits. A page holds
   [Addr.blocks_per_page] = 256 blocks, hence 8 block bits. *)
let key pfn block = (pfn lsl 8) lor block
let key_pfn k = k lsr 8

let create ?(nr_lines = 4096) ledger =
  { lines = Hashtbl.create nr_lines;
    order = Queue.create ();
    queued = Hashtbl.create nr_lines;
    per_frame = Hashtbl.create 64;
    nr_lines;
    ledger;
    costs = Cost.default }

(* [find] + exception, not [find_opt]: the option would be the only
   allocation left on an all-hit read. *)
let frame_count t pfn =
  match Hashtbl.find t.per_frame pfn with n -> n | exception Not_found -> 0

let bump t pfn delta =
  let n = frame_count t pfn + delta in
  if n <= 0 then Hashtbl.remove t.per_frame pfn else Hashtbl.replace t.per_frame pfn n

(* Pop FIFO keys until a live victim surfaces; ghosts left by
   [invalidate_page] are discarded on the way. The queue cannot run dry
   here: every live line's key is queued, and the caller only evicts when
   at least [nr_lines] lines are live. *)
let rec evict_one t =
  let victim = Queue.pop t.order in
  Hashtbl.remove t.queued victim;
  if Hashtbl.mem t.lines victim then begin
    Hashtbl.remove t.lines victim;
    bump t (key_pfn victim) (-1)
  end
  else evict_one t

(* Ghosts drain only at eviction, so a workload that invalidates below
   capacity could grow the queue without bound; compact it (preserving
   FIFO order of the live keys) when it overshoots. *)
let compact t =
  if Queue.length t.order > 4 * t.nr_lines then begin
    let live = Queue.create () in
    Queue.iter
      (fun k -> if Hashtbl.mem t.lines k then Queue.push k live else Hashtbl.remove t.queued k)
      t.order;
    Queue.clear t.order;
    Queue.transfer live t.order
  end

let fill_from t pfn ~block src ~src_off =
  let key = key pfn block in
  (match Hashtbl.find t.lines key with
  | line ->
      (* Refill of a resident line reuses its buffer — the steady-state
         path allocates nothing. *)
      Bytes.blit src src_off line 0 Addr.block_size
  | exception Not_found ->
      if Hashtbl.length t.lines >= t.nr_lines then evict_one t;
      compact t;
      Hashtbl.replace t.lines key (Bytes.sub src src_off Addr.block_size);
      if not (Hashtbl.mem t.queued key) then begin
        Hashtbl.replace t.queued key ();
        Queue.push key t.order
      end;
      bump t pfn 1);
  Cost.charge_id t.ledger c_cache_fill t.costs.Cost.cacheline_write

let fill t pfn ~block plain = fill_from t pfn ~block plain ~src_off:0

let frame_resident t pfn = frame_count t pfn > 0

let probe_into t pfn ~block ~dst ~dst_off =
  match Hashtbl.find t.lines (key pfn block) with
  | line ->
      Cost.charge_id t.ledger c_cache_hit t.costs.Cost.cache_hit;
      Bytes.blit line 0 dst dst_off Addr.block_size;
      true
  | exception Not_found -> false

(* The scan stops once the frame's resident count is used up, so a frame
   with nothing cached (every release and most firmware rewrites) costs
   one table lookup instead of 256 probes. *)
let invalidate_page t pfn =
  let left = ref (frame_count t pfn) in
  let block = ref 0 in
  while !left > 0 && !block < Addr.blocks_per_page do
    let key = key pfn !block in
    if Hashtbl.mem t.lines key then begin
      Hashtbl.remove t.lines key;
      decr left
    end;
    incr block
  done;
  Hashtbl.remove t.per_frame pfn

let resident t = Hashtbl.length t.lines

(* FIFO-order introspection for the invariant tests: number of queued
   keys whose line is live, and the raw queue length (live + ghosts). *)
let order_live t =
  Queue.fold (fun acc k -> if Hashtbl.mem t.lines k then acc + 1 else acc) 0 t.order

let order_length t = Queue.length t.order
