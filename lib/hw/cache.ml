(* Charge sites, interned once. *)
let c_cache_fill = Cost.intern "cache-fill"
let c_cache_hit = Cost.intern "cache-hit"

(* The store is three growable structures, none allocated per line:

   - [tbl], an open-addressed table from int keys to ints. A line key maps
     to the line's slot in [slab], or to [ghost] once [invalidate_page]
     dropped the line while its key still waits in the FIFO; a key is in
     [tbl] exactly while it is in [ring]. A frame key maps to the number
     of the frame's lines that are resident and the span of blocks they
     lie in, and is removed at zero, so the MMU can skip the per-block
     probe loop in O(1) for frames with nothing cached (a probe miss has
     no ledger effect, so the skip is cycle- and byte-identical), and
     [invalidate_page] scans only the span.
   - [ring], the FIFO of line keys awaiting eviction, ghosts included. A
     key appears at most once; ghosts are purged lazily when the eviction
     scan pops them, and evictions trigger on the LIVE count, so ghosts
     never shrink the effective capacity.
   - [slab], the resident lines' bytes, 16 per slot. Free slots are
     chained through their own first 8 bytes from [free].

   Each doubles only when what it holds outgrows it — the slab never past
   [nr_lines] slots — so a machine that caches little stays small, and a
   steady-state fill, miss or hit, allocates nothing. *)
type t = {
  mutable tbl : int array; (* 2i: key, or [empty]; 2i+1: value *)
  mutable tbl_live : int;
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
  mutable slab : bytes;
  mutable used : int; (* slots ever handed out; the rest of [slab] is fresh *)
  mutable free : int; (* first free slot below [used], -1 if none *)
  mutable live : int; (* resident lines *)
  nr_lines : int;
  ledger : Cost.ledger;
  costs : Cost.table;
}

let empty = -1
let ghost = -1
let initial = 16

(* Keys: a line's is its pfn above 9 bits of block (a page holds
   [Addr.blocks_per_page] = 256 blocks); a frame's takes the block value
   256, which no line key uses. *)
let line_key pfn block = (pfn lsl 9) lor block
let frame_key pfn = (pfn lsl 9) lor 256
let key_pfn k = k lsr 9

let create ?(nr_lines = 4096) ledger =
  if nr_lines <= 0 then invalid_arg "Cache.create: nr_lines must be positive";
  { tbl = Array.make (2 * initial) empty;
    tbl_live = 0;
    ring = Array.make initial 0;
    head = 0;
    len = 0;
    slab = Bytes.create (initial * Addr.block_size);
    used = 0;
    free = -1;
    live = 0;
    nr_lines;
    ledger;
    costs = Cost.default }

(* ---- the table: linear probing from a hash of the key, load below 1/2,
   backward-shift removal (no tombstones), as in [Pagetable]'s reverse
   index. The probe loops are [while]s over local refs, which the native
   compiler keeps unboxed. *)

let mask t = (Array.length t.tbl / 2) - 1
let home t k = ((k * 0x9E3779B1) lsr 8) land mask t

(* The slot holding [k], or -1. *)
let find t k =
  let tbl = t.tbl and mask = mask t in
  let i = ref (home t k) and found = ref (-1) in
  while !found < 0 && Array.unsafe_get tbl (2 * !i) <> empty do
    if Array.unsafe_get tbl (2 * !i) = k then found := !i else i := (!i + 1) land mask
  done;
  !found

let value t i = Array.unsafe_get t.tbl ((2 * i) + 1)
let set_value t i v = Array.unsafe_set t.tbl ((2 * i) + 1) v

(* Store a key known to be absent, in a table with room for it. *)
let place t k v =
  let tbl = t.tbl and mask = mask t in
  let i = ref (home t k) in
  while Array.unsafe_get tbl (2 * !i) <> empty do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set tbl (2 * !i) k;
  Array.unsafe_set tbl ((2 * !i) + 1) v;
  t.tbl_live <- t.tbl_live + 1

let add t k v =
  if 2 * (t.tbl_live + 1) > mask t + 1 then begin
    let old = t.tbl in
    t.tbl <- Array.make (2 * Array.length old) empty;
    t.tbl_live <- 0;
    for i = 0 to (Array.length old / 2) - 1 do
      let k = Array.unsafe_get old (2 * i) in
      if k <> empty then place t k (Array.unsafe_get old ((2 * i) + 1))
    done
  end;
  place t k v

(* Backward-shift deletion: walk the run after the hole and move back each
   entry whose home slot does not lie between the hole and it. *)
let remove_at t i =
  let tbl = t.tbl and mask = mask t in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while Array.unsafe_get tbl (2 * !j) <> empty do
    let k = Array.unsafe_get tbl (2 * !j) in
    if (!j - home t k) land mask >= (!j - !hole) land mask then begin
      Array.unsafe_set tbl (2 * !hole) k;
      Array.unsafe_set tbl ((2 * !hole) + 1) (Array.unsafe_get tbl ((2 * !j) + 1));
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  Array.unsafe_set tbl (2 * !hole) empty;
  t.tbl_live <- t.tbl_live - 1

(* ---- the FIFO ring *)

let ring_push t k =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let grown = Array.make (2 * cap) 0 in
    for n = 0 to cap - 1 do
      Array.unsafe_set grown n (Array.unsafe_get t.ring ((t.head + n) land (cap - 1)))
    done;
    t.ring <- grown;
    t.head <- 0
  end;
  let mask = Array.length t.ring - 1 in
  Array.unsafe_set t.ring ((t.head + t.len) land mask) k;
  t.len <- t.len + 1

let ring_pop t =
  let k = Array.unsafe_get t.ring t.head in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  k

(* ---- the slab *)

let alloc_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- Int64.to_int (Bytes.get_int64_le t.slab (s * Addr.block_size));
    s
  end
  else begin
    let cap = Bytes.length t.slab / Addr.block_size in
    if t.used = cap then begin
      let grown = Bytes.create (Int.min t.nr_lines (2 * cap) * Addr.block_size) in
      Bytes.blit t.slab 0 grown 0 (Bytes.length t.slab);
      t.slab <- grown
    end;
    t.used <- t.used + 1;
    t.used - 1
  end

let free_slot t s =
  Bytes.set_int64_le t.slab (s * Addr.block_size) (Int64.of_int t.free);
  t.free <- s

(* ---- the cache *)

let frame_resident t pfn = find t (frame_key pfn) >= 0

(* A frame key's value: the resident count above bit 16, then the lowest
   and the highest block filled since the count last left zero, 8 bits
   each (a page's blocks are 0-255). Evictions leave the span as it is,
   so every resident line of the frame lies inside it. *)
let count v = v lsr 16
let span_lo v = (v lsr 8) land 0xff
let span_hi v = v land 0xff

let frame_gained t pfn block =
  let i = find t (frame_key pfn) in
  if i < 0 then add t (frame_key pfn) ((1 lsl 16) lor (block lsl 8) lor block)
  else
    let v = value t i in
    set_value t i
      (((count v + 1) lsl 16)
      lor (Int.min block (span_lo v) lsl 8)
      lor Int.max block (span_hi v))

let frame_lost t pfn =
  let i = find t (frame_key pfn) in
  if i >= 0 then
    let v = value t i in
    if count v <= 1 then remove_at t i else set_value t i (v - (1 lsl 16))

(* Pop FIFO keys until a live victim surfaces; ghosts left by
   [invalidate_page] are discarded on the way. The ring cannot run dry
   here: every live line's key is queued, and the caller only evicts when
   at least [nr_lines] lines are live. *)
let rec evict_one t =
  let victim = ring_pop t in
  let i = find t victim in
  let slot = value t i in
  remove_at t i;
  if slot = ghost then evict_one t
  else begin
    free_slot t slot;
    t.live <- t.live - 1;
    frame_lost t (key_pfn victim)
  end

(* Ghosts drain only at eviction, so a workload that invalidates below
   capacity could grow the ring without bound; compact it in place
   (preserving FIFO order of the live keys) when it overshoots. *)
let compact t =
  if t.len > 4 * t.nr_lines then begin
    let mask = Array.length t.ring - 1 in
    let kept = ref 0 in
    for n = 0 to t.len - 1 do
      let k = Array.unsafe_get t.ring ((t.head + n) land mask) in
      let i = find t k in
      if value t i = ghost then remove_at t i
      else begin
        Array.unsafe_set t.ring ((t.head + !kept) land mask) k;
        incr kept
      end
    done;
    t.len <- !kept
  end

let fill_from t pfn ~block src ~src_off =
  let key = line_key pfn block in
  let i = find t key in
  if i >= 0 && value t i <> ghost then
    (* Refill of a resident line: overwrite its slot in place. *)
    Bytes.blit src src_off t.slab (value t i * Addr.block_size) Addr.block_size
  else begin
    if t.live >= t.nr_lines then evict_one t;
    compact t;
    let slot = alloc_slot t in
    Bytes.blit src src_off t.slab (slot * Addr.block_size) Addr.block_size;
    (* A key still queued as a ghost keeps its place in the FIFO; the
       eviction or compaction above may just have dropped it. *)
    let i = find t key in
    if i >= 0 then set_value t i slot
    else begin
      add t key slot;
      ring_push t key
    end;
    t.live <- t.live + 1;
    frame_gained t pfn block
  end;
  Cost.charge_id t.ledger c_cache_fill t.costs.Cost.cacheline_write

let fill t pfn ~block plain = fill_from t pfn ~block plain ~src_off:0

let probe_into t pfn ~block ~dst ~dst_off =
  let i = find t (line_key pfn block) in
  if i >= 0 && value t i <> ghost then begin
    Cost.charge_id t.ledger c_cache_hit t.costs.Cost.cache_hit;
    Bytes.blit t.slab (value t i * Addr.block_size) dst dst_off Addr.block_size;
    true
  end
  else false

(* The scan covers only the frame's span and stops once its resident
   count is used up, so a frame with nothing cached (every release and
   most firmware rewrites) costs one table lookup instead of 256 probes,
   and a frame with a few lines costs about as many probes as the lines
   lie apart. The dropped lines' keys stay queued as ghosts. *)
let invalidate_page t pfn =
  let fi = find t (frame_key pfn) in
  if fi >= 0 then begin
    let v = value t fi in
    let left = ref (count v) and block = ref (span_lo v) and last = span_hi v in
    while !left > 0 && !block <= last do
      let i = find t (line_key pfn !block) in
      if i >= 0 && value t i <> ghost then begin
        free_slot t (value t i);
        set_value t i ghost;
        t.live <- t.live - 1;
        decr left
      end;
      incr block
    done;
    remove_at t fi
  end

let resident t = t.live

(* FIFO-order introspection for the invariant tests: number of queued
   keys whose line is live, and the raw ring length (live + ghosts). *)
let order_live t =
  let mask = Array.length t.ring - 1 and n = ref 0 in
  for j = 0 to t.len - 1 do
    if value t (find t (Array.unsafe_get t.ring ((t.head + j) land mask))) <> ghost then incr n
  done;
  !n

let order_length t = t.len
