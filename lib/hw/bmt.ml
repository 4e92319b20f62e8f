module Sha256 = Fidelius_crypto.Sha256

(* Cost of one SHA-256 over a page or a pair of digests, as the secure
   processor's hash unit would charge it. *)
let hash_page_cycles = 1600
let hash_node_cycles = 80

type t = {
  machine : Machine.t;
  frames : Addr.pfn array;            (* sorted, duplicate-free *)
  mutable levels : bytes array array;
      (* levels.(0) = leaf digests, levels.(top) = [| root |] *)
  leaf_stamps : int array;
      (* [leaf_stamps.(i)]: the write stamp frame [frames.(i)] carried when
         the engine hashed [levels.(0).(i)]. While the frame still carries
         it, its bytes are the ones that leaf was hashed from. *)
  mutable hashes : int;
  mutable fetch_hashes : int;         (* modelled inline fetch checks *)
  mutable page_hashes : int;          (* page hashes the host computed *)
  scratch : Sha256.ctx;               (* per-tree hash unit state *)
  walk : Bytes.t;                     (* 32-byte running digest for walks *)
  upd_a : int array;                  (* dirty-index scratch, even levels *)
  upd_b : int array;                  (* dirty-index scratch, odd levels *)
  upd_mark : Bytes.t;                 (* per-leaf dedup marks, cleared after use *)
}

(* The leaf index of [pfn]: a binary search of the sorted frame array, -1
   when the frame is outside the tree. No option, no allocation. *)
let index_of t pfn =
  let lo = ref 0 and hi = ref (Array.length t.frames - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get t.frames mid in
    if v = pfn then found := mid else if v < pfn then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* Hash of one leaf — pfn header || page bytes, [len] of them at [off] in
   [data] — into [dst] at [dst_off]. Uncharged core; the charged paths
   book the cost. *)
let digest_into t pfn data ~off ~len ~dst ~dst_off =
  t.page_hashes <- t.page_hashes + 1;
  Sha256.reset t.scratch;
  Sha256.feed_u64_be t.scratch (Int64.of_int pfn);
  Sha256.feed_sub t.scratch data ~off ~len;
  Sha256.finalize_into t.scratch ~dst ~dst_off

(* The hash of leaf [pfn] over frame [pfn]'s live bytes. *)
let digest_frame_into t pfn ~dst ~dst_off =
  digest_into t pfn
    (Physmem.view t.machine.Machine.mem pfn ~off:0 ~len:Addr.page_size)
    ~off:(Physmem.base pfn) ~len:Addr.page_size ~dst ~dst_off

(* Store leaf [idx] from its frame's current bytes, with the stamp they
   carry. *)
let rehash_leaf t idx =
  let mem = t.machine.Machine.mem and pfn = t.frames.(idx) in
  t.leaf_stamps.(idx) <- Physmem.stamp mem pfn;
  digest_frame_into t pfn ~dst:t.levels.(0).(idx) ~dst_off:0

(* How many changes frame [frames.(idx)] has taken since leaf [idx] was
   hashed from its bytes: 0 while the leaf is current. *)
let stamps_past t idx =
  Physmem.stamp t.machine.Machine.mem t.frames.(idx) - t.leaf_stamps.(idx)

let leaf_current t idx = stamps_past t idx = 0

let c_bmt = Cost.intern "bmt"

let charge_leaf t =
  t.hashes <- t.hashes + 1;
  Cost.charge_id t.machine.Machine.ledger c_bmt hash_page_cycles

let charge_node t =
  t.hashes <- t.hashes + 1;
  Cost.charge_id t.machine.Machine.ledger c_bmt hash_node_cycles

let node_hash t left right =
  charge_node t;
  Sha256.digest_pair left right

(* A missing right sibling is paired with itself (odd level widths). *)
let sibling level i = if i lxor 1 < Array.length level then level.(i lxor 1) else level.(i)

let rebuild_level t below =
  let n = (Array.length below + 1) / 2 in
  Array.init n (fun i ->
      let left = below.(2 * i) in
      let right = if (2 * i) + 1 < Array.length below then below.((2 * i) + 1) else left in
      node_hash t left right)

let create machine ~frames =
  if frames = [] then invalid_arg "Bmt.create: no frames";
  let frames = Array.of_list (List.sort_uniq compare frames) in
  let n = Array.length frames in
  let t =
    { machine; frames; levels = [| Array.init n (fun _ -> Bytes.create 32) |];
      leaf_stamps = Array.make n 0; hashes = 0; fetch_hashes = 0; page_hashes = 0;
      scratch = Sha256.init (); walk = Bytes.create 32;
      upd_a = Array.make n 0; upd_b = Array.make n 0; upd_mark = Bytes.make n '\000' }
  in
  for idx = 0 to n - 1 do
    charge_leaf t;
    rehash_leaf t idx
  done;
  let rec build acc level =
    if Array.length level = 1 then Array.of_list (List.rev (level :: acc))
    else build (level :: acc) (rebuild_level t level)
  in
  t.levels <- build [] t.levels.(0);
  t

let root t = Bytes.copy t.levels.(Array.length t.levels - 1).(0)

let covered t pfn = index_of t pfn >= 0

let not_covered pfn = Error (Printf.sprintf "BMT: frame 0x%x is not integrity-protected" pfn)

let verify t pfn =
  let idx = index_of t pfn in
  if idx < 0 then not_covered pfn
  else begin
    (* Recompute leaf-to-root using stored siblings; compare with the
       stored root. The running digest lives in [t.walk]. The leaf is
       charged as a page hash either way; the host skips the hash when the
       frame still carries the stamp its stored leaf was hashed at, since
       the hash would reproduce that leaf. *)
    charge_leaf t;
    if leaf_current t idx then Bytes.blit t.levels.(0).(idx) 0 t.walk 0 32
    else digest_frame_into t pfn ~dst:t.walk ~dst_off:0;
    let i = ref idx in
    for level = 0 to Array.length t.levels - 2 do
      let sib = sibling t.levels.(level) !i in
      charge_node t;
      if !i land 1 = 0 then
        Sha256.digest_pair_into t.walk sib ~dst:t.walk ~dst_off:0
      else Sha256.digest_pair_into sib t.walk ~dst:t.walk ~dst_off:0;
      i := !i / 2
    done;
    if Bytes.equal t.walk t.levels.(Array.length t.levels - 1).(0) then Ok ()
    else Error (Printf.sprintf "BMT: integrity violation detected on frame 0x%x" pfn)
  end

(* Inline pipeline check of a fetched page: hash what the bus actually
   delivered and compare against the stored level-0 digest — O(1) hashes
   per fetch, the way real BMT engines check a fill. The interior nodes
   and root are the engine's own on-die state: software and physical
   channels can reach DRAM but never these arrays, so under collision
   resistance "recomputed leaf = stored leaf" is exactly as strong as
   rewalking to the root. Free of charge — the engine verifies in
   parallel with the fill, so the simulator books no cycles and the
   explicit verify paths keep their exact costs; each check counts one
   modelled hash in [fetch_hashes].

   [src] is the frame the bytes were read from, or -1 when [data] is not
   a frame's live bytes. Only a fill from the requested frame itself, with
   that frame still at its leaf's stamp, may skip the host hash: bytes
   from any other frame (an aliased decode) are always hashed, so they
   pass only if they hash to the requested frame's leaf. *)
let check_fill t pfn ~src ~data ~off ~len ~stores =
  let idx = index_of t pfn in
  if idx < 0 then not_covered pfn
  else begin
    t.fetch_hashes <- t.fetch_hashes + 1;
    if src = pfn && stamps_past t idx <= stores then Ok ()
    else begin
      digest_into t pfn data ~off ~len ~dst:t.walk ~dst_off:0;
      if Bytes.equal t.walk t.levels.(0).(idx) then Ok ()
      else
        Error
          (Printf.sprintf "BMT: fetched data for frame 0x%x does not match the tree" pfn)
    end
  end

let verify_fetched t pfn ~data =
  check_fill t pfn ~src:(-1) ~data ~off:0 ~len:(Bytes.length data) ~stores:0

let check_frame_fill t pfn ~src ~stores =
  check_fill t pfn ~src
    ~data:(Physmem.view t.machine.Machine.mem src ~off:0 ~len:Addr.page_size)
    ~off:(Physmem.base src) ~len:Addr.page_size ~stores

let verify_fill t pfn ~src = check_frame_fill t pfn ~src ~stores:0

(* A fill behind the CPU's own store, before the leaf catches up: the
   frame may be one change past its leaf, that store. Anything more (a
   flip on the fill, a tamper before the store) moves the stamp again and
   is hashed. *)
let verify_store_fill t pfn ~src = check_frame_fill t pfn ~src ~stores:1

let verify_all t =
  Array.fold_left
    (fun acc pfn -> Result.bind acc (fun () -> verify t pfn))
    (Ok ()) t.frames

(* Collect the distinct covered indices of [pfns] into [t.upd_a], returning
   how many were written. The mark bytes dedup in O(1) per element; the
   caller clears them again before sorting. *)
let rec collect_dirty t pfns n =
  match pfns with
  | [] -> n
  | pfn :: rest ->
      let idx = index_of t pfn in
      let n =
        if idx >= 0 && Bytes.unsafe_get t.upd_mark idx = '\000' then begin
          Bytes.unsafe_set t.upd_mark idx '\001';
          t.upd_a.(n) <- idx;
          n + 1
        end
        else n
      in
      collect_dirty t rest n

(* In-place insertion sort of the first [n] slots. Batches are small and
   contiguous writes arrive already ascending, where this is both
   allocation-free and near-linear. *)
let sort_prefix a n =
  for i = 1 to n - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Batched update: refresh every dirty leaf, then rebuild each affected
   interior node exactly once per level — shared ancestors of a multi-frame
   write are hashed once, not once per frame. Charges are per hash actually
   recomputed, so a single-frame batch costs exactly what the sequential
   update always did.

   The pipeline is preallocated in the tree ([upd_a]/[upd_b]/[upd_mark]):
   dirty indices are deduped with mark bytes, sorted in place, and walked
   level by level through the two ping-pong arrays — sorted children yield
   non-decreasing parents, so per-level dedup is one comparison against
   the previous parent. Each leaf and each parent is one hash on the tree's
   hash unit, with no per-node allocation. *)
let update_many t pfns =
  let n = collect_dirty t pfns 0 in
  for i = 0 to n - 1 do
    Bytes.unsafe_set t.upd_mark t.upd_a.(i) '\000'
  done;
  if n > 0 then begin
    sort_prefix t.upd_a n;
    for i = 0 to n - 1 do
      charge_leaf t;
      rehash_leaf t t.upd_a.(i)
    done;
    let count = ref n in
    for level = 0 to Array.length t.levels - 2 do
      let src = if level land 1 = 0 then t.upd_a else t.upd_b in
      let dst = if level land 1 = 0 then t.upd_b else t.upd_a in
      let m = ref 0 in
      let last = ref (-1) in
      for j = 0 to !count - 1 do
        let parent = src.(j) lsr 1 in
        if parent <> !last then begin
          dst.(!m) <- parent;
          incr m;
          last := parent
        end
      done;
      let below = t.levels.(level) in
      let above = t.levels.(level + 1) in
      for j = 0 to !m - 1 do
        let parent = dst.(j) in
        charge_node t;
        Sha256.digest_pair_into below.(2 * parent) (sibling below (2 * parent))
          ~dst:above.(parent) ~dst_off:0
      done;
      count := !m
    done
  end

(* Single-frame update: the direct leaf-to-root walk, sharing nothing to
   amortize — bit-identical tree and charges to [update_many t [pfn]]
   without staging the batch pipeline. *)
let update t pfn =
  let idx = index_of t pfn in
  if idx >= 0 then begin
    charge_leaf t;
    rehash_leaf t idx;
    let i = ref idx in
    for level = 0 to Array.length t.levels - 2 do
      let parent = !i lsr 1 in
      let below = t.levels.(level) in
      charge_node t;
      Sha256.digest_pair_into below.(2 * parent) (sibling below (2 * parent))
        ~dst:t.levels.(level + 1).(parent) ~dst_off:0;
      i := parent
    done
  end

let hashes_performed t = t.hashes
let fetch_hashes_performed t = t.fetch_hashes
let page_hashes_computed t = t.page_hashes
