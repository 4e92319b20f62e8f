type proto = {
  frame : Addr.pfn;
  writable : bool;
  executable : bool;
  c_bit : bool;
}

let entries_per_page = Addr.page_size / 8

(* The reverse index: one open-addressed table of (frame, vfn) pairs per
   page table, two ints per slot, linear probing from a hash of the frame
   alone. Every pair of a frame therefore sits in the run of occupied
   slots that starts at the frame's home slot, and a frame query scans
   that run up to the first empty slot. Removal shifts the rest of the run
   back over the hole instead of leaving a tombstone, so churn never fills
   the table: it grows (doubling, load below 1/2) only when the live pairs
   outgrow it, and storing or clearing a pair allocates nothing. The probe
   loops are [while]s over local refs, which the native compiler keeps
   unboxed; a local [let rec] would allocate its closure per call. *)
module Rindex = struct
  type t = {
    mutable slots : int array; (* 2i: frame, or -1 empty; 2i+1: vfn *)
    mutable live : int;
  }

  let empty = -1
  let create () = { slots = Array.make 32 empty; live = 0 }
  let mask t = (Array.length t.slots / 2) - 1
  let home t frame = ((frame * 0x9E3779B1) lsr 8) land mask t
  let vfn_at t i = Array.unsafe_get t.slots ((2 * i) + 1)

  (* The first slot from [i] on, within the run [i] is in, that holds a
     pair of [frame]; -1 when the run ends first. *)
  let seek t frame i =
    let slots = t.slots and mask = mask t in
    let i = ref i and found = ref (-1) in
    while !found < 0 && Array.unsafe_get slots (2 * !i) <> empty do
      if Array.unsafe_get slots (2 * !i) = frame then found := !i
      else i := (!i + 1) land mask
    done;
    !found

  let first t frame = seek t frame (home t frame)
  let after t frame i = seek t frame ((i + 1) land mask t)

  let find t frame vfn =
    let i = ref (first t frame) in
    while !i >= 0 && vfn_at t !i <> vfn do
      i := after t frame !i
    done;
    !i

  (* Store a pair known to be absent, in a table with room for it. *)
  let place t frame vfn =
    let slots = t.slots and mask = mask t in
    let i = ref (home t frame) in
    while Array.unsafe_get slots (2 * !i) <> empty do
      i := (!i + 1) land mask
    done;
    Array.unsafe_set slots (2 * !i) frame;
    Array.unsafe_set slots ((2 * !i) + 1) vfn;
    t.live <- t.live + 1

  (* Rehash into [nslots] slots. *)
  let resize t nslots =
    let old = t.slots in
    t.slots <- Array.make (2 * nslots) empty;
    t.live <- 0;
    for i = 0 to (Array.length old / 2) - 1 do
      let f = Array.unsafe_get old (2 * i) in
      if f <> empty then place t f (Array.unsafe_get old ((2 * i) + 1))
    done

  (* Grow once, to the size [n] more pairs would double it to. *)
  let reserve t n =
    let nslots = ref (mask t + 1) in
    while 2 * (t.live + n) > !nslots do
      nslots := 2 * !nslots
    done;
    if !nslots > mask t + 1 then resize t !nslots

  let add t frame vfn =
    if find t frame vfn < 0 then begin
      if 2 * (t.live + 1) > mask t + 1 then resize t (2 * (mask t + 1));
      place t frame vfn
    end

  (* Backward-shift deletion: walk the run after the hole and move back
     each pair whose home slot does not lie between the hole and it. *)
  let remove t frame vfn =
    let i = find t frame vfn in
    if i >= 0 then begin
      let slots = t.slots and mask = mask t in
      let hole = ref i and j = ref ((i + 1) land mask) in
      while Array.unsafe_get slots (2 * !j) <> empty do
        let f = Array.unsafe_get slots (2 * !j) in
        if (!j - home t f) land mask >= (!j - !hole) land mask then begin
          Array.unsafe_set slots (2 * !hole) f;
          Array.unsafe_set slots ((2 * !hole) + 1) (Array.unsafe_get slots ((2 * !j) + 1));
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      Array.unsafe_set slots (2 * !hole) empty;
      t.live <- t.live - 1
    end
end

type t = {
  table_id : int;
  mem : Physmem.t;
  alloc : unit -> Addr.pfn;
  groups : (int, Addr.pfn) Hashtbl.t; (* vfn/512 -> page-table-page *)
  mutable backing : Addr.pfn list;
  (* The values of [groups], ascending and duplicate-free, kept up to date
     as [ensure_group] allocates, and their number. *)
  mutable nr_backing : int;
  mutable vetted : int;
  mutable vetted_by : int;
  (* The owner's count and whose it is (see [vetted]); the table never
     moves them. *)
  (* One-entry front for [lookup_packed]: consecutive walks overwhelmingly
     hit the same page-table-page, and the hashed group lookup is the
     single most expensive step of the packed walk. [cg] is the cached
     group (-1 = empty), [cg_page] the read view holding its backing page
     and [cg_base] where that page starts in it (stores take the stamping
     write path afresh each time). *)
  mutable cg : int;
  mutable cg_page : bytes;
  mutable cg_base : int;
  reverse : Rindex.t;
  (* [reverse] is an acceleration index maintained by [hw_set]; the
     authoritative state is always the serialized bytes in [mem]. *)
}

let create ~id ~mem ~alloc =
  { table_id = id;
    mem;
    alloc;
    groups = Hashtbl.create 64;
    backing = [];
    nr_backing = 0;
    vetted = 0;
    vetted_by = 0;
    cg = -1;
    cg_page = Bytes.empty;
    cg_base = 0;
    reverse = Rindex.create () }

(* Entry encoding: bit 63 present, 62 writable, 61 executable, 60 c-bit,
   low 40 bits the target frame. *)
let decode v =
  let open Int64 in
  let bit pos = not (equal (logand v (shift_left 1L pos)) 0L) in
  if not (bit 63) then None
  else
    Some
      { frame = to_int (logand v 0xFF_FFFF_FFFFL);
        writable = bit 62;
        executable = bit 61;
        c_bit = bit 60 }

let id t = t.table_id
let group_of vfn = vfn / entries_per_page
let slot_of vfn = vfn mod entries_per_page

let rec insert_sorted pfn = function
  | x :: rest when x < pfn -> x :: insert_sorted pfn rest
  | x :: _ as l when x = pfn -> l
  | l -> pfn :: l

let ensure_group t g =
  match Hashtbl.find t.groups g with
  | pfn -> pfn
  | exception Not_found ->
      let pfn = t.alloc () in
      Hashtbl.replace t.groups g pfn;
      t.backing <- insert_sorted pfn t.backing;
      t.nr_backing <- t.nr_backing + 1;
      t.cg <- -1;
      pfn

let backing_frame_of t vfn = ensure_group t (group_of vfn)

let backing_frames t = t.backing
let nr_backing_frames t = t.nr_backing
let vetted t ~by = if t.vetted_by = by then t.vetted else 0

let set_vetted t ~by n =
  t.vetted_by <- by;
  t.vetted <- n

(* ---- packed entries ---------------------------------------------------

   The allocation-free walk: an entry is returned as one tagged int
   ([-1] = not present, else frame lsl 3 | writable lsl 2 | executable
   lsl 1 | c_bit), read byte-by-byte from the backing page so no [int64]
   is ever boxed. The hot paths (MMU translate, exec checks, the type-3
   gate's PTE toggles) go through these; [lookup]/[hw_set] stay as the
   proto-typed wrappers. *)

let packed_absent = -1
let packed_make ~frame ~writable ~executable ~c_bit =
  (frame lsl 3)
  lor (if writable then 4 else 0)
  lor (if executable then 2 else 0)
  lor (if c_bit then 1 else 0)
let packed_frame p = p lsr 3
let packed_writable p = p land 4 <> 0
let packed_executable p = p land 2 <> 0
let packed_c_bit p = p land 1 <> 0

(* Big-endian entry bytes: byte 0 carries the four flag bits (63..60);
   bytes 3..7 carry the 40-bit frame. *)
let read_packed page off =
  let b0 = Char.code (Bytes.unsafe_get page off) in
  if b0 land 0x80 = 0 then packed_absent
  else begin
    let frame =
      (Char.code (Bytes.unsafe_get page (off + 3)) lsl 32)
      lor (Char.code (Bytes.unsafe_get page (off + 4)) lsl 24)
      lor (Char.code (Bytes.unsafe_get page (off + 5)) lsl 16)
      lor (Char.code (Bytes.unsafe_get page (off + 6)) lsl 8)
      lor Char.code (Bytes.unsafe_get page (off + 7))
    in
    (frame lsl 3) lor ((b0 lsr 4) land 0x7)
  end

let write_packed page off p =
  if p = packed_absent then Bytes.fill page off 8 '\000'
  else begin
    let frame = packed_frame p in
    Bytes.unsafe_set page off (Char.unsafe_chr (0x80 lor ((p land 0x7) lsl 4)));
    Bytes.unsafe_set page (off + 1) '\000';
    Bytes.unsafe_set page (off + 2) '\000';
    Bytes.unsafe_set page (off + 3) (Char.unsafe_chr ((frame lsr 32) land 0xff));
    Bytes.unsafe_set page (off + 4) (Char.unsafe_chr ((frame lsr 24) land 0xff));
    Bytes.unsafe_set page (off + 5) (Char.unsafe_chr ((frame lsr 16) land 0xff));
    Bytes.unsafe_set page (off + 6) (Char.unsafe_chr ((frame lsr 8) land 0xff));
    Bytes.unsafe_set page (off + 7) (Char.unsafe_chr (frame land 0xff))
  end

let lookup_packed t vfn =
  let g = group_of vfn in
  if g = t.cg then read_packed t.cg_page (t.cg_base + (slot_of vfn * 8))
  else
    match Hashtbl.find t.groups g with
    | exception Not_found -> packed_absent
    | pfn ->
        let page = Physmem.view t.mem pfn ~off:0 ~len:Addr.page_size in
        t.cg <- g;
        t.cg_page <- page;
        t.cg_base <- Physmem.base pfn;
        read_packed page (t.cg_base + (slot_of vfn * 8))

let lookup t vfn =
  let p = lookup_packed t vfn in
  if p = packed_absent then None
  else
    Some
      { frame = packed_frame p;
        writable = packed_writable p;
        executable = packed_executable p;
        c_bit = packed_c_bit p }

(* Store [vfn]'s packed entry [p] at [off] of [page], moving its pair in
   the reverse index. *)
let store t page off vfn p =
  let old = read_packed page off in
  if old <> packed_absent then Rindex.remove t.reverse (packed_frame old) vfn;
  write_packed page off p;
  if p <> packed_absent then Rindex.add t.reverse (packed_frame p) vfn

let hw_set_packed t vfn p =
  let pfn = ensure_group t (group_of vfn) and off = slot_of vfn * 8 in
  let pt_page = Physmem.page_for_write t.mem pfn ~off ~len:8 in
  store t pt_page (Physmem.base pfn + off) vfn p

(* [count] consecutive entries from [vfn] on, [entry v] for each [v], as
   [count] [hw_set_packed]s in vfn order would store them, but each
   page-table page is resolved once and its stamp moves once, and the
   reverse index grows once for the whole run. *)
let hw_set_run t vfn count entry =
  if count > 0 then begin
    Rindex.reserve t.reverse count;
    let v = ref vfn and stop = vfn + count in
    while !v < stop do
      let slot = slot_of !v in
      let n = Int.min (stop - !v) (entries_per_page - slot) in
      let pfn = ensure_group t (group_of !v) in
      let page = Physmem.page_for_write t.mem pfn ~off:(slot * 8) ~len:(n * 8) in
      let at = Physmem.base pfn + (slot * 8) in
      for k = 0 to n - 1 do
        store t page (at + (k * 8)) (!v + k) (entry (!v + k))
      done;
      v := !v + n
    done
  end

let hw_set t vfn proto =
  hw_set_packed t vfn
    (match proto with
    | None -> packed_absent
    | Some p ->
        packed_make ~frame:p.frame ~writable:p.writable ~executable:p.executable
          ~c_bit:p.c_bit)

let mapped_frames t =
  Hashtbl.fold
    (fun g pfn acc ->
      let page = Physmem.view t.mem pfn ~off:0 ~len:Addr.page_size in
      let at = Physmem.base pfn in
      let base = g * entries_per_page in
      let group_entries = ref [] in
      for slot = 0 to entries_per_page - 1 do
        match decode (Bytes.get_int64_be page (at + (slot * 8))) with
        | Some p -> group_entries := (base + slot, p) :: !group_entries
        | None -> ()
      done;
      !group_entries @ acc)
    t.groups []

let frame_is_mapped t frame = Rindex.first t.reverse frame >= 0

let frame_mapped_writable t frame =
  let r = t.reverse in
  let i = ref (Rindex.first r frame) and found = ref false in
  while (not !found) && !i >= 0 do
    let p = lookup_packed t (Rindex.vfn_at r !i) in
    if p <> packed_absent && packed_frame p = frame && packed_writable p then found := true
    else i := Rindex.after r frame !i
  done;
  !found

let frame_mapped t frame =
  let r = t.reverse in
  let i = ref (Rindex.first r frame) and acc = ref [] in
  while !i >= 0 do
    let vfn = Rindex.vfn_at r !i in
    (match lookup t vfn with
    | Some p when p.frame = frame -> acc := (vfn, p) :: !acc
    | Some _ | None -> ());
    i := Rindex.after r frame !i
  done;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let entry_count t = List.length (mapped_frames t)
