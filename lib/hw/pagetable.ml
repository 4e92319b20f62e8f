type proto = {
  frame : Addr.pfn;
  writable : bool;
  executable : bool;
  c_bit : bool;
}

let entries_per_page = Addr.page_size / 8

(* Small open-addressed int set (linear probing, power-of-two capacity,
   tombstones). The reverse index below churns one add + one remove per
   world switch (map/withdraw of the VMRUN page); a re-add lands back in
   its tombstoned slot, so the steady state allocates nothing — a stdlib
   [Hashtbl] would cons a bucket per add. *)
module Iset = struct
  type t = {
    mutable slots : int array;  (* -1 empty, -2 tombstone, else the member *)
    mutable live : int;
    mutable used : int;         (* live + tombstones *)
  }

  let create () = { slots = Array.make 8 (-1); live = 0; used = 0 }

  (* The probe loops are [while]s over locally unboxed refs, not local
     [let rec]s: a local recursive function closes over its environment
     and the native compiler heap-allocates that closure per call, which
     would put ~13 words on the minor heap for every map/unmap cycle. *)
  let index t v =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let i = ref (((v * 0x9E3779B1) lsr 8) land mask) in
    while
      let s = Array.unsafe_get slots !i in
      s <> v && s <> -1
    do
      i := (!i + 1) land mask
    done;
    !i

  let rec add t v =
    (* Keep load below 1/2 counting tombstones so probes stay short. *)
    if 2 * (t.used + 1) > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) (-1);
      t.used <- 0;
      t.live <- 0;
      Array.iter (fun s -> if s >= 0 then add t s) old;
      add t v
    end
    else begin
      let slots = t.slots in
      let mask = Array.length slots - 1 in
      let i = ref (((v * 0x9E3779B1) lsr 8) land mask) in
      let ins = ref (-1) in
      let running = ref true in
      while !running do
        let s = Array.unsafe_get slots !i in
        if s = v then running := false
        else if s = -1 then begin
          let slot = if !ins >= 0 then !ins else !i in
          Array.unsafe_set slots slot v;
          t.live <- t.live + 1;
          if slot = !i then t.used <- t.used + 1;
          running := false
        end
        else begin
          if s = -2 && !ins < 0 then ins := !i;
          i := (!i + 1) land mask
        end
      done
    end

  let remove t v =
    if t.live > 0 then begin
      let i = index t v in
      if Array.unsafe_get t.slots i = v then begin
        t.slots.(i) <- -2;
        t.live <- t.live - 1
      end
    end

  let iter f t =
    Array.iter (fun s -> if s >= 0 then f s) t.slots
end

type t = {
  table_id : int;
  mem : Physmem.t;
  alloc : unit -> Addr.pfn;
  groups : (int, Addr.pfn) Hashtbl.t; (* vfn/512 -> page-table-page *)
  mutable backing : Addr.pfn list;
  (* The values of [groups], ascending and duplicate-free, kept up to date
     as [ensure_group] allocates: Fidelius re-reads them on every mediated
     table update. *)
  (* One-entry front for [lookup_packed]: consecutive walks overwhelmingly
     hit the same page-table-page, and the hashed group lookup is the
     single most expensive step of the packed walk. [cg] is the cached
     group (-1 = empty), [cg_page] its backing page bytes. *)
  mutable cg : int;
  mutable cg_page : bytes;
  reverse : (Addr.pfn, Iset.t) Hashtbl.t;
  (* [reverse] is an acceleration index maintained by [hw_set]; the
     authoritative state is always the serialized bytes in [mem]. Emptied
     sets stay cached so the map/unmap cycle of a pinned frame never
     reallocates. *)
}

let create ~id ~mem ~alloc =
  { table_id = id;
    mem;
    alloc;
    groups = Hashtbl.create 64;
    backing = [];
    cg = -1;
    cg_page = Bytes.empty;
    reverse = Hashtbl.create 256 }

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
      t.cg <- -1;
      pfn

let backing_frame_of t vfn = ensure_group t (group_of vfn)

let backing_frames t = t.backing

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
  if g = t.cg then read_packed t.cg_page (slot_of vfn * 8)
  else
    match Hashtbl.find t.groups g with
    | exception Not_found -> packed_absent
    | pfn ->
        let page = Physmem.page t.mem pfn in
        t.cg <- g;
        t.cg_page <- page;
        read_packed page (slot_of vfn * 8)

let lookup t vfn =
  let p = lookup_packed t vfn in
  if p = packed_absent then None
  else
    Some
      { frame = packed_frame p;
        writable = packed_writable p;
        executable = packed_executable p;
        c_bit = packed_c_bit p }

let reverse_set t frame =
  match Hashtbl.find t.reverse frame with
  | s -> s
  | exception Not_found ->
      let s = Iset.create () in
      Hashtbl.replace t.reverse frame s;
      s

let reverse_remove t frame vfn =
  match Hashtbl.find t.reverse frame with
  | s -> Iset.remove s vfn
  | exception Not_found -> ()

let hw_set_packed t vfn p =
  let pt_page = Physmem.page t.mem (ensure_group t (group_of vfn)) in
  let off = slot_of vfn * 8 in
  let old = read_packed pt_page off in
  if old <> packed_absent then reverse_remove t (packed_frame old) vfn;
  write_packed pt_page off p;
  if p <> packed_absent then Iset.add (reverse_set t (packed_frame p)) vfn

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
      let page = Physmem.page t.mem pfn in
      let base = g * entries_per_page in
      let group_entries = ref [] in
      for slot = 0 to entries_per_page - 1 do
        match decode (Bytes.get_int64_be page (slot * 8)) with
        | Some p -> group_entries := (base + slot, p) :: !group_entries
        | None -> ()
      done;
      !group_entries @ acc)
    t.groups []

let frame_is_mapped t frame =
  match Hashtbl.find t.reverse frame with
  | s -> s.Iset.live > 0
  | exception Not_found -> false

let frame_mapped_writable t frame =
  match Hashtbl.find t.reverse frame with
  | exception Not_found -> false
  | s ->
      let found = ref false in
      Iset.iter
        (fun vfn ->
          if not !found then
            let p = lookup_packed t vfn in
            if p <> packed_absent && packed_frame p = frame && packed_writable p then
              found := true)
        s;
      !found

let frame_mapped t frame =
  match Hashtbl.find_opt t.reverse frame with
  | None -> []
  | Some set ->
      let acc = ref [] in
      Iset.iter
        (fun vfn ->
          match lookup t vfn with
          | Some p when p.frame = frame -> acc := (vfn, p) :: !acc
          | Some _ | None -> ())
        set;
      !acc

let entry_count t = List.length (mapped_frames t)
