module Hw = Fidelius_hw

let c_pit = Hw.Cost.intern "pit"

type owner =
  | Nobody
  | Xen
  | Fidelius
  | Dom of int

type usage =
  | Free
  | Xen_text
  | Xen_data
  | Xen_pt
  | Guest_page
  | Guest_npt
  | Grant_table
  | Fidelius_text
  | Fidelius_data
  | Shared_io

type info = {
  owner : owner;
  usage : usage;
  asid : int;
  valid : bool;
}

let free_info = { owner = Nobody; usage = Free; asid = 0; valid = false }

let owner_to_string = function
  | Nobody -> "nobody"
  | Xen -> "xen"
  | Fidelius -> "fidelius"
  | Dom d -> Printf.sprintf "dom%d" d

let usage_to_string = function
  | Free -> "free"
  | Xen_text -> "xen-text"
  | Xen_data -> "xen-data"
  | Xen_pt -> "xen-pt"
  | Guest_page -> "guest-page"
  | Guest_npt -> "guest-npt"
  | Grant_table -> "grant-table"
  | Fidelius_text -> "fidelius-text"
  | Fidelius_data -> "fidelius-data"
  | Shared_io -> "shared-io"

(* 32-bit leaf entry: [31] valid, [30..24] usage, [23..12] asid,
   [11..0] owner (0 nobody, 1 xen, 2 fidelius, 3+domid). *)
let usage_code = function
  | Free -> 0 | Xen_text -> 1 | Xen_data -> 2 | Xen_pt -> 3 | Guest_page -> 4
  | Guest_npt -> 5 | Grant_table -> 6 | Fidelius_text -> 7 | Fidelius_data -> 8
  | Shared_io -> 9

let usage_of_code = function
  | 0 -> Free | 1 -> Xen_text | 2 -> Xen_data | 3 -> Xen_pt | 4 -> Guest_page
  | 5 -> Guest_npt | 6 -> Grant_table | 7 -> Fidelius_text | 8 -> Fidelius_data
  | 9 -> Shared_io
  | n -> invalid_arg (Printf.sprintf "Pit: bad usage code %d" n)

let owner_code = function Nobody -> 0 | Xen -> 1 | Fidelius -> 2 | Dom d -> 3 + d

let owner_of_code = function
  | 0 -> Nobody
  | 1 -> Xen
  | 2 -> Fidelius
  | n -> Dom (n - 3)

let encode i =
  let v =
    (if i.valid then 1 lsl 31 else 0)
    lor (usage_code i.usage lsl 24)
    lor ((i.asid land 0xfff) lsl 12)
    lor (owner_code i.owner land 0xfff)
  in
  Int32.of_int v

let decode v =
  { valid = v land (1 lsl 31) <> 0;
    usage = usage_of_code ((v lsr 24) land 0x7f);
    asid = (v lsr 12) land 0xfff;
    owner = owner_of_code (v land 0xfff) }

let entries_per_page = Hw.Addr.page_size / 4
let slots_per_page = Hw.Addr.page_size / 4 (* level pages hold 1024 32-bit slots *)

type t = {
  machine : Hw.Machine.t;
  root : Hw.Addr.pfn;
  mutable allocated : Hw.Addr.pfn list;
  mutable nr_allocated : int;
  mutable vetted : int;
  mutable walks : int;  (* radix walks performed, not just charged *)
}

let create machine =
  let root = Hw.Machine.alloc_frame machine in
  { machine; root; allocated = [ root ]; nr_allocated = 1; vetted = 0; walks = 0 }

(* The 32-bit slot at byte [off] of PIT page [pfn]. Inlined, so a
   caller's [Int32.of_int] reaches the store unboxed. *)
let[@inline] get32 t pfn off =
  Int32.to_int
    (Bytes.get_int32_be
       (Hw.Physmem.view t.machine.Hw.Machine.mem pfn ~off ~len:4)
       (Hw.Physmem.base pfn + off))

let[@inline] set32 t pfn off v =
  Bytes.set_int32_be
    (Hw.Physmem.page_for_write t.machine.Hw.Machine.mem pfn ~off ~len:4)
    (Hw.Physmem.base pfn + off) v

(* Index split: leaf slot = pfn mod 1024, L2 slot = (pfn / 1024) mod 1024,
   root slot = pfn / 1024^2. Level slots hold the child page's PFN (0 =
   absent; frame 0 is reserved so 0 is unambiguous), which is also what
   [child] and [walk] return for a missing page — no option is built on
   the per-update policy walks. *)
let child t level_pfn slot ~alloc =
  let v = get32 t level_pfn (slot * 4) in
  if v <> 0 || not alloc then v
  else begin
    let fresh = Hw.Machine.alloc_frame t.machine in
    t.allocated <- fresh :: t.allocated;
    t.nr_allocated <- t.nr_allocated + 1;
    set32 t level_pfn (slot * 4) (Int32.of_int fresh);
    fresh
  end

(* The leaf page holding [pfn]'s entry (0 = absent); charges one walk. *)
let walk t pfn ~alloc =
  if pfn < 0 then invalid_arg "Pit: negative pfn";
  let l2_slot = pfn / entries_per_page mod slots_per_page in
  let root_slot = pfn / (entries_per_page * slots_per_page) in
  if root_slot >= slots_per_page then invalid_arg "Pit: pfn out of radix range";
  Hw.Cost.charge_id t.machine.Hw.Machine.ledger c_pit
    t.machine.Hw.Machine.costs.Hw.Cost.pit_lookup;
  t.walks <- t.walks + 1;
  let l2 = child t t.root root_slot ~alloc in
  if l2 = 0 then 0 else child t l2 l2_slot ~alloc

let entry_off pfn = pfn mod entries_per_page * 4

let set t pfn info =
  let leaf = walk t pfn ~alloc:true in
  assert (leaf <> 0);
  set32 t leaf (entry_off pfn) (encode info)

(* [set] behind a check of the entry it replaces, read in the same walk. A
   refused entry is never absent, so a refusal allocates no tree page. *)
let retype t pfn ~allow info =
  let leaf = walk t pfn ~alloc:true in
  let v = get32 t leaf (entry_off pfn) land 0xffffffff in
  let old = if v = 0 then free_info else decode v in
  if allow old then begin
    set32 t leaf (entry_off pfn) (encode info);
    Ok ()
  end
  else Error old

(* The raw leaf entry; a never-recorded frame reads as 0 = [encode free_info]. *)
let raw t pfn =
  let leaf = walk t pfn ~alloc:false in
  if leaf = 0 then 0
  else get32 t leaf (entry_off pfn) land 0xffffffff

let get t pfn =
  let v = raw t pfn in
  if v = 0 then free_info else decode v

let usage_of t pfn = usage_of_code ((raw t pfn lsr 24) land 0x7f)

let id t = t.root
let tree_frames t = t.allocated
let nr_tree_frames t = t.nr_allocated
let vetted t = t.vetted
let set_vetted t n = t.vetted <- n
let walks t = t.walks

let charge_walks t n =
  Hw.Cost.charge_id t.machine.Hw.Machine.ledger c_pit
    (n * t.machine.Hw.Machine.costs.Hw.Cost.pit_lookup)

let count_usage t usage =
  let nr = Hw.Physmem.nr_frames t.machine.Hw.Machine.mem in
  let count = ref 0 in
  for pfn = 1 to nr - 1 do
    if (get t pfn).usage = usage then incr count
  done;
  !count
