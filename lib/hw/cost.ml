module Trace = Fidelius_obs.Trace

type table = {
  dram_access : int;
  enc_extra : int;
  cache_hit : int;
  cacheline_write : int;
  tlb_flush_full : int;
  tlb_flush_entry : int;
  tlb_miss_walk : int;
  vmexit : int;
  vmrun : int;
  hypercall_base : int;
  pit_lookup : int;
  git_lookup : int;
  aesni_block : int;
  sev_engine_block : int;
  sw_aes_block : int;
  memcpy_block : int;
  io_sector : int;
  event_channel : int;
  firmware_cmd : int;
  firmware_page : int;
  gate1 : int;
  gate2 : int;
  gate3 : int;
  shadow_roundtrip : int;
}

(* Calibration notes. The Section 7.2 figures are anchors: each is one
   constant below, charged whole, so `bench micro` reads them back rather
   than deriving them.
   - Gates: [gate1] = 306, [gate2] = 16 and [gate3] = 339 are charged once
     per crossing (type 3 once per page mapped). The paper splits type 3
     into a 128-cycle TLB entry flush and a <2-cycle cacheline write; those
     two are [tlb_flush_entry] and [cacheline_write], which Tlb and Mmu
     charge under their own categories.
   - Shadow+check round trip of a void hypercall: [shadow_roundtrip] = 661,
     charged as two halves, one at the vmexit capture and one at the
     vmrun verify.
   - The 512 MB copy micro-benchmark: AES-NI adds ~11.5% over memcpy,
     SEV engine ~8.7%, software AES > 20x (paper Section 7.2). The rows
     are computed from [aesni_block], [sev_engine_block] and [sw_aes_block]
     over [memcpy_block]. *)
let default = {
  dram_access = 160;
  enc_extra = 40;
  cache_hit = 4;
  cacheline_write = 1;
  tlb_flush_full = 1200;
  tlb_flush_entry = 128;
  tlb_miss_walk = 80;
  vmexit = 1000;
  vmrun = 800;
  hypercall_base = 150;
  pit_lookup = 24;
  git_lookup = 18;
  aesni_block = 1115;
  sev_engine_block = 1087;
  sw_aes_block = 21000;
  memcpy_block = 1000;
  io_sector = 12000;
  event_channel = 400;
  firmware_cmd = 5000;
  firmware_page = 2500;
  gate1 = 306;
  gate2 = 16;
  gate3 = 339;
  shadow_roundtrip = 661;
}

(* ---- category interning ----------------------------------------------

   Category labels are resolved once to dense int ids, so the per-access
   [charge] is two array adds instead of string-hashed table lookups. The
   registry is global (labels mean the same thing in every ledger) and
   effectively frozen after module init: the mutex only matters for the
   rare dynamically-built label, and readers get the label array through
   an atomic so fleet worker domains always see a fully-published copy. *)

type id = int

let registry_lock = Mutex.create ()
let registry : (string, int) Hashtbl.t = Hashtbl.create 64
let labels : string array Atomic.t = Atomic.make [||]

let intern name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some id -> id
      | None ->
          let id = Hashtbl.length registry in
          Hashtbl.add registry name id;
          let old = Atomic.get labels in
          let arr =
            if id < Array.length old then old
            else begin
              let a = Array.make (max 16 (2 * (id + 1))) "" in
              Array.blit old 0 a 0 (Array.length old);
              a
            end
          in
          arr.(id) <- name;
          Atomic.set labels arr;
          id)

let id_label id = (Atomic.get labels).(id)

let nr_ids () = Mutex.protect registry_lock (fun () -> Hashtbl.length registry)

(* ---- ledger ----------------------------------------------------------

   Accumulators are flat arrays indexed by category id. [touched] keeps
   the exact reporting semantics of the old string-keyed tables: a charge
   of 0 cycles still makes the category (or the scope's category row)
   visible in listings. Scope frames are persistent per label — resolved
   once per [with_scope] entry, then the innermost frame is a cached
   pointer the hot [charge] adds through — and the stack itself is a
   preallocated array so entering a scope does not allocate. *)

type frame = {
  fr_label : string;
  mutable fr_total : int;
  mutable fr_counts : int array;
  mutable fr_touched : Bytes.t;
}

type ledger = {
  mutable cycles : int;
  mutable counts : int array;
  mutable touched : Bytes.t;
  mutable frames : (string, frame) Hashtbl.t;
  mutable stack : frame array;
  mutable depth : int;
  mutable top : frame;  (* valid iff depth > 0 *)
}

let root_scope = "(root)"

let new_frame label n =
  { fr_label = label;
    fr_total = 0;
    fr_counts = Array.make n 0;
    fr_touched = Bytes.make n '\000' }

let ledger () =
  let n = max 16 (nr_ids ()) in
  let dummy = new_frame "" 0 in
  { cycles = 0;
    counts = Array.make n 0;
    touched = Bytes.make n '\000';
    frames = Hashtbl.create 8;
    stack = Array.make 8 dummy;
    depth = 0;
    top = dummy }

let grow_counts counts id =
  let a = Array.make (max 16 (2 * (id + 1))) 0 in
  Array.blit counts 0 a 0 (Array.length counts);
  a

let grow_touched touched id =
  let b = Bytes.make (max 16 (2 * (id + 1))) '\000' in
  Bytes.blit touched 0 b 0 (Bytes.length touched);
  b

let negative_charge id n =
  invalid_arg (Printf.sprintf "Cost.charge: negative charge %d to %S" n (id_label id))

let charge_id l id n =
  if n < 0 then negative_charge id n;
  if id >= Array.length l.counts then begin
    l.counts <- grow_counts l.counts id;
    l.touched <- grow_touched l.touched id
  end;
  l.cycles <- l.cycles + n;
  Array.unsafe_set l.counts id (Array.unsafe_get l.counts id + n);
  Bytes.unsafe_set l.touched id '\001';
  if l.depth > 0 then begin
    let fr = l.top in
    fr.fr_total <- fr.fr_total + n;
    if id >= Array.length fr.fr_counts then begin
      fr.fr_counts <- grow_counts fr.fr_counts id;
      fr.fr_touched <- grow_touched fr.fr_touched id
    end;
    Array.unsafe_set fr.fr_counts id (Array.unsafe_get fr.fr_counts id + n);
    Bytes.unsafe_set fr.fr_touched id '\001'
  end

let charge l cat n =
  if n < 0 then
    invalid_arg (Printf.sprintf "Cost.charge: negative charge %d to %S" n cat);
  charge_id l (intern cat) n

let frame_of l scope =
  match Hashtbl.find l.frames scope with
  | fr -> fr
  | exception Not_found ->
      let fr = new_frame scope (Array.length l.counts) in
      Hashtbl.add l.frames scope fr;
      fr

let pop_scope l =
  (if l.depth > 0 then begin
     l.depth <- l.depth - 1;
     if l.depth > 0 then l.top <- Array.unsafe_get l.stack (l.depth - 1)
   end);
  if Trace.enabled () then Trace.pop_scope ()

(* Closure-free entry/exit pair for call sites on the world-switch fast
   path: [with_scope l s (fun () -> body)] allocates the closure per call,
   while [scope_enter l s; body; scope_exit l] allocates nothing once the
   scope's frame exists. Callers owe the same exception discipline
   [with_scope] provides. *)
let scope_enter l scope =
  if String.equal scope root_scope then
    invalid_arg "Cost.with_scope: (root) is reserved";
  let fr = frame_of l scope in
  if l.depth >= Array.length l.stack then begin
    let a = Array.make (2 * Array.length l.stack) fr in
    Array.blit l.stack 0 a 0 (Array.length l.stack);
    l.stack <- a
  end;
  Array.unsafe_set l.stack l.depth fr;
  l.depth <- l.depth + 1;
  l.top <- fr;
  if Trace.enabled () then Trace.push_scope scope

let scope_exit = pop_scope

let with_scope l scope f =
  scope_enter l scope;
  match f () with
  | v ->
      pop_scope l;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      pop_scope l;
      Printexc.raise_with_backtrace e bt

let total l = l.cycles

let category l cat =
  match Mutex.protect registry_lock (fun () -> Hashtbl.find_opt registry cat) with
  | None -> 0
  | Some id -> if id < Array.length l.counts then l.counts.(id) else 0

(* Descending by cycles; ties broken on the label so the order never
   depends on hash-table iteration. *)
let sort_counts counts =
  List.sort
    (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
    counts

(* Rebuild a (label, cycles) listing from a flat accumulator, visiting
   only the touched ids — exactly the rows the old string-keyed table
   held. Report-time only. *)
let rows counts touched =
  let acc = ref [] in
  for id = Array.length counts - 1 downto 0 do
    if id < Bytes.length touched && Bytes.get touched id = '\001' then
      acc := (id_label id, counts.(id)) :: !acc
  done;
  !acc

let categories l = sort_counts (rows l.counts l.touched)

let scoped_sum l = Hashtbl.fold (fun _ fr acc -> acc + fr.fr_total) l.frames 0

let scopes l =
  let named = Hashtbl.fold (fun k fr acc -> (k, fr.fr_total) :: acc) l.frames [] in
  let rest = l.cycles - scoped_sum l in
  let all = if rest > 0 || named = [] then (root_scope, rest) :: named else named in
  sort_counts all

let scope_total l scope =
  if scope = root_scope then l.cycles - scoped_sum l
  else match Hashtbl.find_opt l.frames scope with Some fr -> fr.fr_total | None -> 0

let scope_categories l scope =
  if scope = root_scope then begin
    (* Whatever of each category is not accounted to a named scope. *)
    let residue = Array.copy l.counts in
    Hashtbl.iter
      (fun _ fr ->
        Array.iteri
          (fun id v -> if id < Array.length residue then residue.(id) <- residue.(id) - v)
          fr.fr_counts)
      l.frames;
    let acc = ref [] in
    for id = Array.length residue - 1 downto 0 do
      if
        id < Bytes.length l.touched
        && Bytes.get l.touched id = '\001'
        && residue.(id) > 0
      then acc := (id_label id, residue.(id)) :: !acc
    done;
    sort_counts !acc
  end
  else
    match Hashtbl.find_opt l.frames scope with
    | None -> []
    | Some fr -> sort_counts (rows fr.fr_counts fr.fr_touched)

let reset l =
  l.cycles <- 0;
  Array.fill l.counts 0 (Array.length l.counts) 0;
  Bytes.fill l.touched 0 (Bytes.length l.touched) '\000';
  (* Frames still referenced by an active [with_scope] keep accumulating
     into orphaned storage, exactly as the old string-keyed tables did
     after a mid-scope reset. *)
  l.frames <- Hashtbl.create 8

let pp fmt l =
  Format.fprintf fmt "@[<v>total: %d cycles" l.cycles;
  List.iter (fun (k, v) -> Format.fprintf fmt "@,  %-24s %12d" k v) (categories l);
  Format.fprintf fmt "@]"
