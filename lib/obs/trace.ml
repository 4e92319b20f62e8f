type event =
  | Vmrun of { domid : int }
  | Vmexit of { domid : int; reason : string }
  | Npf of { domid : int; gfn : int }
  | Hypercall of string
  | Gate of int
  | Shadow_capture of string
  | Shadow_verify of { ok : bool }
  | Fw_cmd of string
  | Dram of { blocks : int; encrypted : bool }
  | Walk of { space : int; vfn : int }
  | Tlb_flush of { full : bool }
  | Pte_write of { vfn : int }
  | Fault of { site : string; hit : int }
  | Mark of string

type entry = {
  seq : int;
  ts : int;
  scope : string;
  event : event;
}

let default_capacity = 65536

(* A ring is an un-installed recording: [record_into] swaps it into the
   domain's DLS slot for the duration of one run, so reuse means resetting
   counters — the entry array, allocated on the first emit, survives
   across runs and the steady-state fleet loop stops reallocating 64k-slot
   arrays per VM. *)
type ring = {
  mutable on : bool;
  mutable buf : entry array;
  capacity : int;
  mutable next : int;  (* slot the next entry lands in *)
  mutable total : int;  (* entries emitted since the last reset *)
  mutable clock : unit -> int;
  mutable scopes : string list;
}

let dummy = { seq = -1; ts = 0; scope = ""; event = Mark "" }

let ring ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity must be positive";
  { on = false; buf = [||]; capacity; next = 0; total = 0; clock = (fun () -> 0); scopes = [] }

(* One recording per domain: the slot holds the ring [record_into] has
   installed, or an idle ring that records nothing. Every fleet shard (and
   the main domain) owns its own, so concurrent shards record without a
   lock and without perturbing each other. *)
let key = Domain.DLS.new_key (fun () -> ring ())

let st () = Domain.DLS.get key

let enabled () = (st ()).on

let set_clock f = (st ()).clock <- f

let push_scope s =
  let st = st () in
  st.scopes <- s :: st.scopes

let pop_scope () =
  let st = st () in
  match st.scopes with [] -> () | _ :: rest -> st.scopes <- rest

let emit event =
  let st = st () in
  if st.on then begin
    if Array.length st.buf = 0 then st.buf <- Array.make st.capacity dummy;
    let scope = match st.scopes with [] -> "" | s :: _ -> s in
    st.buf.(st.next) <- { seq = st.total; ts = st.clock (); scope; event };
    st.next <- (st.next + 1) mod st.capacity;
    st.total <- st.total + 1
  end

(* --- rings ---------------------------------------------------------------- *)

let ring_reset r =
  r.on <- false;
  r.next <- 0;
  r.total <- 0;
  r.scopes <- [];
  (* The clock is job state, not arena state: a stale neighbour's clock
     must never stamp the first events of the next job. *)
  r.clock <- (fun () -> 0)

let record_into r ?clock f =
  ring_reset r;
  (match clock with Some c -> r.clock <- c | None -> ());
  r.on <- true;
  let saved = Domain.DLS.get key in
  Domain.DLS.set key r;
  Fun.protect
    ~finally:(fun () ->
      r.on <- false;
      Domain.DLS.set key saved)
    f

let ring_length r = Int.min r.total r.capacity

let ring_emitted r = r.total

let ring_dropped r = Int.max 0 (r.total - r.capacity)

let ring_iter r g =
  (* Oldest entry sits at [next] once the ring has wrapped: the slots from
     [start] to the end, then the wrapped ones from 0. *)
  let start = if r.total > r.capacity then r.next else 0 in
  let stop = start + ring_length r in
  for i = start to Int.min stop r.capacity - 1 do
    g r.buf.(i)
  done;
  for i = 0 to stop - r.capacity - 1 do
    g r.buf.(i)
  done

let ring_entries r =
  let acc = ref [] in
  ring_iter r (fun e -> acc := e :: !acc);
  List.rev !acc

let capture ?capacity ?clock f =
  let r = ring ?capacity () in
  let result = record_into r ?clock f in
  (result, ring_entries r)

(* --- export ------------------------------------------------------------ *)

let event_name = function
  | Vmrun _ -> "vmrun"
  | Vmexit _ -> "vmexit"
  | Npf _ -> "npf"
  | Hypercall _ -> "hypercall"
  | Gate _ -> "gate"
  | Shadow_capture _ -> "shadow-capture"
  | Shadow_verify _ -> "shadow-verify"
  | Fw_cmd _ -> "fw-cmd"
  | Dram _ -> "dram"
  | Walk _ -> "walk"
  | Tlb_flush _ -> "tlb-flush"
  | Pte_write _ -> "pte-write"
  | Fault _ -> "fault"
  | Mark _ -> "mark"

let event_args = function
  | Vmrun { domid } -> [ ("domid", Json.Int domid) ]
  | Vmexit { domid; reason } -> [ ("domid", Json.Int domid); ("reason", Json.Str reason) ]
  | Npf { domid; gfn } -> [ ("domid", Json.Int domid); ("gfn", Json.Int gfn) ]
  | Hypercall name -> [ ("call", Json.Str name) ]
  | Gate n -> [ ("type", Json.Int n) ]
  | Shadow_capture reason -> [ ("reason", Json.Str reason) ]
  | Shadow_verify { ok } -> [ ("ok", Json.Bool ok) ]
  | Fw_cmd name -> [ ("cmd", Json.Str name) ]
  | Dram { blocks; encrypted } ->
      [ ("blocks", Json.Int blocks); ("encrypted", Json.Bool encrypted) ]
  | Walk { space; vfn } -> [ ("space", Json.Int space); ("vfn", Json.Int vfn) ]
  | Tlb_flush { full } -> [ ("full", Json.Bool full) ]
  | Pte_write { vfn } -> [ ("vfn", Json.Int vfn) ]
  | Fault { site; hit } -> [ ("site", Json.Str site); ("hit", Json.Int hit) ]
  | Mark label -> [ ("label", Json.Str label) ]

let entry_json e =
  Json.Obj
    [ ("seq", Json.Int e.seq);
      ("ts", Json.Int e.ts);
      ("scope", Json.Str e.scope);
      ("name", Json.Str (event_name e.event));
      ("args", Json.Obj (event_args e.event)) ]

let to_jsonl r =
  let buf = Buffer.create 4096 in
  ring_iter r (fun e ->
      Json.to_buffer buf (entry_json e);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let chrome_event ?(pid = 1) e =
  Json.Obj
    [ ("name", Json.Str (event_name e.event));
      ("cat", Json.Str (if e.scope = "" then "platform" else e.scope));
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("ts", Json.Int e.ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int 1);
      ("args", Json.Obj (("seq", Json.Int e.seq) :: event_args e.event)) ]

let to_chrome ?(attribution = []) ?total_cycles r =
  let events = List.map chrome_event (ring_entries r) in
  let other =
    [ ("emitted", Json.Int (ring_emitted r)); ("dropped", Json.Int (ring_dropped r)) ]
    @ (match total_cycles with Some t -> [ ("total_cycles", Json.Int t) ] | None -> [])
    @
    match attribution with
    | [] -> []
    | att -> [ ("attribution", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) att)) ]
  in
  Json.Obj
    [ ("traceEvents", Json.Arr events);
      ("displayTimeUnit", Json.Str "ns");
      ("otherData", Json.Obj other) ]
