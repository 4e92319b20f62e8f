(* In-memory span recorder for the traced run.

   Spans go around the benchmark's own calls into the layers: each has a
   name, a host-time start and end, a parent (the span open when it
   started) and the id of the op it belongs to. Recording is off unless
   [start] was called, and then costs a few array stores per span; the
   spans stay in preallocated arrays until the run ends, when [analyse]
   folds them into per-layer self times and [export] writes them once as
   Chrome "X" events. *)

module Json = Fidelius_obs.Json

let names : (string, int) Hashtbl.t = Hashtbl.create 32
let labels = ref [||]

(* Interned span name, resolved once at module initialisation by each
   call site so recording a span never hashes a string. *)
let name s =
  match Hashtbl.find_opt names s with
  | Some id -> id
  | None ->
      let id = Hashtbl.length names in
      Hashtbl.add names s id;
      labels := Array.append !labels [| s |];
      id

let label id = !labels.(id)

(* A span name's layer is everything before its last dot:
   "xen.blkif.read_sectors" belongs to "xen.blkif". *)
let layer_of s = match String.rindex_opt s '.' with Some i -> String.sub s 0 i | None -> s

(* Op roots are named "op.<workload>"; their self time is the part of an
   op no layer span explains. *)
let is_op_root s = String.starts_with ~prefix:"op." s

let capacity = 1 lsl 19

type store = {
  sname : int array;
  start : int array;
  stop : int array;
  parent : int array;
  op : int array;
  mutable n : int;
  stack : int array;
  mutable depth : int;
  mutable op_id : int;
}

let store : store option ref = ref None

let start () =
  store :=
    Some
      { sname = Array.make capacity 0;
        start = Array.make capacity 0;
        stop = Array.make capacity 0;
        parent = Array.make capacity (-1);
        op = Array.make capacity 0;
        n = 0;
        stack = Array.make 64 (-1);
        depth = 0;
        op_id = 0 }

let enabled () = Option.is_some !store

(* True once the arrays are full: the traced loop stops there, so every
   recorded op is complete. Leaves headroom for one op's spans. *)
let full () = match !store with Some s -> s.n > capacity - 4096 | None -> false

let enter id =
  match !store with
  | None -> ()
  | Some s ->
      if s.n < capacity then begin
        let i = s.n in
        s.n <- i + 1;
        s.sname.(i) <- id;
        s.parent.(i) <- (if s.depth = 0 then -1 else s.stack.(s.depth - 1));
        s.op.(i) <- s.op_id;
        s.stop.(i) <- -1;
        s.start.(i) <- Util.now_ns ();
        s.stack.(s.depth) <- i
      end
      else s.stack.(s.depth) <- -1;
      s.depth <- s.depth + 1

let leave () =
  match !store with
  | None -> ()
  | Some s ->
      if s.depth > 0 then begin
        let now = Util.now_ns () in
        s.depth <- s.depth - 1;
        let i = s.stack.(s.depth) in
        if i >= 0 then s.stop.(i) <- now
      end

let begin_op ~op id =
  (match !store with Some s -> s.op_id <- op | None -> ());
  enter id

(* Close whatever an op that raised left open. *)
let unwind () =
  match !store with
  | None -> ()
  | Some s ->
      while s.depth > 0 do
        leave ()
      done

(* --- analysis ------------------------------------------------------------- *)

type report = {
  ops : int;  (** op roots recorded *)
  op_ns : int;  (** summed duration of the op roots *)
  residual_ns : int;  (** summed self time of the op roots *)
  self_ns : (string * int) list;  (** summed self time per layer, op roots excluded *)
  total_ns : (string * int) list;  (** summed duration per span name *)
  count : (string * int) list;  (** spans recorded per span name *)
  durations : (string * float array) list;  (** sorted durations (ns) per span name *)
}

let add_to tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let analyse () =
  match !store with
  | None -> { ops = 0; op_ns = 0; residual_ns = 0; self_ns = []; total_ns = []; count = []; durations = [] }
  | Some s ->
      let n = s.n in
      let dur i = if s.stop.(i) < 0 then 0 else s.stop.(i) - s.start.(i) in
      let child = Array.make n 0 in
      for i = 0 to n - 1 do
        let p = s.parent.(i) in
        if p >= 0 then child.(p) <- child.(p) + dur i
      done;
      let self_ns = Hashtbl.create 16 and total_ns = Hashtbl.create 16 and count = Hashtbl.create 16 in
      let per_name = Hashtbl.create 16 in
      let ops = ref 0 and op_ns = ref 0 and residual = ref 0 in
      for i = 0 to n - 1 do
        let nm = label s.sname.(i) in
        let d = dur i in
        if is_op_root nm && s.parent.(i) < 0 then begin
          incr ops;
          op_ns := !op_ns + d;
          residual := !residual + (d - child.(i))
        end
        else add_to self_ns (layer_of nm) (d - child.(i));
        add_to total_ns nm d;
        add_to count nm 1;
        let samples =
          match Hashtbl.find_opt per_name nm with
          | Some x -> x
          | None ->
              let x = Util.samples () in
              Hashtbl.add per_name nm x;
              x
        in
        Util.add samples (float_of_int d)
      done;
      let listing tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
      { ops = !ops;
        op_ns = !op_ns;
        residual_ns = !residual;
        self_ns = listing self_ns;
        total_ns = listing total_ns;
        count = listing count;
        durations =
          Hashtbl.fold (fun k v acc -> (k, Util.sorted v) :: acc) per_name [] |> List.sort compare }

(* --- export ----------------------------------------------------------------- *)

(* Writes the spans of the first [ops] ops recorded as a Chrome trace of complete
   ("X") events through Obs.Json, so the file opens in the same viewer as
   the simulator's own instant-event traces, then parses it back to prove
   it is well formed. Timestamps are host microseconds from the first
   span. *)
let export ~path ~ops ~process ~other =
  match !store with
  | None -> ()
  | Some s ->
      let t0 = if s.n > 0 then s.start.(0) else 0 in
      let last_op = (if s.n > 0 then s.op.(0) else 0) + ops in
      let us ns = Json.Float (float_of_int ns /. 1000.0) in
      let events = ref [] in
      for i = s.n - 1 downto 0 do
        if s.op.(i) < last_op && s.stop.(i) >= 0 then begin
          let nm = label s.sname.(i) in
          let parent = if s.parent.(i) < 0 then "" else label s.sname.(s.parent.(i)) in
          events :=
            Json.Obj
              [ ("name", Json.Str nm);
                ("cat", Json.Str (layer_of nm));
                ("ph", Json.Str "X");
                ("ts", us (s.start.(i) - t0));
                ("dur", us (s.stop.(i) - s.start.(i)));
                ("pid", Json.Int 1);
                ("tid", Json.Int 1);
                ("args", Json.Obj [ ("op", Json.Int s.op.(i)); ("span", Json.Int i); ("parent", Json.Str parent) ]) ]
            :: !events
        end
      done;
      let doc =
        Json.Obj
          [ ("traceEvents", Json.Arr (Fidelius_fleet.Merge.process_meta ~pid:1 process :: !events));
            ("displayTimeUnit", Json.Str "ns");
            ("otherData", other) ]
      in
      let text = Json.to_string doc in
      ignore (Json.parse text);
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
