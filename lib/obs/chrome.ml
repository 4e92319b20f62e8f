(* A growable byte cursor: [bytes.[0 .. pos - 1]] is what has been
   written. Every writer below reserves its room first and then stores
   without bounds checks; [reserve] is the only place the array grows. *)
type t = {
  mutable bytes : Bytes.t;
  mutable pos : int;
  mutable pid : int;
  mutable pid_lit : string;
      (* [,"pid":<pid>,"tid":1,"args":{"seq":], rendered when [pid] changes *)
  scratch : Buffer.t;  (* strings that need escaping, and whole [Json.t] values *)
}

let pid_literal pid = Printf.sprintf ",\"pid\":%d,\"tid\":1,\"args\":{\"seq\":" pid

let create () =
  { bytes = Bytes.create 65536; pos = 0; pid = 1; pid_lit = pid_literal 1;
    scratch = Buffer.create 256 }

let clear w = w.pos <- 0

let contents w = Bytes.sub_string w.bytes 0 w.pos

let output oc w = output oc w.bytes 0 w.pos

let reserve w n =
  if w.pos + n > Bytes.length w.bytes then begin
    let bytes = Bytes.create (max (w.pos + n) (2 * Bytes.length w.bytes)) in
    Bytes.blit w.bytes 0 bytes 0 w.pos;
    w.bytes <- bytes
  end

let add_string w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.bytes w.pos n;
  w.pos <- w.pos + n

let add_scratch w =
  let n = Buffer.length w.scratch in
  reserve w n;
  Buffer.blit w.scratch 0 w.bytes w.pos n;
  w.pos <- w.pos + n

let add_json w j =
  Buffer.clear w.scratch;
  Json.to_buffer w.scratch j;
  add_scratch w

(* A JSON string: one blit between quotes when nothing needs escaping,
   else [Json.add_str]'s escapes by way of the scratch buffer. *)
let add_str w s =
  if Json.plain s then begin
    let n = String.length s in
    reserve w (n + 2);
    let b = w.bytes and p = w.pos in
    Bytes.unsafe_set b p '"';
    Bytes.unsafe_blit_string s 0 b (p + 1) n;
    Bytes.unsafe_set b (p + n + 1) '"';
    w.pos <- p + n + 2
  end
  else begin
    Buffer.clear w.scratch;
    Json.add_str w.scratch s;
    add_scratch w
  end

(* Decimal digits of [m] <= 0, worked on the non-positive side so that
   [min_int] needs no special case. Top-level and closure-free, so
   printing an integer allocates nothing. [ndigits m (-10) 1] counts by
   multiplying, not dividing; no int has more than 19 digits, so [p]
   stops before it would overflow. *)
let rec ndigits m p k = if k = 19 || m > p then k else ndigits m (p * 10) (k + 1)

let rec put_digits b m last =
  Bytes.unsafe_set b last (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (m / 10) (last - 1)

let add_int w n =
  reserve w 20;
  let m =
    if n < 0 then begin
      Bytes.unsafe_set w.bytes w.pos '-';
      w.pos <- w.pos + 1;
      n
    end
    else -n
  in
  let len = ndigits m (-10) 1 in
  put_digits w.bytes m (w.pos + len - 1);
  w.pos <- w.pos + len

let int_arg w key v =
  add_string w key;
  add_int w v

let str_arg w key v =
  add_string w key;
  add_str w v

(* Everything up to the event's own arguments; [name] is the
   constructor's [{"name":...,"cat":] literal. *)
let head w ~pid name (e : Trace.entry) =
  if pid <> w.pid then begin
    w.pid <- pid;
    w.pid_lit <- pid_literal pid
  end;
  add_string w name;
  add_str w (if String.length e.scope = 0 then "platform" else e.scope);
  add_string w ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  add_int w e.ts;
  add_string w w.pid_lit;
  add_int w e.seq

let add_event w ~pid (e : Trace.entry) =
  (match e.event with
  | Vmrun { domid } ->
      head w ~pid "{\"name\":\"vmrun\",\"cat\":" e;
      int_arg w ",\"domid\":" domid
  | Vmexit { domid; reason } ->
      head w ~pid "{\"name\":\"vmexit\",\"cat\":" e;
      int_arg w ",\"domid\":" domid;
      str_arg w ",\"reason\":" reason
  | Npf { domid; gfn } ->
      head w ~pid "{\"name\":\"npf\",\"cat\":" e;
      int_arg w ",\"domid\":" domid;
      int_arg w ",\"gfn\":" gfn
  | Hypercall name ->
      head w ~pid "{\"name\":\"hypercall\",\"cat\":" e;
      str_arg w ",\"call\":" name
  | Gate n ->
      head w ~pid "{\"name\":\"gate\",\"cat\":" e;
      int_arg w ",\"type\":" n
  | Shadow_capture reason ->
      head w ~pid "{\"name\":\"shadow-capture\",\"cat\":" e;
      str_arg w ",\"reason\":" reason
  | Shadow_verify { ok } ->
      head w ~pid "{\"name\":\"shadow-verify\",\"cat\":" e;
      add_string w (if ok then ",\"ok\":true" else ",\"ok\":false")
  | Fw_cmd name ->
      head w ~pid "{\"name\":\"fw-cmd\",\"cat\":" e;
      str_arg w ",\"cmd\":" name
  | Dram { blocks; encrypted } ->
      head w ~pid "{\"name\":\"dram\",\"cat\":" e;
      int_arg w ",\"blocks\":" blocks;
      add_string w (if encrypted then ",\"encrypted\":true" else ",\"encrypted\":false")
  | Walk { space; vfn } ->
      head w ~pid "{\"name\":\"walk\",\"cat\":" e;
      int_arg w ",\"space\":" space;
      int_arg w ",\"vfn\":" vfn
  | Tlb_flush { full } ->
      head w ~pid "{\"name\":\"tlb-flush\",\"cat\":" e;
      add_string w (if full then ",\"full\":true" else ",\"full\":false")
  | Pte_write { vfn } ->
      head w ~pid "{\"name\":\"pte-write\",\"cat\":" e;
      int_arg w ",\"vfn\":" vfn
  | Fault { site; hit } ->
      head w ~pid "{\"name\":\"fault\",\"cat\":" e;
      str_arg w ",\"site\":" site;
      int_arg w ",\"hit\":" hit
  | Mark label ->
      head w ~pid "{\"name\":\"mark\",\"cat\":" e;
      str_arg w ",\"label\":" label);
  add_string w "}}"

let add_ring w ~pid ring =
  Trace.ring_iter ring (fun e ->
      add_string w ",";
      add_event w ~pid e)
