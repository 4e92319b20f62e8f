type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* splitmix64 finalizer: state += gamma; z = mix(state). *)
let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (next64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b

let split t = create (next64 t)

(* FNV-1a, 64-bit, folded to 62 bits so a caller can add a small offset
   without leaving the positive range. *)
let seed_of_label s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.logand !h 0x3fffffffffffffffL
