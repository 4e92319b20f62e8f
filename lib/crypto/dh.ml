type public = int64
type secret = int

let p = 2305843009213693951L (* 2^61 - 1 *)
let p_int = (1 lsl 61) - 1
let generator = 7

(* x mod p up to one more subtraction, for 0 <= x < 2^62: 2^61 = 1 (mod p),
   so the bits above 61 fold onto the low ones. The result is <= 2^61. *)
let fold x = (x land p_int) + (x lsr 61)

(* a * b mod p for a, b in [0, p), in native ints. With a = a1 2^31 + a0
   and b = b1 2^31 + b0 (a1, b1 < 2^30; a0, b0 < 2^31),
     a b = a1 b1 2^62 + (a1 b0 + a0 b1) 2^31 + a0 b0,
   and 2^62 = 2 (mod p). The middle sum m stays below 2^62; its shifted
   part folds as m 2^31 = (m lsr 30) 2^61 + (m land (2^30 - 1)) 2^31, so
   s stays below 2^62 too, the native int's limit. [fold s] is at most p,
   and [fold (a0 b0)] below p (a0 b0 is neither p nor 2p, p being a
   prime above 2^31), so one subtraction reduces their sum. *)
let mulmod a b =
  let a1 = a lsr 31 and a0 = a land 0x7FFF_FFFF in
  let b1 = b lsr 31 and b0 = b land 0x7FFF_FFFF in
  let m = (a1 * b0) + (a0 * b1) in
  let s = (2 * a1 * b1) + ((m land 0x3FFF_FFFF) lsl 31) + (m lsr 30) in
  let r = fold s + fold (a0 * b0) in
  if r >= p_int then r - p_int else r

(* base^expn mod p for base in [0, p) and expn >= 0, square-and-multiply
   over the exponent's bits, low bit first. *)
let powmod base expn =
  let base = ref base and expn = ref expn and acc = ref 1 in
  while !expn > 0 do
    if !expn land 1 = 1 then acc := mulmod !acc !base;
    base := mulmod !base !base;
    expn := !expn lsr 1
  done;
  !acc

let generate rng =
  (* Secret exponent in [2, p - 2]. *)
  let raw = Int64.to_int (Int64.shift_right_logical (Rng.next64 rng) 3) in
  let secret = 2 + (raw mod (p_int - 3)) in
  (secret, Int64.of_int (powmod generator secret))

let in_group x = Int64.compare x 1L > 0 && Int64.compare x p < 0

let shared_secret mine theirs =
  if not (in_group theirs) then invalid_arg "Dh.shared_secret: public value out of group";
  let element = powmod (Int64.to_int theirs) mine in
  (* KDF over element(8, big-endian) || "fidelius-dh", fed in parts. *)
  Sha256.digest_build (fun ctx ->
      Sha256.feed_u64_be ctx (Int64.of_int element);
      Sha256.feed_string ctx "fidelius-dh")

let public_to_bytes pub =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 pub;
  b

let public_of_bytes b =
  if Bytes.length b <> 8 then invalid_arg "Dh.public_of_bytes: need 8 bytes";
  Bytes.get_int64_be b 0
