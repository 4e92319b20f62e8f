(* SHA-256 over 32-bit words represented as OCaml ints masked to 32 bits.

   This is the hot hashing core behind the BMT integrity tree, launch
   and migration measurements, HMAC and the DH KDF, so it follows the
   T-table AES playbook: the message schedule and the pending block are
   preallocated in the context (nothing is allocated per block), and the
   [_into] entry points let steady-state callers hash without allocating.

   Like the real secure processor, block compression runs on a hash unit:
   the C stub ([sha256_stubs.c]) uses the host CPU's SHA extension when
   present and a portable scalar core otherwise. The OCaml compression
   below is the from-scratch executable specification: [digest_reference]
   hashes with it, and the test suite and the [cpu-features] self-test
   cross-check the active backend against it. *)

external stub_backend : unit -> int = "fidelius_sha256_backend" [@@noalloc]

external stub_compress : int array -> Bytes.t -> int -> int -> unit
  = "fidelius_sha256_compress_many"
  [@@noalloc]
(* [stub_compress h data off nblocks] folds [nblocks] consecutive 64-byte
   blocks starting at [off] into the eight chaining words of [h]. *)

let backend = match stub_backend () with 1 -> "sha-ni" | _ -> "c-scalar"

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
  0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
  0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
  0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
  0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
  0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2
|]

let mask = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

type ctx = {
  h : int array;            (* 8 chaining words *)
  w : int array;            (* 64-entry message schedule, reused per block *)
  buf : Bytes.t;            (* pending partial block; doubles as pad block *)
  mutable buf_len : int;
  mutable total : int;      (* total bytes fed *)
  reference : bool;         (* pinned to the OCaml compression *)
}

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
            0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let make reference =
  { h = Array.copy iv; w = Array.make 64 0; buf = Bytes.create 64;
    buf_len = 0; total = 0; reference }

let init () = make false

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* The OCaml compression. Sums are masked once per stored word, not once
   per addition — every intermediate is a sum of at most five 32-bit
   values, far below the 63-bit int range. *)
let ocaml_compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let o = off + (t lsl 2) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get block o) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (o + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (o + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (o + 3)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) in
    let w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
       land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ev = !e and av = !a in
    let t1 =
      !hh
      + (rotr ev 6 lxor rotr ev 11 lxor rotr ev 25)
      + ((ev land !f) lxor (lnot ev land !g))
      + Array.unsafe_get k t + Array.unsafe_get w t
    in
    let t2 =
      (rotr av 2 lxor rotr av 13 lxor rotr av 22)
      + ((av land !b) lxor (av land !c) lxor (!b land !c))
    in
    hh := !g; g := !f; f := ev; e := (!d + t1) land mask;
    d := !c; c := !b; b := av; a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let compress_blocks ctx data off nblocks =
  if nblocks > 0 then begin
    if ctx.reference then
      for i = 0 to nblocks - 1 do
        ocaml_compress ctx data (off + (i lsl 6))
      done
    else stub_compress ctx.h data off nblocks
  end

let feed_range ctx data off len =
  ctx.total <- ctx.total + len;
  let pos = ref off in
  let stop = off + len in
  (* Fill the pending partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = Int.min (64 - ctx.buf_len) len in
    Bytes.blit data off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress_blocks ctx ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let whole = (stop - !pos) asr 6 in
  if whole > 0 then begin
    compress_blocks ctx data !pos whole;
    pos := !pos + (whole lsl 6)
  end;
  if stop - !pos > 0 then begin
    Bytes.blit data !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let feed ctx data = feed_range ctx data 0 (Bytes.length data)

let feed_sub ctx data ~off ~len =
  (* By subtraction: [off + len] wraps for an [off] near [max_int]. *)
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Sha256.feed_sub: range out of bounds";
  feed_range ctx data off len

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

(* Eight big-endian bytes without a temporary buffer: in the common case
   (the value fits in the pending block) this is one 64-bit store. *)
let feed_u64_be ctx v =
  if ctx.buf_len <= 56 then begin
    ctx.total <- ctx.total + 8;
    Bytes.set_int64_be ctx.buf ctx.buf_len v;
    ctx.buf_len <- ctx.buf_len + 8;
    if ctx.buf_len = 64 then begin
      compress_blocks ctx ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end
  else begin
    ctx.total <- ctx.total + 8;
    for i = 7 downto 0 do
      Bytes.unsafe_set ctx.buf ctx.buf_len
        (Char.unsafe_chr
           (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff));
      ctx.buf_len <- ctx.buf_len + 1;
      if ctx.buf_len = 64 then begin
        compress_blocks ctx ctx.buf 0 1;
        ctx.buf_len <- 0
      end
    done
  end

let finalize_into ctx ~dst ~dst_off =
  if dst_off < 0 || dst_off > Bytes.length dst - 32 then
    invalid_arg "Sha256.finalize_into: dst range out of bounds";
  let bitlen = Int64.of_int (ctx.total * 8) in
  (* Pad in the pending block itself: 0x80, zeros, 64-bit bit length. *)
  Bytes.set ctx.buf ctx.buf_len '\x80';
  if ctx.buf_len >= 56 then begin
    Bytes.fill ctx.buf (ctx.buf_len + 1) (63 - ctx.buf_len) '\000';
    compress_blocks ctx ctx.buf 0 1;
    Bytes.fill ctx.buf 0 56 '\000'
  end
  else Bytes.fill ctx.buf (ctx.buf_len + 1) (55 - ctx.buf_len) '\000';
  Bytes.set_int64_be ctx.buf 56 bitlen;
  compress_blocks ctx ctx.buf 0 1;
  ctx.buf_len <- 0;
  let h = ctx.h in
  for i = 0 to 7 do
    let v = h.(i) in
    let o = dst_off + (4 * i) in
    Bytes.unsafe_set dst o (Char.unsafe_chr (v lsr 24));
    Bytes.unsafe_set dst (o + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set dst (o + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set dst (o + 3) (Char.unsafe_chr (v land 0xff))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx ~dst:out ~dst_off:0;
  out

(* Per-domain scratch context for the one-shot entry points, so they
   allocate nothing beyond what the caller asked for. Safe across the
   fleet's worker domains (each gets its own); never live across a call
   boundary, so concurrent one-shots cannot observe each other mid-hash. *)
let scratch : ctx Domain.DLS.key = Domain.DLS.new_key init

let digest_into data ~dst ~dst_off =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  feed ctx data;
  finalize_into ctx ~dst ~dst_off

let digest data =
  let out = Bytes.create 32 in
  digest_into data ~dst:out ~dst_off:0;
  out

let digest_string s = digest (Bytes.of_string s)

let digest_reference data =
  let ctx = make true in
  feed ctx data;
  finalize ctx

let digest_pair_into a b ~dst ~dst_off =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  feed ctx a;
  feed ctx b;
  finalize_into ctx ~dst ~dst_off

let digest_pair a b =
  let out = Bytes.create 32 in
  digest_pair_into a b ~dst:out ~dst_off:0;
  out

let digest_build f =
  let ctx = Domain.DLS.get scratch in
  reset ctx;
  f ctx;
  let out = Bytes.create 32 in
  finalize_into ctx ~dst:out ~dst_off:0;
  out

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    b;
  Buffer.contents buf
