let block_size = 64

(* A prepared key is the two padded blocks HMAC actually feeds: ipad =
   K' xor 0x36.., opad = K' xor 0x5c.. — derived once instead of per MAC. *)
type key = { ipad : Bytes.t; opad : Bytes.t }

let key raw =
  let raw = if Bytes.length raw > block_size then Sha256.digest raw else raw in
  let ipad = Bytes.make block_size '\x36' in
  let opad = Bytes.make block_size '\x5c' in
  Bytes.iteri
    (fun i c ->
      Bytes.set ipad i (Char.chr (Char.code c lxor 0x36));
      Bytes.set opad i (Char.chr (Char.code c lxor 0x5c)))
    raw;
  { ipad; opad }

(* Per-domain scratch: a hash context plus buffers for the inner digest and
   the recomputed tag, so steady-state MACs allocate nothing. *)
type scratch_state = { ctx : Sha256.ctx; inner : Bytes.t; tag : Bytes.t }

let scratch : scratch_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { ctx = Sha256.init (); inner = Bytes.create 32; tag = Bytes.create 32 })

(* [fill_tag k f dst dst_off] computes HMAC(k, message fed by [f]) into
   [dst]. [f] receives the running inner hash context; it must only feed. *)
let fill_tag k f dst dst_off =
  let s = Domain.DLS.get scratch in
  Sha256.reset s.ctx;
  Sha256.feed s.ctx k.ipad;
  f s.ctx;
  Sha256.finalize_into s.ctx ~dst:s.inner ~dst_off:0;
  Sha256.reset s.ctx;
  Sha256.feed s.ctx k.opad;
  Sha256.feed s.ctx s.inner;
  Sha256.finalize_into s.ctx ~dst ~dst_off

let mac_build_into k f ~dst ~dst_off = fill_tag k f dst dst_off

let mac_build k f =
  let out = Bytes.create 32 in
  fill_tag k f out 0;
  out

let mac_with k data = mac_build k (fun ctx -> Sha256.feed ctx data)

let mac ~key:raw data = mac_with (key raw) data

(* Fold over every byte rather than short-circuiting. *)
let eq_32 a a_off b b_off =
  let diff = ref 0 in
  for i = 0 to 31 do
    diff :=
      !diff
      lor (Char.code (Bytes.get a (a_off + i))
          lxor Char.code (Bytes.get b (b_off + i)))
  done;
  !diff = 0

let verify_build k f ~tag ~tag_off =
  if tag_off < 0 || tag_off > Bytes.length tag - 32 then false
  else begin
    let s = Domain.DLS.get scratch in
    fill_tag k f s.tag 0;
    eq_32 s.tag 0 tag tag_off
  end

let verify_with k ~tag data =
  Bytes.length tag = 32
  && verify_build k (fun ctx -> Sha256.feed ctx data) ~tag ~tag_off:0

let verify ~key:raw ~tag data = verify_with (key raw) ~tag data
