(* [stamps] holds one write stamp per frame. Every path that can change a
   frame's bytes ([page_for_write], [write_raw], [flip_bit], [scrub], and
   [reset] of a written frame) moves the frame's stamp first; nothing else
   does. A stamp starts at 0 and only grows, so a frame still at 0 has
   never been written and holds zeros: that is what [reset] skips. *)
type t = {
  frames : bytes array;
  stamps : int array;
}

let create ~nr_frames =
  if nr_frames <= 0 then invalid_arg "Physmem.create: nr_frames must be positive";
  { frames = Array.init nr_frames (fun _ -> Bytes.make Addr.page_size '\000');
    stamps = Array.make nr_frames 0 }

let nr_frames t = Array.length t.frames

let bump t pfn = Array.unsafe_set t.stamps pfn (Array.unsafe_get t.stamps pfn + 1)

(* Reuse path for the fleet arenas: a reset backing must be
   indistinguishable from [create]'s fresh zeroed memory. Only a frame
   with a nonzero stamp can hold a nonzero byte, so zeroing those zeroes
   the backing, at the cost of what the previous machines touched rather
   than a 32 MiB memset. *)
let reset t =
  for pfn = 0 to Array.length t.frames - 1 do
    if Array.unsafe_get t.stamps pfn <> 0 then begin
      bump t pfn;
      Bytes.fill t.frames.(pfn) 0 Addr.page_size '\000'
    end
  done

(* [off > page_size - len] rather than [off + len > page_size]: the sum
   wraps for an [off] or [len] near [max_int]. *)
let check t pfn off len =
  if pfn < 0 || pfn >= Array.length t.frames then
    invalid_arg (Printf.sprintf "Physmem: frame 0x%x out of bounds" pfn);
  if off < 0 || len < 0 || off > Addr.page_size - len then
    invalid_arg (Printf.sprintf "Physmem: range %d+%d leaves the page" off len)

let stamp t pfn =
  check t pfn 0 0;
  Array.unsafe_get t.stamps pfn

let read_raw t pfn ~off ~len =
  check t pfn off len;
  Bytes.sub t.frames.(pfn) off len

let read_raw_into t pfn ~off ~len ~dst ~dst_off =
  check t pfn off len;
  Bytes.blit t.frames.(pfn) off dst dst_off len

let write_raw t pfn ~off data =
  check t pfn off (Bytes.length data);
  bump t pfn;
  Bytes.blit data 0 t.frames.(pfn) off (Bytes.length data)

let scrub t pfn =
  check t pfn 0 Addr.page_size;
  bump t pfn;
  Bytes.fill t.frames.(pfn) 0 Addr.page_size '\000'

let view t pfn =
  check t pfn 0 0;
  t.frames.(pfn)

let page_for_write t pfn =
  check t pfn 0 0;
  bump t pfn;
  t.frames.(pfn)

let flip_bit t pfn ~off ~bit =
  check t pfn off 1;
  if bit < 0 || bit > 7 then invalid_arg "Physmem.flip_bit: bit must be 0..7";
  bump t pfn;
  let b = Char.code (Bytes.get t.frames.(pfn) off) in
  Bytes.set t.frames.(pfn) off (Char.chr (b lxor (1 lsl bit)))

let dump t pfn =
  check t pfn 0 Addr.page_size;
  Bytes.copy t.frames.(pfn)
