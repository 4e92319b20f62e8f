(* [block] holds every frame's bytes, frame [pfn] at [base pfn]. It is made
   by [Bytes.create] and never filled: a frame whose [blank] byte is set
   reads as zeros whatever its bytes in [block] hold, and [touch] zeroes it
   when an accessor first reads it or hands it out. So [create] touches no
   page, and a frame costs its zeroing only once something uses it.

   [stamps] holds one write stamp per frame. Every path that can change a
   frame's bytes ([page_for_write], [write_raw], [flip_bit], [scrub], and
   [reset] of a written frame) moves the frame's stamp first; nothing else
   does, and zeroing a blank frame is no change. A stamp starts at 0 and
   only grows, so a frame still at 0 has never been written and holds
   zeros: that is what [reset] skips. *)
type t = {
  block : bytes;
  blank : bytes;
  stamps : int array;
}

let create ~nr_frames =
  if nr_frames <= 0 then invalid_arg "Physmem.create: nr_frames must be positive";
  if nr_frames > Sys.max_string_length / Addr.page_size then
    invalid_arg "Physmem.create: nr_frames too large";
  { block = Bytes.create (nr_frames * Addr.page_size);
    blank = Bytes.make nr_frames '\001';
    stamps = Array.make nr_frames 0 }

let nr_frames t = Array.length t.stamps

let base pfn = pfn * Addr.page_size

let bump t pfn = Array.unsafe_set t.stamps pfn (Array.unsafe_get t.stamps pfn + 1)

(* Give a blank frame the zeros it reads as. Callers check [pfn] first. *)
let touch t pfn =
  if Bytes.unsafe_get t.blank pfn <> '\000' then begin
    Bytes.fill t.block (base pfn) Addr.page_size '\000';
    Bytes.unsafe_set t.blank pfn '\000'
  end

(* Reuse path for the fleet arenas: a reset backing must be
   indistinguishable from [create]'s fresh memory. Only a frame with a
   nonzero stamp can hold a nonzero byte, so marking those blank again
   makes every frame read as zeros, at the cost of a pass over the stamps
   rather than a 32 MiB memset. *)
let reset t =
  for pfn = 0 to Array.length t.stamps - 1 do
    if Array.unsafe_get t.stamps pfn <> 0 then begin
      bump t pfn;
      Bytes.unsafe_set t.blank pfn '\001'
    end
  done

(* [off > page_size - len] rather than [off + len > page_size]: the sum
   wraps for an [off] or [len] near [max_int]. *)
let check t pfn off len =
  if pfn < 0 || pfn >= Array.length t.stamps then
    invalid_arg (Printf.sprintf "Physmem: frame 0x%x out of bounds" pfn);
  if off < 0 || len < 0 || off > Addr.page_size - len then
    invalid_arg (Printf.sprintf "Physmem: range %d+%d leaves the page" off len)

let stamp t pfn =
  check t pfn 0 0;
  Array.unsafe_get t.stamps pfn

let read_raw t pfn ~off ~len =
  check t pfn off len;
  touch t pfn;
  Bytes.sub t.block (base pfn + off) len

let read_raw_into t pfn ~off ~len ~dst ~dst_off =
  check t pfn off len;
  touch t pfn;
  Bytes.blit t.block (base pfn + off) dst dst_off len

let write_raw t pfn ~off data =
  check t pfn off (Bytes.length data);
  touch t pfn;
  bump t pfn;
  Bytes.blit data 0 t.block (base pfn + off) (Bytes.length data)

let scrub t pfn =
  check t pfn 0 Addr.page_size;
  bump t pfn;
  Bytes.fill t.block (base pfn) Addr.page_size '\000';
  Bytes.unsafe_set t.blank pfn '\000'

let view t pfn ~off ~len =
  check t pfn off len;
  touch t pfn;
  t.block

let page_for_write t pfn ~off ~len =
  check t pfn off len;
  touch t pfn;
  bump t pfn;
  t.block

let flip_bit t pfn ~off ~bit =
  check t pfn off 1;
  if bit < 0 || bit > 7 then invalid_arg "Physmem.flip_bit: bit must be 0..7";
  touch t pfn;
  bump t pfn;
  let at = base pfn + off in
  let b = Char.code (Bytes.get t.block at) in
  Bytes.set t.block at (Char.chr (b lxor (1 lsl bit)))

let dump t pfn =
  check t pfn 0 Addr.page_size;
  touch t pfn;
  Bytes.sub t.block (base pfn) Addr.page_size
