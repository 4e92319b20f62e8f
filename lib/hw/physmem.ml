type t = { frames : bytes array }

let create ~nr_frames =
  if nr_frames <= 0 then invalid_arg "Physmem.create: nr_frames must be positive";
  { frames = Array.init nr_frames (fun _ -> Bytes.make Addr.page_size '\000') }

let nr_frames t = Array.length t.frames

(* Reuse path for the fleet arenas: a reset backing must be
   indistinguishable from [create]'s fresh zeroed memory — [Bytes.fill]
   is the memset the allocator would otherwise pay as fresh-page zeroing,
   without the 32 MiB of major-heap churn per simulated machine. *)
let reset t =
  Array.iter (fun frame -> Bytes.fill frame 0 (Bytes.length frame) '\000') t.frames

let check t pfn off len =
  if pfn < 0 || pfn >= Array.length t.frames then
    invalid_arg (Printf.sprintf "Physmem: frame 0x%x out of bounds" pfn);
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg (Printf.sprintf "Physmem: range %d+%d leaves the page" off len)

let read_raw t pfn ~off ~len =
  check t pfn off len;
  Bytes.sub t.frames.(pfn) off len

let read_raw_into t pfn ~off ~len ~dst ~dst_off =
  check t pfn off len;
  Bytes.blit t.frames.(pfn) off dst dst_off len

let write_raw t pfn ~off data =
  check t pfn off (Bytes.length data);
  Bytes.blit data 0 t.frames.(pfn) off (Bytes.length data)

let scrub t pfn =
  check t pfn 0 Addr.page_size;
  Bytes.fill t.frames.(pfn) 0 Addr.page_size '\000'

let page t pfn =
  check t pfn 0 0;
  t.frames.(pfn)

let flip_bit t pfn ~off ~bit =
  check t pfn off 1;
  if bit < 0 || bit > 7 then invalid_arg "Physmem.flip_bit: bit must be 0..7";
  let b = Char.code (Bytes.get t.frames.(pfn) off) in
  Bytes.set t.frames.(pfn) off (Char.chr (b lxor (1 lsl bit)))

let dump t pfn =
  check t pfn 0 Addr.page_size;
  Bytes.copy t.frames.(pfn)
