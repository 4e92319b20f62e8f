type t = { mutable data : bytes }

let sector_size = 512

let create ~nr_sectors =
  if nr_sectors <= 0 then invalid_arg "Vdisk.create: nr_sectors must be positive";
  { data = Bytes.make (nr_sectors * sector_size) '\000' }

let of_bytes b =
  let len = Bytes.length b in
  let padded = ((len + sector_size - 1) / sector_size) * sector_size in
  let data = Bytes.make (max padded sector_size) '\000' in
  Bytes.blit b 0 data 0 len;
  { data }

let nr_sectors t = Bytes.length t.data / sector_size

(* [sector > nr_sectors - count] rather than [sector + count > nr_sectors]:
   with [count >= 0] the subtraction cannot wrap, the sum can. *)
let check t sector count =
  if sector < 0 || count < 0 || sector > nr_sectors t - count then
    invalid_arg (Printf.sprintf "Vdisk: sectors %d+%d out of range" sector count)

let read_into t ~sector ~count ~dst ~dst_off =
  check t sector count;
  Bytes.blit t.data (sector * sector_size) dst dst_off (count * sector_size)

let write_from t ~sector ~src ~src_off ~len =
  if len mod sector_size <> 0 then
    invalid_arg "Vdisk.write_from: length must be a multiple of the sector size";
  check t sector (len / sector_size);
  Bytes.blit src src_off t.data (sector * sector_size) len

let peek t ~sector ~count =
  check t sector count;
  Bytes.sub t.data (sector * sector_size) (count * sector_size)
