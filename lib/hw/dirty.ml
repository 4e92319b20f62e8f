(* Per-domain dirty-page bitmap for live-migration pre-copy rounds. *)

type t = {
  mutable bits : Bytes.t;
  mutable tracking : bool;
}

let create () = { bits = Bytes.create 8; tracking = false }

let start t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.tracking <- true

let stop t = t.tracking <- false
let tracking t = t.tracking

let ensure t gfn =
  let need = (gfn / 8) + 1 in
  if Bytes.length t.bits < need then begin
    let grown = Bytes.make (max need (2 * Bytes.length t.bits)) '\000' in
    Bytes.blit t.bits 0 grown 0 (Bytes.length t.bits);
    t.bits <- grown
  end

let mark t gfn =
  if t.tracking && gfn >= 0 then begin
    ensure t gfn;
    let byte = gfn / 8 and bit = gfn mod 8 in
    Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))
  end

let drain t =
  let acc = ref [] in
  for byte = Bytes.length t.bits - 1 downto 0 do
    let c = Char.code (Bytes.get t.bits byte) in
    if c <> 0 then
      for bit = 7 downto 0 do
        if c land (1 lsl bit) <> 0 then acc := ((byte * 8) + bit) :: !acc
      done
  done;
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  !acc
