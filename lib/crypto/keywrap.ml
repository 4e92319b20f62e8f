type wrapped = {
  nonce : int64;
  ciphertext : bytes;
  tag : bytes; (* HMAC over nonce || ciphertext *)
}

(* Derive distinct encryption and MAC keys from the KEK so the same secret
   is never used for both purposes. *)
let enc_label = Bytes.of_string "wrap-enc"
let mac_label = Bytes.of_string "wrap-mac"

let subkeys kek =
  let enc = Sha256.digest_pair kek enc_label in
  let mac = Sha256.digest_pair kek mac_label in
  (Aes.expand (Bytes.sub enc 0 16), Hmac.key mac)

(* The authenticated payload is nonce || ciphertext, fed to the MAC as two
   parts rather than materialized. *)
let feed_payload nonce ciphertext ctx =
  Sha256.feed_u64_be ctx nonce;
  Sha256.feed ctx ciphertext

(* The one process-wide counter (SCALING.md): fleet workers on different
   domains wrap at once, so each draw is one atomic fetch-and-add; a
   single-domain run draws 1, 2, 3, … *)
let nonce_counter = Atomic.make 0

let wrap ~kek key =
  let enc_key, mac_key = subkeys kek in
  let nonce = Int64.of_int (Atomic.fetch_and_add nonce_counter 1 + 1) in
  let ciphertext = Modes.ctr_transform enc_key ~nonce key in
  let tag = Hmac.mac_build mac_key (feed_payload nonce ciphertext) in
  { nonce; ciphertext; tag }

let unwrap ~kek w =
  let enc_key, mac_key = subkeys kek in
  if
    Hmac.verify_build mac_key (feed_payload w.nonce w.ciphertext) ~tag:w.tag
      ~tag_off:0
  then Some (Modes.ctr_transform enc_key ~nonce:w.nonce w.ciphertext)
  else None

let to_bytes w =
  let clen = Bytes.length w.ciphertext in
  let b = Bytes.create (8 + 4 + clen + 32) in
  Bytes.set_int64_be b 0 w.nonce;
  Bytes.set_int32_be b 8 (Int32.of_int clen);
  Bytes.blit w.ciphertext 0 b 12 clen;
  Bytes.blit w.tag 0 b (12 + clen) 32;
  b

let of_bytes b =
  if Bytes.length b < 44 then None
  else
    let nonce = Bytes.get_int64_be b 0 in
    let clen = Int32.to_int (Bytes.get_int32_be b 8) in
    if clen < 0 || Bytes.length b <> 12 + clen + 32 then None
    else
      let ciphertext = Bytes.sub b 12 clen in
      let tag = Bytes.sub b (12 + clen) 32 in
      Some { nonce; ciphertext; tag }
