(* Print "<bytes> <md5> <file>" for each argument. The behaviour contract
   pins the multi-megabyte trace exports by length and digest instead of
   committing them. *)
let () =
  Array.iteri
    (fun i f ->
      if i > 0 then
        let len = In_channel.with_open_bin f In_channel.length in
        Printf.printf "%Ld %s %s\n" len (Digest.to_hex (Digest.file f)) f)
    Sys.argv
