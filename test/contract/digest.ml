(* Print "<bytes> <md5> <file name>" for each argument, the name without
   its directory. The behaviour contract pins the multi-megabyte trace
   exports by length and digest instead of committing them, wherever the
   rule wrote them. *)
let () =
  Array.iteri
    (fun i f ->
      if i > 0 then
        let len = In_channel.with_open_bin f In_channel.length in
        Printf.printf "%Ld %s %s\n" len (Digest.to_hex (Digest.file f)) (Filename.basename f))
    Sys.argv
