(* Shared mutable state outside SCALING.md's ownership table fails here.

   Usage: globals.exe LIB_DIR

   Scans every [.ml] file under LIB_DIR for top-level bindings (a [let] or
   [and] at column 0) whose right-hand side starts with a mutable
   constructor. A fleet job may touch only state it created, and a module
   global is state every job on every domain shares, so each such binding
   must be on the allowlist below, with the constructor it is made by and
   the reason it is safe. The check fails on a binding missing from the
   list or made by another constructor, and on a listed binding that no
   longer exists, so the list stays the true inventory. *)

let constructors =
  [ "ref "; "Hashtbl.create"; "Queue.create"; "Array.make"; "Array.init"; "Bytes.create";
    "Atomic.make"; "Mutex.create" ]

(* (file relative to LIB_DIR, binding, constructor, why sharing it across
   domains is safe) *)
let allowlist =
  let t_table name =
    ( "crypto/aes.ml",
      name,
      "Array.make",
      "AES T-table: filled once by the module initialiser, read-only afterwards" )
  in
  List.map t_table [ "te0"; "te1"; "te2"; "te3"; "td0"; "td1"; "td2"; "td3" ]
  @ [ ( "hw/cost.ml",
        "registry_lock",
        "Mutex.create",
        "guards the charge-label registry; labels mean the same in every ledger" );
      ( "hw/cost.ml",
        "registry",
        "Hashtbl.create",
        "charge-label registry: read and written under registry_lock" );
      ( "hw/cost.ml",
        "labels",
        "Atomic.make",
        "charge-label array, republished whole through the atomic under registry_lock" );
      ( "xen/hypervisor.ml",
        "hypercall_num64",
        "Array.init",
        "boxed hypercall numbers: read-only after init" );
      ( "crypto/keywrap.ml",
        "nonce_counter",
        "Atomic.make",
        "the one process-wide counter: advanced by Atomic.fetch_and_add, so concurrent \
         wraps draw distinct nonces" ) ]

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then List.map (Filename.concat name) (ml_files path)
         else if Filename.check_suffix name ".ml" then [ name ]
         else [])

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* The bound name of a column-0 value binding [let NAME =] / [let NAME :]
   (or [and]), if any; a binding with parameters is a function. *)
let binding_name line =
  let ident = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false in
  if not (starts_with ~prefix:"let " line || starts_with ~prefix:"and " line) then None
  else begin
    let rest = String.trim (String.sub line 4 (String.length line - 4)) in
    let n = ref 0 in
    while !n < String.length rest && ident rest.[!n] do
      incr n
    done;
    let after = String.trim (String.sub rest !n (String.length rest - !n)) in
    if !n = 0 || rest.[0] = '_' || String.sub rest 0 !n = "rec" then None
    else if starts_with ~prefix:"=" after || starts_with ~prefix:":" after then
      Some (String.sub rest 0 !n)
    else None
  end

(* Every mutable top-level binding in [lines]: (line number, name,
   constructor). *)
let mutable_bindings lines =
  let lines = Array.of_list lines in
  let found = ref [] in
  Array.iteri
    (fun i line ->
      match binding_name line with
      | None -> ()
      | Some name -> (
          match String.index_opt line '=' with
          | None -> ()
          | Some eq ->
              let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
              let rhs =
                if rhs <> "" || i + 1 >= Array.length lines then rhs
                else String.trim lines.(i + 1)
              in
              match List.find_opt (fun prefix -> starts_with ~prefix rhs) constructors with
              | Some c -> found := (i + 1, name, String.trim c) :: !found
              | None -> ()))
    lines;
  List.rev !found

let () =
  let lib = Sys.argv.(1) in
  let seen = ref [] and failures = ref 0 in
  List.iter
    (fun file ->
      let lines = In_channel.with_open_text (Filename.concat lib file) In_channel.input_lines in
      List.iter
        (fun (lnum, name, c) ->
          seen := (file, name) :: !seen;
          if not (List.exists (fun (f, n, c', _) -> f = file && n = name && c = c') allowlist)
          then begin
            incr failures;
            Printf.printf
              "lib/%s:%d: top-level mutable binding %s (%s) is shared by every fleet job; \
               make it job-local or add it to the allowlist in test/globals/globals.ml with \
               the reason it is safe\n"
              file lnum name c
          end)
        (mutable_bindings lines))
    (ml_files lib);
  List.iter
    (fun (file, name, _, _) ->
      if not (List.mem (file, name) !seen) then begin
        incr failures;
        Printf.printf "lib/%s: allowlisted binding %s no longer exists; drop its entry\n" file
          name
      end)
    allowlist;
  if !failures > 0 then exit 1
