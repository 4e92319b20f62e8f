type t =
  | Uninit
  | Launching
  | Running
  | Sending
  | Receiving
  | Sent
  | Decommissioned

let to_string = function
  | Uninit -> "UNINIT"
  | Launching -> "LAUNCHING"
  | Running -> "RUNNING"
  | Sending -> "SENDING"
  | Receiving -> "RECEIVING"
  | Sent -> "SENT"
  | Decommissioned -> "DECOMMISSIONED"

type row = Step of t list * t | Start of t list * t

let table =
  [ ("LAUNCH_START", Start ([], Launching));
    ("LAUNCH_UPDATE", Step ([ Launching ], Launching));
    ("LAUNCH_FINISH", Step ([ Launching ], Running));
    ("LAUNCH(shared)", Start ([ Running ], Running));
    ("SEND_START", Step ([ Running ], Sending));
    ("SEND_UPDATE", Step ([ Sending ], Sending));
    ("SEND_UPDATE(io)", Step ([ Sending ], Sending));
    ("SEND_FINISH", Step ([ Sending ], Sent));
    (* SEND_CANCEL abandons an outgoing migration *)
    ("SEND_CANCEL", Step ([ Sending; Sent ], Running));
    ("RECEIVE_START", Start ([], Receiving));
    ("RECEIVE_UPDATE", Step ([ Receiving ], Receiving));
    ("RECEIVE_UPDATE(io)", Step ([ Receiving ], Receiving));
    ("RECEIVE_FINISH", Step ([ Receiving ], Running));
    ("SETENC_GEK", Step ([ Running ], Running));
    ("ENC", Step ([ Running ], Running));
    ("DEC", Step ([ Running ], Running));
    ( "DECOMMISSION",
      Step ([ Uninit; Launching; Running; Sending; Receiving; Sent ], Decommissioned) ) ]

type command = string * row

(* The firmware resolves each command once, when it is loaded; the scan
   returns the table's own entry, so it allocates nothing. *)
let rec find cmd = function
  | [] -> invalid_arg ("State: no row for " ^ cmd)
  | ((name, _) as c) :: rest -> if String.equal name cmd then c else find cmd rest

let command cmd = find cmd table
let name ((name, _) : command) = name
let next ((_, r) : command) = match r with Step (_, s) | Start (_, s) -> s
let leaves cmd = next (command cmd)

let can_transition from into =
  List.exists
    (function
      | _, Step (accepts, leaves) -> leaves = into && List.mem from accepts
      | _, Start (_, leaves) -> leaves = into && from = Uninit)
    table

type 'a command_result = ('a, string) result

let require current ~expected ~cmd =
  if List.mem current expected then Ok ()
  else
    Error
      (Printf.sprintf "%s: invalid guest state %s (expected %s)" cmd (to_string current)
         (String.concat " or " (List.map to_string expected)))

let check current ((cmd, r) : command) =
  match r with Step (accepts, _) | Start (accepts, _) -> require current ~expected:accepts ~cmd
