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

let can_transition from into =
  match (from, into) with
  | Uninit, Launching
  | Uninit, Receiving
  | Launching, Running
  | Running, Sending
  | Receiving, Running
  | Sending, Sent
  (* SEND_CANCEL abandons an outgoing migration *)
  | Sending, Running
  | Sent, Running -> true
  | _, Decommissioned -> not (from = Decommissioned)
  | _, _ -> false

type 'a command_result = ('a, string) result

let require current ~expected ~cmd =
  if List.mem current expected then Ok ()
  else
    Error
      (Printf.sprintf "%s: invalid guest state %s (expected %s)" cmd (to_string current)
         (String.concat " or " (List.map to_string expected)))
