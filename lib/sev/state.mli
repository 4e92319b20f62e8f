(** SEV guest-context state machine (after the AMD SEV API spec).

    Every firmware command is legal only in specific states; Fidelius' novel
    API reuse (booting from an encrypted image via RECEIVE, I/O encryption
    via perpetually-sending/receiving helper contexts) leans on exactly
    these transition rules, so the simulator enforces them strictly. The
    rules are one table: [Sev.Firmware] checks and moves every context
    through it, and {!can_transition} is derived from it. *)

type t =
  | Uninit      (** before a context exists *)
  | Launching   (** between LAUNCH_START and LAUNCH_FINISH *)
  | Running     (** guest may execute *)
  | Sending     (** between SEND_START and SEND_FINISH; guest stopped *)
  | Receiving   (** between RECEIVE_START and RECEIVE_FINISH *)
  | Sent        (** SEND_FINISH done; context drained *)
  | Decommissioned

val to_string : t -> string

(** A command's row: the states the context it names must be in, and the
    state it leaves that context in — or, for a [Start], the state it
    creates a new context in (LAUNCH(shared)'s helper, or the context of
    LAUNCH_START and RECEIVE_START, which name none). *)
type row = Step of t list * t | Start of t list * t

val table : (string * row) list
(** Every command that checks or moves a context's state, by mnemonic.
    ACTIVATE, DEACTIVATE, DBG_DECRYPT and ATTEST keep any live context's
    state and have no row. *)

type command
(** One command's entry in {!table}: its mnemonic and its row. *)

val command : string -> command
(** The named command's entry. Raises [Invalid_argument] for a mnemonic
    with no row. Allocates nothing: the firmware resolves each command
    once and checks against the entry from then on, so a per-page command
    never scans the table. *)

val name : command -> string

val next : command -> t
(** The state the command leaves its context in. *)

val leaves : string -> t
(** [next (command name)]. *)

val can_transition : t -> t -> bool
(** Some command takes a context from the first state to the second ([a
    -> a] when it keeps the state; out of {!Uninit} for a [Start]). *)

type 'a command_result = ('a, string) result

val require : t -> expected:t list -> cmd:string -> unit command_result
(** [require current ~expected ~cmd] is [Ok ()] when [current] is one of
    [expected], otherwise a descriptive [Error] naming the command. *)

val check : t -> command -> unit command_result
(** {!require} against the states the command's row accepts, naming the
    command in the error. Allocates nothing. *)
