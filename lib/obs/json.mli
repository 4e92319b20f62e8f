(** Minimal JSON tree, printer and parser.

    The observability layer must stay dependency-free (it sits below the
    hardware model), so it carries its own ~100-line JSON implementation
    instead of pulling in yojson. The printer emits deterministic output
    (object fields in the order given, no whitespace variation) so traces
    can be compared byte-for-byte; the parser exists so exported traces can
    be validated round-trip in tests and by the CLI's own trace export. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, deterministic field order. *)

val to_buffer : Buffer.t -> t -> unit

(** {2 Leaf printers}

    The two primitives {!to_buffer} prints every [Int] and [Str] with,
    exported for writers that stream JSON without building a [t]. Both
    append exactly the bytes {!to_buffer} would, allocate nothing once the
    buffer has room, and keep no state outside their arguments, so any
    number of domains may print at once, each into its own buffer. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n] (as [to_buffer buf (Int n)]). *)

val add_str : Buffer.t -> string -> unit
(** [add_str buf s] appends [s] as a quoted JSON string (as
    [to_buffer buf (Str s)]). The double quote, backslash, newline,
    carriage return and tab get their two-byte escapes, other bytes below
    0x20 become [\u00XX] (lower-case hex), and every other byte, 0x7f
    and bytes above 0x7f included, is copied verbatim. A string with
    nothing to escape is copied in one blit. *)

val plain : string -> bool
(** [plain s]: nothing in [s] needs escaping, so {!add_str} prints it
    verbatim between its quotes. *)

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} on malformed input, trailing garbage, or arrays
    and objects nested more than 512 deep — and never any other
    exception. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k], if any; [None] on
    non-objects. *)
