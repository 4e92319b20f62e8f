(** A TLS-like secure channel (handshake + authenticated record layer).

    The paper scopes network I/O out of Fidelius proper on the grounds that
    "network I/O data has been protected by the SSL protocol" (Section
    4.3.5). This module is that assumed substrate, so the repository can
    demonstrate the assumption holding end-to-end over the PV network path:
    an ephemeral DH handshake, direction-separated AES-CTR record keys, and
    encrypt-then-MAC records with sequence numbers (so the driver domain
    can neither read, modify, reorder nor replay traffic undetected). *)

type session

val client_hello : Rng.t -> Dh.secret * bytes
(** Start a handshake: keep the secret, send the message. *)

val server_accept : Rng.t -> client_hello:bytes -> (session * bytes, string) result
(** Process a client hello: returns the server's session and the reply to
    send back. *)

val client_finish : Dh.secret -> server_reply:bytes -> (session, string) result
(** Complete the handshake on the client with the server's reply. *)

val seal : session -> bytes -> bytes
(** Encrypt-then-MAC one record (any payload length); bumps the send
    sequence number. *)

val open_record : session -> bytes -> (bytes, string) result
(** Verify and decrypt the peer's next record; fails on tampering, replay,
    reordering or truncation. *)
