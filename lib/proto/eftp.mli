(** EFTP, the Pup Easy File Transfer Protocol — the §5.1 suite's canonical
    "simple program using the write; read with timeout; retry if necessary
    paradigm" (section 3). Used for boot-serving and printing in the real
    Pup world.

    Faithful in shape: strictly single-outstanding-block (EFTP was
    deliberately stop-and-wait so tiny machines could run it), 512-byte
    data blocks, each individually acknowledged, a zero-length data block
    signalling end-of-file. Pup types 24-27: Data, Ack, End, Abort. *)

val t_data : int
val t_ack : int
val t_end : int
val t_abort : int

val send :
  ?timeout:Pf_sim.Time.t -> Pup_socket.t -> dst:Pup.port -> string ->
  (unit, string) result
(** Transfer a complete "file"; blocks until the final end/ack exchange.
    [timeout] is the per-block retransmission timeout (default 200 ms).
    [Error] carries the abort reason after retries are exhausted. *)

val receive : ?timeout:Pf_sim.Time.t -> Pup_socket.t -> (string, string) result
(** Receive one complete file: waits indefinitely for the first block, then
    applies the per-block timeout. Duplicate blocks (retransmissions whose
    ack was lost) are acknowledged and discarded. *)
