(** Incremental packet construction.

    A mutable builder onto which header fields and payload bytes are appended
    in wire order. Protocol encoders use this to lay out headers without
    manual offset arithmetic. *)

type t

val create : ?capacity:int -> unit -> t

val add_byte : t -> int -> unit
(** Appends the low 8 bits. *)

val add_word : t -> int -> unit
(** Appends the low 16 bits, big-endian. *)

val add_word32 : t -> int32 -> unit
val add_string : t -> string -> unit
val add_packet : t -> Packet.t -> unit

val patch_word : t -> pos:int -> int -> unit
(** [patch_word b ~pos w] overwrites the 16-bit word at byte offset [pos];
    used to back-patch length and checksum fields. Raises [Invalid_argument]
    if the word is not within the bytes already written. *)

val length : t -> int
val to_packet : t -> Packet.t
