(** Filter programs.

    A filter is a priority plus a straight-line sequence of instructions
    (there are no branches, section 4). The wire format mirrors the paper's
    [struct enfilter]: a priority word, a length word (counting 16-bit code
    words, including [Pushlit] literals), then the code words. *)

type t = private { priority : int; insns : Insn.t array }

val v : ?priority:int -> Insn.t list -> t
(** [v ~priority insns] builds a program. [priority] defaults to 0; it is
    clamped to 0..255. *)

val empty : ?priority:int -> unit -> t
(** The zero-length filter, which accepts every packet — the filter a network
    monitor uses, and the length-0 row of table 6-10. *)

val priority : t -> int
val with_priority : t -> int -> t
val insns : t -> Insn.t list
val insn_count : t -> int

val code_words : t -> int
(** Number of 16-bit code words in the wire encoding (instructions plus
    literals), i.e. the paper's length field. *)

val uses_extensions : t -> bool
(** True if any instruction uses a post-1987 extension (indirect push or
    arithmetic operator). *)

val equal : t -> t -> bool

(** {1 Wire format} *)

val encode : t -> int list
(** [priority; length; code words...], each a 16-bit word. *)

type decode_error =
  | Missing_header            (** fewer than two words *)
  | Length_mismatch of { declared : int; available : int }
  | Bad_insn of { index : int; error : Insn.decode_error }

val pp_decode_error : Format.formatter -> decode_error -> unit
val decode : int list -> (t, decode_error) result

(** {1 Text format} *)

val to_string : t -> string
(** One instruction per line, preceded by a [priority N] line. *)

val of_string : string -> (t, string) result
(** Parses the [to_string] syntax. [#] starts a comment; blank lines are
    ignored; the [priority] line is optional. *)

val pp : Format.formatter -> t -> unit
