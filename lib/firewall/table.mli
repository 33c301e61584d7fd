(** First-match rule tables and their executable reference semantics.

    A table is an ordered rule list plus a default action. Its meaning on
    a packet is deliberately boring — that is the point of a reference
    semantics: packets that are not well-formed IPv4-on-Ethernet frames
    (see {!valid_shape}) are dropped outright, whatever the default says,
    because none of the matched fields exist; otherwise the first rule
    whose 5-tuple matches decides, and the default applies when no rule
    matches. {!Compile} must reproduce exactly this function, and
    {!Pf_filter.Equiv} checks that it does. *)

type t = { rules : Rule.t list; default : Rule.action }

val v : ?default:Rule.action -> Rule.t list -> t
(** [default] defaults to [Drop]. *)

val valid_shape : Pf_pkt.Packet.t -> bool
(** The precondition under which the 5-tuple fields exist: at least
    {!Rule.min_words} words, EtherType [0x0800], IP version 4 with an
    option-less (IHL = 5) header. *)

val eval : t -> Pf_pkt.Packet.t -> Rule.action
(** Malformed packets are dropped; otherwise the first matching rule's
    action, or the default. *)

val accepts : t -> Pf_pkt.Packet.t -> bool

(** {1 Text form}

    One rule per line; [#] starts a comment; blank lines are ignored; a
    [default accept] / [default drop] line (at most one) sets the default
    action, which is [drop] when the line is absent. *)

val of_string : string -> (t, string) result
(** Errors are prefixed with the 1-based line number. *)

val to_string : t -> string
(** Canonical text, one rule per line with a trailing [default] line.
    Parses back to an equal table. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
