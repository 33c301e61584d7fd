(** One first-match firewall rule over the classic 5-tuple.

    A rule matches IPv4 packets on a 10Mb Ethernet (the Dix10 framing the
    rest of the tree uses): protocol, source/destination address under a
    CIDR prefix mask, and source/destination port ranges. Ports only exist
    for TCP and UDP, so a rule that constrains a port must name one of
    those protocols — the parser enforces it. Port comparisons read the
    transport header, which is only present in the {e first} fragment of a
    datagram, so any rule with a port constraint also requires fragment
    offset zero. An address- or protocol-only rule deliberately has no
    such constraint and therefore sees every fragment.

    Everything here is expressible as 16-bit word tests (equality under a
    mask, range bounds) — exactly the atoms {!Pf_filter.Symex} can solve,
    which is what lets the lint prove facts about rule interactions rather
    than sample them. *)

type action = Accept | Drop

type proto = Any_proto | Tcp | Udp

type addr = private { addr : int32; prefix : int }
(** A CIDR prefix. [addr] has its host bits cleared; [prefix] is 0–32 and
    0 means "any". *)

type ports = private { lo : int; hi : int }
(** Inclusive port range, 0–65535. [0,65535] means "any". *)

type t = {
  action : action;
  proto : proto;
  src : addr;
  sports : ports;
  dst : addr;
  dports : ports;
}

val any_addr : addr
val any_ports : ports

val addr_v : int32 -> int -> addr
(** [addr_v a prefix] clears the host bits of [a].
    @raise Invalid_argument if [prefix] is outside 0–32. *)

val ports_v : int -> int -> ports
(** @raise Invalid_argument unless [0 <= lo <= hi <= 65535]. *)

val is_any_ports : ports -> bool

val uses_ports : t -> bool
(** True if either port range is constrained (which forces the
    fragment-offset-zero conjunct). *)

(** {1 Frame layout}

    16-bit word offsets of the matched fields in a Dix10 IPv4 frame with
    an option-less (IHL = 5) header. *)

val ethertype_word : int
(** 6 — must be [0x0800] *)

val vihl_word : int
(** 7 — high byte must be [0x45] *)

val frag_word : int
(** 10 — flags + fragment offset *)

val proto_word : int
(** 11 — protocol in the low byte *)

val src_words : int * int
(** 13, 14 *)

val dst_words : int * int
(** 15, 16 *)

val sport_word : int
(** 17 *)

val dport_word : int
(** 18 *)

val min_words : int
(** 19 — a packet must cover words 0–18 for every matched field to
    exist. *)

(** {1 Reference semantics} *)

val matches : t -> Pf_pkt.Packet.t -> bool
(** Field-by-field match, reading the packet directly — no compiler
    involved. A referenced word that is missing fails the match (callers
    normally guard with {!Table.valid_shape} first, which implies all
    words exist). *)

(** {1 Text form} *)

val to_string : t -> string
(** Canonical text, e.g.
    ["accept tcp from any to 10.0.0.0/8 port 22"]. *)

val of_string : string -> (t, string) result
(** Parse one rule line:
    [ACTION PROTO from ADDR [port PORTS] to ADDR [port PORTS]] with
    [ACTION ::= accept | drop], [PROTO ::= any | tcp | udp],
    [ADDR ::= any | a.b.c.d | a.b.c.d/len], [PORTS ::= any | n | n-m]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val action_to_string : action -> string
