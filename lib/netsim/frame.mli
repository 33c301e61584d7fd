(** Data-link framing.

    Two variants:
    - [Exp3], the 3 Mbit/s Experimental Ethernet: a 4-byte header — one
      destination byte, one source byte, one 16-bit type word (figure 3-7's
      "data-link header is 4 bytes (two words) long, with the packet type in
      the second word");
    - [Dix10], the 10 Mbit/s Ethernet: 6-byte destination and source MACs and
      a 16-bit Ethertype (14 bytes; type is packet word 6).

    A frame is a complete {!Pf_pkt.Packet.t} including the header — the
    packet filter delivers and accepts whole frames ("the entire packet,
    including the data-link layer header, is returned", section 3). *)

type variant = Exp3 | Dix10

val header_length : variant -> int
(** Bytes: 4 or 14. *)

val max_payload : variant -> int
(** MTU in payload bytes: 576 for [Exp3] (enough for a maximal 568-byte Pup
    per section 6.4 framing), 1500 for [Dix10]. *)

type header = { dst : Addr.t; src : Addr.t; ethertype : int }

val encode : variant -> dst:Addr.t -> src:Addr.t -> ethertype:int -> Pf_pkt.Packet.t -> Pf_pkt.Packet.t
(** Raises [Invalid_argument] on an address of the wrong family or an
    oversized payload. *)

val decode : variant -> Pf_pkt.Packet.t -> (header * Pf_pkt.Packet.t) option
(** Header plus payload; [None] if the frame is shorter than the header. *)

val header : variant -> Pf_pkt.Packet.t -> header option

val ethertype : variant -> Pf_pkt.Packet.t -> int option
(** The header's type field, read in place: [header]'s [ethertype] without
    building the addresses. *)

val payload : variant -> Pf_pkt.Packet.t -> Pf_pkt.Packet.t option
