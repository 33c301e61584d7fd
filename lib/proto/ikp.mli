(** The V-system Inter-Kernel Protocol — §5.2's first act: "The Unix hosts
    had to be taught to speak the V-system Inter-Kernel Protocol.
    Fortunately, the packet filter was available for use as the basis of a
    user-level V IKP server process."

    V messages are fixed 32-byte records sent synchronously: [send] blocks
    until the addressed process replies (Cheriton's Send/Receive/Reply).
    This is the simple predecessor VMTP replaced; no segments, no packet
    groups — one packet each way, retransmitted on timeout, duplicates
    suppressed by sequence number.

    Wire format (Ethertype 0x0701, simulation-assigned): destination pid
    (4), source pid (4), sequence (2), kind (1 = Send, 2 = Reply), one pad
    byte, then exactly 32 bytes of message. *)

type server

val server :
  Pf_kernel.Host.t -> pid:int32 -> handler:(Pf_pkt.Packet.t -> Pf_pkt.Packet.t) -> server
(** The Receive/Reply loop as a user process; [handler] maps a 32-byte
    message to a 32-byte reply (shorter values are zero-padded, longer
    truncated — V messages are fixed-size). *)

val stop : server -> unit
val served : server -> int

type client

val client : Pf_kernel.Host.t -> pid:int32 -> client

val send :
  ?timeout:Pf_sim.Time.t -> client -> dst:int32 -> dst_addr:Pf_net.Addr.t ->
  Pf_pkt.Packet.t -> Pf_pkt.Packet.t option
(** Synchronous V Send: blocks for the reply; retransmits a few times
    ([timeout] per attempt, default 200 ms), [None] on failure. *)

val close : client -> unit
