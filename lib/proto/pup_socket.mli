(** A user-level Pup endpoint over the packet filter — the §5.1 usage: "at
    Stanford, almost all of the Pup protocols were implemented for Unix,
    based entirely on the packet filter."

    Opening a socket opens a packet filter port and installs a filter on the
    destination host byte and 32-bit socket (compiled with short-circuit
    tests, figure 3-9 style). Send and receive move whole Pup datagrams;
    reliability is the caller's problem (that is BSP's job, {!Bsp}). *)

type t

val create :
  ?priority:int -> ?checksum:bool -> ?net:int -> Pf_kernel.Host.t -> socket:int32 -> t
(** [checksum] (default false, matching the measured §6 implementations:
    "these implementations of VMTP [and BSP] do not [checksum]") controls
    whether outgoing Pups carry a computed checksum and incoming ones are
    verified. Works on both link variants: natively on the 3 Mbit/s
    experimental Ethernet, and on the 10 Mbit/s Ethernet with ethertype
    0x0200 and Pup host numbers mapped through the [Addr.eth_host]
    convention (§6.4 measured Pup/BSP on the 10 Mb net). *)

val host : t -> Pf_kernel.Host.t
val socket : t -> int32
val port : t -> Pf_kernel.Pfdev.port
(** The underlying packet filter port (for [set_timeout] etc.). *)

val host_number : t -> int
(** This host's Pup host number (the experimental-Ethernet address byte, or
    the host index encoded in the MAC on the 10 Mb net). *)

val net : t -> int
(** This host's Pup network number ([?net] at creation, default 0). *)

val set_route : t -> net:int -> via:int -> unit
(** Route Pups for a foreign network through the gateway with the given
    data-link host number — the sender-side half of Pup internetworking
    (Boggs et al.; the gateway itself is {!Pup_gateway}). *)

val send :
  t -> dst:Pup.port -> ?transport_control:int -> ptype:int -> id:int32 ->
  Pf_pkt.Packet.t -> unit
(** Encode and transmit one Pup (a packet filter write). *)

val recv : ?timeout:Pf_sim.Time.t -> t -> Pup.t option
(** Blocking receive of the next valid Pup; silently discards undecodable
    packets (counting them in host stats under ["pup.garbage"]). *)

val close : t -> unit
