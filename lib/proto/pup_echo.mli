(** The Pup echo protocol — the simplest member of the §5.1 suite, and the
    canonical "write; read with timeout; retry if necessary" program of
    section 3.

    Pup types (Boggs et al. 1980): 1 = EchoMe, 2 = ImAnEcho, 3 = ImABadEcho
    (returned when the received data fails verification). The well-known
    echo-server socket is 5. *)

val echo_me : int  (** 1 *)

val im_an_echo : int  (** 2 *)

val echo_socket : int32  (** 5 *)

type server

val server :
  ?socket:int32 -> ?net:int -> ?routes:(int * int) list -> Pf_kernel.Host.t -> server
(** Answers EchoMe Pups with ImAnEcho carrying the same identifier and data
    (or ImABadEcho if the Pup checksum fails — echo servers verified).
    [net]/[routes] configure the internetwork position like
    {!Pup_socket.create}/{!Pup_socket.set_route}, so echoes find their way
    back through gateways. *)

val stop : server -> unit
val echoed : server -> int

type ping_result = {
  sent : int;
  answered : int;
  rtts : Pf_sim.Time.t list;  (** per successful echo, in send order *)
}

val ping :
  ?socket:int32 ->
  ?count:int ->
  ?size:int ->
  ?timeout:Pf_sim.Time.t ->
  Pf_kernel.Host.t ->
  dst_host:int ->
  ping_result
(** Send [count] (default 5) EchoMe Pups of [size] data bytes (default 64)
    to the echo server on [dst_host] and collect round-trip times; each
    probe gives up after [timeout] (default 1 s). Must be called from inside
    a simulated process. *)
