(** Named counters for instrumenting simulations.

    Used for the bookkeeping the paper reports: packets handled, context
    switches, system calls, filter instructions interpreted, bytes copied,
    queue-overflow drops. A key is either {e pushed} by name ([incr]) or
    {e derived} from counters its owner already keeps ([derive]), never
    both; [get] of a key that does not exist is 0. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Created on first use (at [by], possibly 0). Raises [Invalid_argument]
    on a derived key. *)

val derive : t -> string -> (unit -> int option) -> unit
(** [name] reads [f] when asked for; [None] means the key does not exist
    yet. Deriving a name again adds to it: the value sums the derivations
    that return [Some]. Raises [Invalid_argument] on a pushed key. *)

val get : t -> string -> int

val pairs : t -> (string * int) list
(** Every existing key, sorted by name. *)
