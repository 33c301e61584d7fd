(** Infix combinators for building {!Expr.t} predicates.

    {[
      let open Pf_filter.Dsl in
      (* Figure 3-8: Pup packets with 1 <= PupType <= 100 *)
      let pup_type = word 3 &: lit 0x00ff in
      word 1 =: lit 2 &&: (pup_type >: lit 0) &&: (pup_type <=: lit 100)
    ]} *)

val word : int -> Expr.t
(** The [n]th 16-bit word of the packet. *)

val lit : int -> Expr.t
val ind : Expr.t -> Expr.t

(** {1 Comparisons} (result 0/1) *)

val ( =: ) : Expr.t -> Expr.t -> Expr.t
val ( <>: ) : Expr.t -> Expr.t -> Expr.t
val ( <: ) : Expr.t -> Expr.t -> Expr.t
val ( <=: ) : Expr.t -> Expr.t -> Expr.t
val ( >: ) : Expr.t -> Expr.t -> Expr.t
val ( >=: ) : Expr.t -> Expr.t -> Expr.t

(** {1 Logical connectives} *)

val ( &&: ) : Expr.t -> Expr.t -> Expr.t
(** Conjunction; consecutive uses flatten into one [All]. *)

val ( ||: ) : Expr.t -> Expr.t -> Expr.t
val not_ : Expr.t -> Expr.t
val all : Expr.t list -> Expr.t
val any : Expr.t list -> Expr.t

(** {1 Bitwise and arithmetic} *)

val ( &: ) : Expr.t -> Expr.t -> Expr.t
val ( |: ) : Expr.t -> Expr.t -> Expr.t
val ( ^: ) : Expr.t -> Expr.t -> Expr.t
val ( +: ) : Expr.t -> Expr.t -> Expr.t
val ( -: ) : Expr.t -> Expr.t -> Expr.t
val ( *: ) : Expr.t -> Expr.t -> Expr.t
val ( /: ) : Expr.t -> Expr.t -> Expr.t
val ( %: ) : Expr.t -> Expr.t -> Expr.t
val ( <<: ) : Expr.t -> int -> Expr.t
val ( >>: ) : Expr.t -> int -> Expr.t

(** {1 Field helpers} *)

val low_byte : Expr.t -> Expr.t
(** [e &: lit 0x00ff]. *)

val high_byte : Expr.t -> Expr.t
(** [e >>: 8]. *)
