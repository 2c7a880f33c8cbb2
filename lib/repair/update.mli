(** Atomic updates and consistent database updates (paper Definitions 2–3). *)

open Dart_relational
open Dart_constraints

type t = {
  tid : Tuple.id;
  attr : string;
  new_value : Value.t;
}

val cell : t -> Ground.cell
(** λ(u): the ⟨tuple, attribute⟩ pair the update addresses. *)

val make : tid:Tuple.id -> attr:string -> new_value:Value.t -> t

val attr_domain : Database.t -> Ground.cell -> Value.domain
(** The domain of the cell's attribute.
    @raise Not_found if the tuple or attribute is missing. *)

val of_rat : Database.t -> Ground.cell -> Dart_numeric.Rat.t -> t
(** The update setting the cell to a rational value, converted into the
    attribute's domain (the one way solver values become updates).
    @raise Not_found if the tuple or attribute is missing. *)

val valid : Database.t -> t -> bool
(** Definition 2: the attribute is a measure attribute of the tuple's
    relation and the new value differs from the current one. *)

val consistent : t list -> bool
(** Definition 3: pairwise-distinct λ(u). *)

val apply : Database.t -> t list -> Database.t
(** Perform a consistent database update U, yielding U(D).
    @raise Invalid_argument if the set is not consistent.
    @raise Not_found if an update targets a missing tuple or attribute. *)

val pp : Database.t -> Format.formatter -> t -> unit
(** Renders [<tN, attr, old -> new>], reading the old value from the
    database. *)
