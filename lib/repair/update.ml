(** Atomic updates and consistent database updates (paper Definitions 2–3).

    An atomic update ⟨t, A, v'⟩ replaces the value of measure attribute A in
    tuple t by v'.  A set of atomic updates is a {e consistent database
    update} when no two of them address the same ⟨tuple, attribute⟩ pair
    λ(u). *)

open Dart_relational
open Dart_constraints

type t = {
  tid : Tuple.id;
  attr : string;
  new_value : Value.t;
}

(** λ(u): the cell the update addresses. *)
let cell u : Ground.cell = (u.tid, u.attr)

let make ~tid ~attr ~new_value = { tid; attr; new_value }

(** The domain of the cell's attribute in the tuple's relation. *)
let attr_domain db ((tid, attr) : Ground.cell) =
  let tu = Database.find db tid in
  Schema.attr_domain (Schema.relation (Database.schema db) (Tuple.relation tu)) attr

(** The update setting [cell] to the rational [v], read in the cell's
    attribute domain. *)
let of_rat db ((tid, attr) as cell : Ground.cell) v =
  make ~tid ~attr ~new_value:(Value.of_rat (attr_domain db cell) v)

(** Validity of a single update against a database (Definition 2): the
    attribute must be a measure attribute and the value must differ. *)
let valid db u =
  match Database.find db u.tid with
  | exception Not_found -> false
  | tu ->
    let rel = Tuple.relation tu in
    let schema = Database.schema db in
    Schema.is_measure schema ~rel ~attr:u.attr
    && (let rs = Schema.relation schema rel in
        not (Value.equal (Tuple.value_by_name rs tu u.attr) u.new_value))

(** Definition 3: pairwise-distinct λ(u). *)
let consistent updates =
  let cells = List.map cell updates in
  List.length (List.sort_uniq compare cells) = List.length cells

(** Apply a consistent database update U, yielding U(D).
    @raise Invalid_argument if the set is not consistent.
    @raise Not_found if an update targets a missing tuple/attribute. *)
let apply db updates =
  if not (consistent updates) then invalid_arg "Update.apply: not a consistent database update";
  List.fold_left (fun db u -> Database.update_value db u.tid u.attr u.new_value) db updates

let pp db fmt u =
  let old =
    match Database.find db u.tid with
    | tu ->
      let rs = Schema.relation (Database.schema db) (Tuple.relation tu) in
      Value.to_string (Tuple.value_by_name rs tu u.attr)
    | exception Not_found -> "?"
  in
  Format.fprintf fmt "<t%d, %s, %s -> %s>" u.tid u.attr old (Value.to_string u.new_value)
