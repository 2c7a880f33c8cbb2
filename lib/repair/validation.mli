(** The validation interface loop (paper §6.3).

    The repairing module proposes a card-minimal repair; the operator
    examines each suggested update (shown most-constraint-involved first)
    and either accepts it or supplies the actual source value.  Decisions
    become equality pins and the MILP is re-solved until a proposed repair
    is fully accepted.  Cells validated once are never shown again. *)

open Dart_relational
open Dart_constraints

type decision =
  | Accept
  | Override of Value.t

type operator = cell:Ground.cell -> tuple:Tuple.t -> suggested:Value.t -> decision
(** The operator sees the cell, the tuple it belongs to (to locate the row
    in the source document) and the suggested value. *)

val semantic_key : Schema.t -> Tuple.t -> string * (string * string) list
(** A tuple's relation plus its non-measure attribute values — how a human
    locates the row in the paper document. *)

val oracle : truth:Database.t -> operator
(** Ground-truth operator: accepts exactly the suggestions matching the
    truth database, locating rows by {!semantic_key} (robust to dropped or
    reordered rows).  Updates on rows absent from the truth are accepted. *)

val noisy_oracle :
  truth:Database.t -> error_rate:float -> rand:(unit -> float) -> operator
(** Oracle that wrongly confirms with probability [error_rate]. *)

(** {1 The validation state machine}

    {!run} drives it with an operator callback; the server's sessions
    drive it with decisions arriving over the wire. *)

type phase =
  | Proposing of Repair.t    (** the current full proposal ρ *)
  | Converged of Database.t  (** the accepted repair, applied *)
  | Failed of string
      (** ["no_repair"], ["node_budget_exceeded"], ["cancelled"] (first
          solve) or ["max_iterations"] *)

type state = private {
  db : Database.t;
  rows : Ground.row list;
  batch : int option;        (** suggestions shown per round; [None] = all *)
  max_iterations : int;
  mutable pins : (Ground.cell * Dart_numeric.Rat.t) list;
  mutable validated : Ground.cell list;
  mutable iterations : int;  (** proposals computed *)
  mutable examined : int;    (** suggestions decided *)
  mutable phase : phase;
}

type solve = (Ground.cell * Dart_numeric.Rat.t) list -> Solver.result
(** Re-solve D under the given pins; the caller picks warm or cold
    solving, the span and the mapper. *)

val start :
  batch:int option -> max_iterations:int -> solve:solve ->
  Database.t -> Ground.row list -> state
(** Compute the first proposal. *)

val pending : state -> Update.t list
(** The proposal in display order ({!Solver.display_order}), minus
    validated cells, cut to [batch]; [[]] unless [Proposing]. *)

val decide :
  solve:solve -> state -> (Update.t * decision) list -> [ `Applied | `Cancelled ]
(** One round of decisions on distinct {!pending} suggestions, each
    becoming a pin.  A round that accepts everything pending of an
    unbatched state applies the proposal; otherwise D is re-solved under
    all pins.  [`Cancelled]: the re-solve was cancelled and the previous
    proposal stands.
    @raise Invalid_argument unless [Proposing]. *)

type outcome = {
  final_db : Database.t;
  iterations : int;   (** repair computations performed *)
  examined : int;     (** updates the operator had to look at *)
  pins : int;         (** equality constraints accumulated *)
  converged : bool;   (** ended with an accepted repair *)
}

val run :
  ?batch:int -> ?max_iterations:int -> ?warm:bool ->
  ?cancel:Dart_resilience.Cancel.t ->
  operator:operator ->
  Database.t -> Agg_constraint.t list -> outcome
(** Run the loop.  [batch] caps updates examined per iteration (§6.3 allows
    re-computation "after validating only some of the suggested updates");
    [max_iterations] guards non-oracle operators (default 50); [warm]
    (default on) makes each iteration's re-solve incremental via
    {!Solver.Warm} — pins only grow across iterations, so re-solves
    append rows and warm-start from the previous bases; [warm:false]
    re-encodes and solves cold every iteration (ablation — the outcome is
    the same either way); [cancel] aborts the per-iteration re-solves
    cooperatively (a cancelled iteration ends the loop unconverged).  The
    loop runs the state machine above, asking [operator] about every
    {!pending} suggestion each round. *)
