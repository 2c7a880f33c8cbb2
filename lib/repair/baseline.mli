(** Baseline repair algorithms for the E5 experiment.

    {!exhaustive} is the ground-truth card-minimality oracle on small
    instances (subset enumeration by increasing size); {!greedy} is the
    cheap heuristic whose over-repairs motivate the MILP translation. *)

open Dart_numeric
open Dart_relational
open Dart_constraints

(** Outcome of checking one repair support. *)
type support =
  | Repairable of Rat.t option * (Ground.cell * Rat.t) list
      (** the objective's optimum ([None] without an objective) and the
          support cells the solution moves, with their new values *)
  | Unbounded  (** the objective cell is unbounded over the support *)
  | No_solution
      (** freeing exactly these cells admits no repair (or the search
          budget ran out before one was found) *)

val solve_support :
  ?objective:Ground.cell * [ `Min | `Max ] ->
  Database.t -> Ground.row list -> free:Ground.cell list -> support
(** The delta-free check of a support: every cell outside [free] keeps
    its database value, and the ground rows must hold.  No big-M and no
    δ variables, so the LP relaxation is as tight as the rows themselves.
    [objective] minimizes or maximizes one cell over the same system. *)

val subsets : int -> 'a list -> 'a list list
(** All size-[k] subsets of a list, in lexicographic order of positions. *)

val exhaustive :
  ?max_card:int -> Database.t -> Agg_constraint.t list -> Repair.t option
(** Try cell subsets of size 0, 1, 2, … (up to [max_card], default 4); the
    first size admitting a repair is the card-minimal cardinality.
    [None] when no repair exists within the cap.  Exponential — small
    instances only. *)

val is_set_minimal : Database.t -> Agg_constraint.t list -> Repair.t -> bool
(** Whether no proper subset of λ(ρ) suffices to repair the database (the
    set-minimal semantics of the paper's reference [16]).  Card-minimal ⟹
    set-minimal. *)

val greedy :
  ?max_steps:int -> Database.t -> Agg_constraint.t list -> Repair.t option
(** Repeatedly pick the cell appearing in the most violated ground rows and
    set it to the candidate value satisfying the most rows; stop when
    consistent.  [None] on non-convergence within [max_steps].  Fast but
    may change strictly more cells than necessary. *)
