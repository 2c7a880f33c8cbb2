(** Consistent query answering under the card-minimal repair semantics.

    The paper builds on [Flesca, Furfaro, Parisi, DBPL 2005], where the
    {e consistent answer} to a query on inconsistent data is the answer
    holding in {e every} card-minimal repair.  DART's §5 machinery makes
    the atomic-cell case effectively computable: a cell's value is a
    consistent answer iff every card-minimal repair assigns it the same
    value.

    Implementation: let c* be the card-minimal cardinality of the cell's
    connected component (from the S*(AC) MILP).  Every card-minimal repair
    touches a {e support}: a size-c* set of cells whose freeing makes the
    component feasible (with everything else pinned to its original
    value); conversely every feasible size-c* support induces card-minimal
    repairs.  So the consistent-answer range of a cell is

    {ul
    {- its original value, for every support not containing it, and}
    {- the min/max of the cell over the ground rows with exactly that
       support freed, for supports containing it.}}

    Supports are enumerated (components are small and c* is the number of
    acquisition errors in the component, typically 1–2); each check is a
    delta-free LP/ILP, avoiding the catastrophically weak big-M relaxation
    a direct "optimize z over Σδ ≤ c*" MILP would branch on. *)

open Dart_numeric
open Dart_constraints
open Dart_lp

module M = Milp.Make (Field_rat)

type answer =
  | Certain of Rat.t
      (** every card-minimal repair gives the cell this value *)
  | Range of Rat.t option * Rat.t option
      (** card-minimal repairs disagree; inclusive bounds where finite *)
  | Untouched
      (** the cell occurs in no violated component: repairs never move it *)

let pp_answer fmt = function
  | Certain v -> Format.fprintf fmt "certain %s" (Rat.to_string v)
  | Range (lo, hi) ->
    let s = function Some v -> Rat.to_string v | None -> "unbounded" in
    Format.fprintf fmt "range [%s, %s]" (s lo) (s hi)
  | Untouched -> Format.pp_print_string fmt "untouched"

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0
  else begin
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1
  end

exception Too_many_supports

(* Range accumulator per cell. *)
type acc = {
  mutable lo : Rat.t option;
  mutable hi : Rat.t option;
  mutable lo_unbounded : bool;
  mutable hi_unbounded : bool;
  mutable seen : bool;
}

let fresh_acc () = { lo = None; hi = None; lo_unbounded = false; hi_unbounded = false; seen = false }

let widen acc v =
  acc.seen <- true;
  (match acc.lo with
   | None -> acc.lo <- Some v
   | Some l -> if Rat.compare v l < 0 then acc.lo <- Some v);
  match acc.hi with
  | None -> acc.hi <- Some v
  | Some h -> if Rat.compare v h > 0 then acc.hi <- Some v

let answer_of_acc acc =
  if not acc.seen then invalid_arg "Cqa: no feasible support";
  let lo = if acc.lo_unbounded then None else acc.lo in
  let hi = if acc.hi_unbounded then None else acc.hi in
  match lo, hi with
  | Some l, Some h when Rat.equal l h -> Certain l
  | lo, hi -> Range (lo, hi)

(* Consistent answers for every cell of one *violated* component. *)
let component_answers db comp : (Ground.cell * answer) list =
  let enc = Encode.build db comp in
  let outcome = M.solve ~integral_objective:true enc.Encode.problem in
  let mincard =
    match outcome.M.objective with
    | Some obj when Rat.is_integer obj ->
      (match Dart_numeric.Bigint.to_int_opt (Rat.num obj) with
       | Some n -> n
       | None -> invalid_arg "Cqa: huge optimum")
    | _ -> invalid_arg "Cqa: no repair exists for a violated component"
  in
  let cells = Ground.cells comp in
  if binomial (List.length cells) mincard > 20_000 then raise Too_many_supports;
  let accs = List.map (fun cell -> (cell, fresh_acc ())) cells in
  let acc_of cell = List.assoc cell accs in
  List.iter
    (fun support ->
      (* One feasibility probe per support. *)
      match Baseline.solve_support db comp ~free:support with
      | Baseline.Repairable _ ->
        (* Cells outside the support keep their original value in every
           repair over this support. *)
        List.iter
          (fun cell ->
            if not (List.mem cell support) then
              widen (acc_of cell) (Ground.db_valuation db cell))
          cells;
        (* Cells inside the support: extremize. *)
        List.iter
          (fun cell ->
            let acc = acc_of cell in
            List.iter
              (fun dir ->
                match Baseline.solve_support ~objective:(cell, dir) db comp ~free:support with
                | Baseline.Repairable (Some v, _) -> widen acc v
                | Baseline.Unbounded ->
                  acc.seen <- true;
                  if dir = `Min then acc.lo_unbounded <- true
                  else acc.hi_unbounded <- true
                | Baseline.Repairable (None, _) | Baseline.No_solution -> ())
              [ `Min; `Max ])
          support
      | Baseline.Unbounded | Baseline.No_solution ->
        () (* infeasible support: contributes nothing *))
    (Baseline.subsets mincard cells);
  List.map (fun (cell, acc) -> (cell, answer_of_acc acc)) accs

(** Consistent answers for every cell involved in the constraints, paired
    with the cell.  Cells of satisfied components are reported
    [Untouched]. *)
let all_answers db constraints : (Ground.cell * answer) list =
  let rows = Ground.of_constraints db constraints in
  let valuation = Ground.db_valuation db in
  List.concat_map
    (fun comp ->
      if List.for_all (Ground.row_satisfied valuation) comp then
        List.map (fun cell -> (cell, Untouched)) (Ground.cells comp)
      else component_answers db comp)
    (Solver.components rows)

(** Consistent answer for one cell.

    @raise Invalid_argument if no repair exists for the cell's component
    (consistent answers are only defined when a repair exists).
    @raise Too_many_supports when the support space is too large. *)
let cell_answer db constraints (cell : Ground.cell) : answer =
  let rows = Ground.of_constraints db constraints in
  let comps = Solver.components rows in
  let in_component comp =
    List.exists (fun r -> List.exists (fun (_, c) -> c = cell) r.Ground.terms) comp
  in
  match List.find_opt in_component comps with
  | None -> Untouched
  | Some comp ->
    let valuation = Ground.db_valuation db in
    if List.for_all (Ground.row_satisfied valuation) comp then Untouched
    else List.assoc cell (component_answers db comp)

(** A database is {e reliably readable} at a cell when the consistent
    answer is certain or the cell is untouched by repairs. *)
let reliable db constraints cell =
  match cell_answer db constraints cell with
  | Certain _ | Untouched -> true
  | Range _ -> false
