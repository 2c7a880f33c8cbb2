(** Baseline repair algorithms.

    The paper's related work contrasts the MILP approach with simpler
    strategies; these baselines serve the E5 experiment:

    {ul
    {- {!exhaustive}: enumerate cell subsets by increasing cardinality and
       test each for repairability — exact but exponential; the ground
       truth card-minimality oracle for small instances.}
    {- {!greedy}: repeatedly fix the cell appearing in the most violated
       ground rows to a locally consistent value — fast, but can over-repair
       (strictly larger |λ(ρ)|), which is exactly the gap the MILP closes.}} *)

open Dart_numeric
open Dart_constraints
open Dart_lp

module M = Milp.Make (Field_rat)
module P = Lp_problem.Make (Field_rat)

type support =
  | Repairable of Rat.t option * (Ground.cell * Rat.t) list
  | Unbounded
  | No_solution

(* The delta-free system of a support: the ground rows over every cell,
   with each cell outside [free] pinned to its database value.  Feasible
   iff moving only the cells of [free] repairs [rows]; with an [objective]
   the named cell is also minimized or maximized over that system. *)
let solve_support ?objective db (rows : Ground.row list) ~free =
  let cells = Ground.cells rows in
  let p = P.create () in
  let var_of = Hashtbl.create 16 in
  List.iter
    (fun cell ->
      let v = P.add_var ~integer:(Encode.cell_is_integer db cell) p in
      Hashtbl.add var_of cell v;
      if not (List.mem cell free) then
        P.add_constraint p [ (Rat.one, v) ] Lp_problem.Eq (Ground.db_valuation db cell))
    cells;
  List.iter
    (fun (r : Ground.row) ->
      let terms = List.map (fun (c, cell) -> (c, Hashtbl.find var_of cell)) r.terms in
      P.add_constraint p terms (Encode.relop_of r.op) r.rhs)
    rows;
  (match objective with
   | Some (cell, dir) ->
     P.set_objective ~minimize:(dir = `Min) p [ (Rat.one, Hashtbl.find var_of cell) ]
   | None -> P.set_objective p []);
  let outcome = M.solve ~max_nodes:200_000 p in
  match outcome.M.status, outcome.M.assignment with
  | M.Optimal, Some a ->
    Repairable
      ( outcome.M.objective,
        List.filter_map
          (fun cell ->
            let v = a.(Hashtbl.find var_of cell) in
            if Rat.equal v (Ground.db_valuation db cell) then None else Some (cell, v))
          free )
  | M.Unbounded, _ -> Unbounded
  | _ -> No_solution

let rec subsets k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest -> List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

(** Exhaustive card-minimal repair: try subsets of cells of size 0, 1, 2, …
    until one admits a repair.  [max_card] caps the search (default 4).
    Returns [None] when no repair exists within the cap. *)
let exhaustive ?(max_card = 4) db constraints : Repair.t option =
  let rows = Ground.of_constraints db constraints in
  let cells = Ground.cells rows in
  let rec by_size k =
    if k > max_card || k > List.length cells then None
    else
      let rec try_subsets = function
        | [] -> by_size (k + 1)
        | s :: rest ->
          (match solve_support db rows ~free:s with
           | Repairable (_, cvs) when List.length cvs = k ->
             Some (List.map (fun (cell, v) -> Update.of_rat db cell v) cvs)
           | Repairable _ | Unbounded | No_solution -> try_subsets rest)
      in
      try_subsets (subsets k cells)
  in
  by_size 0

(** Set-minimality check: ρ is set-minimal when no proper subset of its
    touched cells λ(ρ) suffices to repair the database (the other repair
    semantics of the paper's reference [16]).  Every card-minimal repair is
    set-minimal, but not vice versa. *)
let is_set_minimal db constraints (rho : Repair.t) =
  let rows = Ground.of_constraints db constraints in
  Repair.is_repair db constraints rho
  &&
  let cells = Repair.cells rho in
  let n = List.length cells in
  (* Check all subsets of size n-1: if any admits a repair, a proper subset
     suffices and rho is not set-minimal (transitivity makes size n-1
     enough). *)
  List.for_all
    (fun dropped ->
      let subset = List.filter (fun c -> c <> dropped) cells in
      match solve_support db rows ~free:subset with
      | Repairable _ -> false
      | Unbounded | No_solution -> true)
    (if n = 0 then [] else cells)

(** Greedy repair: while some ground row is violated, pick the cell with the
    highest violated-row involvement and re-solve {e only that cell} to
    satisfy as many of its rows as possible; repeat.  Bounded by
    [max_steps]; returns [None] on non-convergence. *)
let greedy ?(max_steps = 100) db constraints : Repair.t option =
  let rows = Ground.of_constraints db constraints in
  (* Current valuation as a mutable overlay on the database. *)
  let overlay = Hashtbl.create 16 in
  let valuation cell =
    match Hashtbl.find_opt overlay cell with
    | Some v -> v
    | None -> Ground.db_valuation db cell
  in
  let violated () = List.filter (fun r -> not (Ground.row_satisfied valuation r)) rows in
  let rec step n =
    match violated () with
    | [] ->
      Some
        (Hashtbl.fold
           (fun cell v acc ->
             if Rat.equal v (Ground.db_valuation db cell) then acc
             else Update.of_rat db cell v :: acc)
           overlay [])
    | bad ->
      if n >= max_steps then None
      else begin
        (* Most-involved cell among violated rows. *)
        let counts = Hashtbl.create 16 in
        List.iter
          (fun (r : Ground.row) ->
            List.iter
              (fun (_, cell) ->
                Hashtbl.replace counts cell
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts cell)))
              r.terms)
          bad;
        let cell, _ =
          Hashtbl.fold
            (fun cell c best ->
              match best with
              | Some (_, bc) when bc >= c -> best
              | _ -> Some (cell, c))
            counts None
          |> Option.get
        in
        (* Candidate values: for each violated row containing the cell, the
           unique value making that row tight given the other cells. *)
        let candidates =
          List.filter_map
            (fun (r : Ground.row) ->
              let coeff =
                List.fold_left
                  (fun acc (c, x) -> if x = cell then Rat.add acc c else acc)
                  Rat.zero r.terms
              in
              if Rat.is_zero coeff then None
              else begin
                let rest =
                  List.fold_left
                    (fun acc (c, x) ->
                      if x = cell then acc else Rat.add acc (Rat.mul c (valuation x)))
                    Rat.zero r.terms
                in
                Some (Rat.div (Rat.sub r.rhs rest) coeff)
              end)
            bad
        in
        match candidates with
        | [] -> None
        | _ ->
          (* Pick the candidate satisfying the most rows overall. *)
          let score v =
            Hashtbl.replace overlay cell v;
            let s = List.length (List.filter (Ground.row_satisfied valuation) rows) in
            s
          in
          let old = Hashtbl.find_opt overlay cell in
          let best =
            List.fold_left
              (fun best v ->
                let s = score v in
                match best with
                | Some (_, bs) when bs >= s -> best
                | _ -> Some (v, s))
              None candidates
          in
          (match old with
           | Some v -> Hashtbl.replace overlay cell v
           | None -> Hashtbl.remove overlay cell);
          (match best with
           | Some (v, _) ->
             (* Integer cells need integral values; round if needed. *)
             let v =
               if Encode.cell_is_integer db cell && not (Rat.is_integer v) then
                 Rat.of_bigint (Rat.floor v)
               else v
             in
             Hashtbl.replace overlay cell v;
             step (n + 1)
           | None -> None)
      end
  in
  step 0
