(** The validation interface loop (paper §6.3).

    The repairing module proposes a card-minimal repair; the operator
    examines the suggested updates — displayed most-constraint-involved
    first — comparing each with the source document.  Every decision
    becomes an equality pin on the cell:

    {ul
    {- {e accept}: pin the cell to the suggested value;}
    {- {e override}: pin the cell to the actual source value.}}

    The MILP is re-solved under the accumulated pins until a proposed
    repair is fully accepted.  Cells validated once are never shown again.
    The operator may stop after validating only the first [batch] updates
    of an iteration and ask for a re-computation early. *)

open Dart_numeric
open Dart_relational
open Dart_constraints
module Obs = Dart_obs.Obs

let g_pins = Obs.Metrics.gauge "validation.pins"
let m_iterations = Obs.Metrics.counter "validation.iterations"
let m_examined = Obs.Metrics.counter "validation.examined"
let m_overrides = Obs.Metrics.counter "validation.overrides"

(** One operator decision on a suggested update. *)
type decision =
  | Accept
  | Override of Value.t (** the actual source value the operator reads *)

type operator = cell:Ground.cell -> tuple:Tuple.t -> suggested:Value.t -> decision
(** The operator sees the updated cell, the tuple it belongs to (so a human
    — or an oracle — can locate the corresponding row in the source
    document) and the suggested value. *)

(* Semantic key of a tuple: its relation plus all non-measure attribute
   values.  This is how a human finds the row in the paper document — by
   its labels, not by an internal tuple id — and it keeps the oracle
   correct even when acquisition dropped or reordered rows. *)
let semantic_key schema tu =
  let rel = Tuple.relation tu in
  let rs = Schema.relation schema rel in
  let parts = ref [] in
  Array.iteri
    (fun i v ->
      let attr = Schema.attr_name rs i in
      if not (Schema.is_measure schema ~rel ~attr) then
        parts := (attr, Value.to_string v) :: !parts)
    (Tuple.values tu);
  (rel, List.rev !parts)

(** Oracle operator that reads the ground-truth document: accepts exactly
    the suggestions matching the truth.  Rows are located by their
    non-measure attributes (see {!semantic_key}); an update on a row absent
    from the truth is accepted as-is (the operator has nothing to compare
    against).  This reproduces the intended human workflow for E4. *)
let oracle ~truth : operator =
  let index = Hashtbl.create 64 in
  let schema = Database.schema truth in
  List.iter
    (fun tu -> Hashtbl.replace index (semantic_key schema tu) tu)
    (Database.all_tuples truth);
  fun ~cell:(_, attr) ~tuple ~suggested ->
    match Hashtbl.find_opt index (semantic_key schema tuple) with
    | None -> Accept
    | Some truth_tu ->
      let rs = Schema.relation schema (Tuple.relation truth_tu) in
      let actual = Tuple.value_by_name rs truth_tu attr in
      if Value.equal actual suggested then Accept else Override actual

(** An adversarial-ish operator that mistakenly confirms suggestions with
    probability [error_rate] even when wrong (never used for the headline
    numbers; exercises robustness paths in tests). *)
let noisy_oracle ~truth ~error_rate ~rand : operator =
  let base = oracle ~truth in
  fun ~cell ~tuple ~suggested ->
    match base ~cell ~tuple ~suggested with
    | Accept -> Accept
    | Override v -> if rand () < error_rate then Accept else Override v

type phase = Proposing of Repair.t | Converged of Database.t | Failed of string

type solve = (Ground.cell * Rat.t) list -> Solver.result

(* The loop's state, shared by {!run} and the server's sessions so both
   make the same transitions on the same decisions. *)
type state = {
  db : Database.t;
  rows : Ground.row list;
  batch : int option;
  max_iterations : int;
  mutable pins : (Ground.cell * Rat.t) list;
  mutable validated : Ground.cell list;
  mutable iterations : int;
  mutable examined : int;
  mutable phase : phase;
}

(* §6.3: validated cells are never shown twice. *)
let pending st =
  match st.phase with
  | Proposing rho ->
    let fresh =
      List.filter
        (fun u -> not (List.mem (Update.cell u) st.validated))
        (Solver.display_order st.rows rho)
    in
    (match st.batch with
     | Some b -> List.filteri (fun i _ -> i < b) fresh
     | None -> fresh)
  | Converged _ | Failed _ -> []

(* The accumulated pins as the accepted repair. *)
let apply_pins st =
  Update.apply st.db
    (List.filter_map
       (fun (cell, v) ->
         if Rat.equal (Ground.db_valuation st.db cell) v then None
         else Some (Update.of_rat st.db cell v))
       st.pins)

(* One re-solve under the accumulated pins.  A cancelled re-solve keeps
   the previous proposal (anytime semantics); only a cancelled first
   solve, which has nothing to show, fails. *)
let resolve ~solve st =
  if st.iterations >= st.max_iterations then st.phase <- Failed "max_iterations"
  else
    match solve st.pins with
    | Solver.Consistent -> st.phase <- Converged (apply_pins st)
    | Solver.Repaired (rho, _, _) ->
      (* Degraded (incumbent) proposals are fine here: every suggestion
         still goes through the operator before anything is applied. *)
      st.iterations <- st.iterations + 1;
      st.phase <- Proposing rho;
      (* Every suggestion was validated before: the repair stands. *)
      if pending st = [] then st.phase <- Converged (Update.apply st.db rho)
    | Solver.No_repair _ -> st.phase <- Failed "no_repair"
    | Solver.Node_budget_exceeded _ -> st.phase <- Failed "node_budget_exceeded"
    | Solver.Cancelled _ -> if st.iterations = 0 then st.phase <- Failed "cancelled"

let start ~batch ~max_iterations ~solve db rows =
  let st =
    { db; rows; batch; max_iterations; pins = []; validated = [];
      iterations = 0; examined = 0; phase = Proposing [] }
  in
  resolve ~solve st;
  st

let decide ~solve st decisions =
  match st.phase with
  | Converged _ | Failed _ -> invalid_arg "Validation.decide: no proposal"
  | Proposing rho as proposing ->
    let covered_all = List.length decisions = List.length (pending st) in
    let pin_of (u, d) =
      (Update.cell u,
       Value.to_rat (match d with Accept -> u.Update.new_value | Override v -> v))
    in
    st.examined <- st.examined + List.length decisions;
    st.validated <- List.map (fun (u, _) -> Update.cell u) decisions @ st.validated;
    st.pins <- List.map pin_of decisions @ st.pins;
    if covered_all && st.batch = None && List.for_all (fun (_, d) -> d = Accept) decisions
    then begin
      (* Every suggestion accepted in full view: the proposal stands. *)
      st.phase <- Converged (Update.apply st.db rho);
      `Applied
    end
    else begin
      resolve ~solve st;
      if st.phase == proposing then `Cancelled else `Applied
    end

type outcome = {
  final_db : Database.t;       (** the repaired database after acceptance *)
  iterations : int;            (** repair computations performed *)
  examined : int;              (** updates the operator had to look at *)
  pins : int;                  (** equality constraints accumulated *)
  converged : bool;            (** loop ended with an accepted repair *)
}

(** Run the loop.  [batch] caps how many updates the operator examines per
    iteration (None = all).  [max_iterations] guards non-oracle operators.
    [warm] (default on) re-solves each iteration incrementally via
    {!Solver.Warm}: the pin set only ever grows here, so every iteration
    after the first appends its new pins to the previous MILPs and
    warm-starts from the saved bases instead of re-encoding and re-solving
    cold. *)
let run ?batch ?(max_iterations = 50) ?(warm = true) ?cancel ~operator db
    constraints : outcome =
  let rows = Ground.of_constraints db constraints in
  let warm_state =
    if warm then Some (Solver.Warm.create ~rows db constraints) else None
  in
  let solve ~iteration pins =
    Obs.Metrics.set g_pins (float_of_int (List.length pins));
    Obs.span "validation.resolve"
      ~attrs:[ ("iteration", Obs.Int iteration); ("pins", Obs.Int (List.length pins)) ]
      (fun () ->
        match warm_state with
        | Some w -> Solver.Warm.solve ?cancel w ~forced:pins
        | None -> Solver.card_minimal ~warm:false ~forced:pins ?cancel db constraints)
  in
  let st = start ~batch ~max_iterations ~solve:(solve ~iteration:0) db rows in
  let finish () =
    let final_db, converged =
      match st.phase with Converged d -> (d, true) | _ -> (db, false)
    in
    { final_db; iterations = st.iterations; examined = st.examined;
      pins = List.length st.pins; converged }
  in
  let rec loop () =
    match st.phase with
    | Converged _ | Failed _ -> finish ()
    | Proposing _ ->
      let decisions =
        List.map
          (fun u ->
            ( u,
              operator ~cell:(Update.cell u) ~tuple:(Database.find db u.Update.tid)
                ~suggested:u.Update.new_value ))
          (pending st)
      in
      let n = List.length decisions in
      let any_override =
        List.exists (function _, Override _ -> true | _, Accept -> false) decisions
      in
      Obs.Metrics.incr m_iterations;
      Obs.Metrics.add m_examined n;
      if any_override then Obs.Metrics.incr m_overrides;
      if Obs.enabled () then
        Obs.log Info "validation.iteration"
          ~attrs:
            [ ("iteration", Obs.Int st.iterations);
              ("examined", Obs.Int n);
              ("pins", Obs.Int (List.length st.pins + n));
              ("override", Obs.Bool any_override) ];
      (* A cancelled re-solve leaves nobody to retry it: stop here. *)
      match decide ~solve:(solve ~iteration:st.iterations) st decisions with
      | `Cancelled -> finish ()
      | `Applied -> loop ()
  in
  loop ()
