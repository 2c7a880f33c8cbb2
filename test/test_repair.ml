(* Tests for the repairing module: the MILP encoding, the card-minimal
   solver, baselines and the validation loop — anchored on the paper's
   running example (Examples 5-8, 10, 11). *)

open Dart_numeric
open Dart_relational
open Dart_constraints
open Dart_repair
open Dart_datagen
open Dart_rand

let t name f = Alcotest.test_case name `Quick f

let find_cell db ~year ~sub =
  let tu =
    List.find
      (fun tu ->
        Tuple.value_by_name Cash_budget.relation_schema tu "Year" = Value.Int year
        && Tuple.value_by_name Cash_budget.relation_schema tu "Subsection" = Value.String sub)
      (Database.tuples_of db Cash_budget.relation_name)
  in
  Tuple.id tu

let update_tests =
  [ t "Example 5: atomic update replaces a value" (fun () ->
        let db = Cash_budget.figure1 () in
        let tid = find_cell db ~year:2003 ~sub:"cash sales" in
        let u = Update.make ~tid ~attr:"Value" ~new_value:(Value.Int 130) in
        Alcotest.(check bool) "valid" true (Update.valid db u);
        let db' = Update.apply db [ u ] in
        let tu = Database.find db' tid in
        Alcotest.(check bool) "130" true
          (Tuple.value_by_name Cash_budget.relation_schema tu "Value" = Value.Int 130));
    t "no-op update is invalid (Definition 2: v' <> v)" (fun () ->
        let db = Cash_budget.figure1 () in
        let tid = find_cell db ~year:2003 ~sub:"cash sales" in
        Alcotest.(check bool) "invalid" false
          (Update.valid db (Update.make ~tid ~attr:"Value" ~new_value:(Value.Int 100))));
    t "non-measure update is invalid" (fun () ->
        let db = Cash_budget.figure1 () in
        let tid = find_cell db ~year:2003 ~sub:"cash sales" in
        Alcotest.(check bool) "invalid" false
          (Update.valid db (Update.make ~tid ~attr:"Year" ~new_value:(Value.Int 2005))));
    t "Definition 3: clashing updates are inconsistent" (fun () ->
        let db = Cash_budget.figure1 () in
        let tid = find_cell db ~year:2003 ~sub:"cash sales" in
        let u1 = Update.make ~tid ~attr:"Value" ~new_value:(Value.Int 1) in
        let u2 = Update.make ~tid ~attr:"Value" ~new_value:(Value.Int 2) in
        Alcotest.(check bool) "inconsistent" false (Update.consistent [ u1; u2 ]);
        Alcotest.check_raises "apply raises"
          (Invalid_argument "Update.apply: not a consistent database update")
          (fun () -> ignore (Update.apply db [ u1; u2 ])));
    t "Example 6: the 250->220 update is a repair" (fun () ->
        let db = Cash_budget.figure3 () in
        let tid = find_cell db ~year:2003 ~sub:"total cash receipts" in
        let rho = [ Update.make ~tid ~attr:"Value" ~new_value:(Value.Int 220) ] in
        Alcotest.(check bool) "is repair" true
          (Repair.is_repair db Cash_budget.constraints rho));
    t "Example 7: the 3-update repair is also a repair, but larger" (fun () ->
        let db = Cash_budget.figure3 () in
        let t1 = find_cell db ~year:2003 ~sub:"cash sales" in
        let t2 = find_cell db ~year:2003 ~sub:"long-term financing" in
        let t3 = find_cell db ~year:2003 ~sub:"total disbursements" in
        let rho' =
          [ Update.make ~tid:t1 ~attr:"Value" ~new_value:(Value.Int 130);
            Update.make ~tid:t2 ~attr:"Value" ~new_value:(Value.Int 70);
            Update.make ~tid:t3 ~attr:"Value" ~new_value:(Value.Int 190) ]
        in
        Alcotest.(check bool) "is repair" true
          (Repair.is_repair db Cash_budget.constraints rho');
        let tid = find_cell db ~year:2003 ~sub:"total cash receipts" in
        let rho = [ Update.make ~tid ~attr:"Value" ~new_value:(Value.Int 220) ] in
        Alcotest.(check bool) "rho < rho'" true (Repair.compare_card rho rho' < 0));
  ]

let encode_tests =
  [ t "Example 11/Figure 4: instance has 20 z, 20 y, 20 delta, 8+60 rows" (fun () ->
        let db = Cash_budget.figure3 () in
        let rows = Ground.of_constraints db Cash_budget.constraints in
        let enc = Encode.build db rows in
        Alcotest.(check int) "N = 20 cells" 20 (Encode.num_cells enc);
        Alcotest.(check int) "60 variables" 60 (Encode.num_vars enc);
        (* 8 ground rows + 20 y-defs + 2*20 big-M rows *)
        Alcotest.(check int) "68 rows" 68 (Encode.num_rows enc));
    t "decode is empty on the solution z = v" (fun () ->
        let db = Cash_budget.figure1 () in
        let rows = Ground.of_constraints db Cash_budget.constraints in
        let enc = Encode.build db rows in
        (* Assignment mapping z_i to originals and everything else to 0. *)
        let module P = Dart_lp.Lp_problem.Make (Dart_lp.Field_rat) in
        let n = P.num_vars enc.Encode.problem in
        let a = Array.make n Rat.zero in
        Array.iteri (fun i zi -> a.(zi) <- enc.Encode.originals.(i)) enc.Encode.z;
        Alcotest.(check int) "no updates" 0 (List.length (Encode.decode db enc a)));
  ]

let solver_tests =
  [ t "Example 11: unique card-minimal repair is 250 -> 220" (fun () ->
        let db = Cash_budget.figure3 () in
        match Solver.card_minimal db Cash_budget.constraints with
        | Solver.Repaired (rho, _, stats) ->
          Alcotest.(check int) "one update" 1 (Repair.cardinality rho);
          let u = List.hd rho in
          let tid = find_cell db ~year:2003 ~sub:"total cash receipts" in
          Alcotest.(check int) "right cell" tid u.Update.tid;
          Alcotest.(check bool) "value 220" true (u.Update.new_value = Value.Int 220);
          Alcotest.(check bool) "components split by year" true (stats.Solver.components >= 1)
        | _ -> Alcotest.fail "expected a repair");
    t "consistent database needs no repair" (fun () ->
        let db = Cash_budget.figure1 () in
        Alcotest.(check bool) "consistent" true
          (Solver.card_minimal db Cash_budget.constraints = Solver.Consistent));
    t "repaired database satisfies AC" (fun () ->
        let db = Cash_budget.figure3 () in
        match Solver.card_minimal db Cash_budget.constraints with
        | Solver.Repaired (rho, _, _) ->
          Alcotest.(check bool) "holds" true
            (Agg_constraint.holds_all (Update.apply db rho) Cash_budget.constraints)
        | _ -> Alcotest.fail "expected a repair");
    t "forced pin changes the proposed repair" (fun () ->
        (* Pin total cash receipts to its acquired value 250: now the
           card-minimal repair must touch other cells instead. *)
        let db = Cash_budget.figure3 () in
        let tid = find_cell db ~year:2003 ~sub:"total cash receipts" in
        match
          Solver.card_minimal ~forced:[ ((tid, "Value"), Rat.of_int 250) ] db
            Cash_budget.constraints
        with
        | Solver.Repaired (rho, _, _) ->
          Alcotest.(check bool) "does not touch the pinned cell" true
            (List.for_all (fun u -> u.Update.tid <> tid) rho);
          Alcotest.(check bool) "still repairs" true
            (Agg_constraint.holds_all (Update.apply db rho) Cash_budget.constraints);
          (* The minimum with the pin is 3 updates: one receipts detail must
             absorb +30 (its row contains only z2, z3 and the pinned z4), and
             the +90 disbursement/net-inflow chain needs either {z8, one
             disbursement detail} or {z9, z1-or-z10}. *)
          Alcotest.(check int) "cardinality 3" 3 (Repair.cardinality rho)
        | _ -> Alcotest.fail "expected a repair");
    t "no-decomposition ablation gives the same repair cardinality" (fun () ->
        let db = Cash_budget.figure3 () in
        let c1 = Solver.card_minimal ~decompose:true db Cash_budget.constraints in
        let c2 = Solver.card_minimal ~decompose:false db Cash_budget.constraints in
        match c1, c2 with
        | Solver.Repaired (r1, _, s1), Solver.Repaired (r2, _, s2) ->
          Alcotest.(check int) "same card" (Repair.cardinality r1) (Repair.cardinality r2);
          Alcotest.(check bool) "decomposed into more components" true
            (s1.Solver.components >= s2.Solver.components)
        | _ -> Alcotest.fail "expected repairs");
    t "two errors in different years -> 2-update repair" (fun () ->
        let prng = Prng.create 7 in
        let truth = Cash_budget.generate ~years:3 prng in
        let corrupted, log = Cash_budget.corrupt ~errors:2 prng truth in
        Alcotest.(check int) "two corruptions" 2 (List.length log);
        match Solver.card_minimal corrupted Cash_budget.constraints with
        | Solver.Repaired (rho, _, _) ->
          Alcotest.(check bool) "at most 2 updates" true (Repair.cardinality rho <= 2);
          Alcotest.(check bool) "repaired holds" true
            (Agg_constraint.holds_all (Update.apply corrupted rho) Cash_budget.constraints)
        | Solver.Consistent ->
          (* Possible if the corruption accidentally preserved consistency. *)
          ()
        | _ -> Alcotest.fail "expected a repair");
    t "solve report covers every component and round-trips as JSON" (fun () ->
        let module Obs = Dart_obs.Obs in
        let prng = Prng.create 11 in
        let truth = Cash_budget.generate ~years:3 prng in
        let corrupted, _log = Cash_budget.corrupt ~errors:3 prng truth in
        match Solver.card_minimal corrupted Cash_budget.constraints with
        | Solver.Repaired (_, _, stats) ->
          Alcotest.(check int) "one report entry per component"
            stats.Solver.components
            (List.length stats.Solver.report);
          (* Proved-optimal components report gap zero, and some solved
             component must carry a non-empty gap timeline. *)
          (match Solver.report_gap stats with
           | Some g -> Alcotest.(check (float 0.0)) "gap zero" 0.0 g
           | None -> Alcotest.fail "no gap on a solved instance");
          Alcotest.(check bool) "a gap timeline is populated" true
            (List.exists
               (fun cr -> cr.Solver.cr_gap_timeline <> [])
               stats.Solver.report);
          Alcotest.(check bool) "phase attribution present" true
            (List.exists
               (fun cr -> cr.Solver.cr_phases <> [])
               stats.Solver.report);
          (* The machine-readable report round-trips and has the schema
             the CLI renderer checks for. *)
          let j = Solver.report_json stats in
          (match Obs.Json.of_string (Obs.Json.to_string j) with
           | Error e -> Alcotest.fail ("report not valid JSON: " ^ e)
           | Ok (Obs.Json.Obj fields) ->
             Alcotest.(check bool) "schema" true
               (List.assoc_opt "schema" fields
                = Some (Obs.Json.Str "dart-solve-report/1"));
             (match List.assoc_opt "components" fields with
              | Some (Obs.Json.List comps) ->
                Alcotest.(check int) "json component entries"
                  stats.Solver.components (List.length comps)
              | _ -> Alcotest.fail "components missing from report json")
           | Ok _ -> Alcotest.fail "report json is not an object")
        | _ -> Alcotest.fail "expected a repair");
  ]

let baseline_tests =
  [ t "exhaustive finds the Example 6 repair" (fun () ->
        let db = Cash_budget.figure3 () in
        match Baseline.exhaustive db Cash_budget.constraints with
        | Some rho ->
          Alcotest.(check int) "card 1" 1 (Repair.cardinality rho);
          Alcotest.(check bool) "is repair" true
            (Repair.is_repair db Cash_budget.constraints rho)
        | None -> Alcotest.fail "expected a repair");
    t "exhaustive returns empty repair on consistent data" (fun () ->
        let db = Cash_budget.figure1 () in
        Alcotest.(check bool) "empty" true (Baseline.exhaustive db Cash_budget.constraints = Some []));
    t "MILP cardinality = exhaustive cardinality on random corruption" (fun () ->
        let prng = Prng.create 11 in
        for seed = 1 to 5 do
          let prng = Prng.create (seed * 13) in
          let truth = Cash_budget.generate ~years:1 prng in
          let corrupted, _ = Cash_budget.corrupt ~errors:1 prng truth in
          match
            ( Solver.card_minimal corrupted Cash_budget.constraints,
              Baseline.exhaustive corrupted Cash_budget.constraints )
          with
          | Solver.Repaired (rho, _, _), Some rho_ex ->
            Alcotest.(check int) "same cardinality" (Repair.cardinality rho_ex)
              (Repair.cardinality rho)
          | Solver.Consistent, Some [] -> ()
          | _ -> Alcotest.fail "solver/baseline disagree on repairability"
        done;
        ignore prng);
    t "greedy repairs the running example (possibly non-minimally)" (fun () ->
        let db = Cash_budget.figure3 () in
        match Baseline.greedy db Cash_budget.constraints with
        | Some rho ->
          Alcotest.(check bool) "is repair" true
            (Repair.is_repair db Cash_budget.constraints rho
             || Repair.cardinality rho = 0)
        | None -> Alcotest.fail "greedy did not converge");
  ]

let validation_tests =
  [ t "oracle accepts the Example 6 repair in one iteration" (fun () ->
        let truth = Cash_budget.figure1 () in
        let db = Cash_budget.figure3 () in
        let operator = Validation.oracle ~truth in
        let outcome = Validation.run ~operator db Cash_budget.constraints in
        Alcotest.(check bool) "converged" true outcome.Validation.converged;
        Alcotest.(check int) "one iteration" 1 outcome.Validation.iterations;
        Alcotest.(check bool) "final equals truth" true
          (Database.equal_contents outcome.Validation.final_db truth));
    t "display order puts most-involved cells first" (fun () ->
        let db = Cash_budget.figure3 () in
        let rows = Ground.of_constraints db Cash_budget.constraints in
        let inv = Solver.involvement rows in
        (* total cash receipts appears in rows of c1 and c2: count 2;
           cash sales only in c1: count 1. *)
        let tcr = (find_cell db ~year:2003 ~sub:"total cash receipts", "Value") in
        let cs = (find_cell db ~year:2003 ~sub:"cash sales", "Value") in
        Alcotest.(check int) "tcr in 2 rows" 2 (Hashtbl.find inv tcr);
        Alcotest.(check int) "cash sales in 1 row" 1 (Hashtbl.find inv cs));
    t "display order is deterministic: ties break on cell identity" (fun () ->
        let db = Cash_budget.figure3 () in
        let rows = Ground.of_constraints db Cash_budget.constraints in
        let mk sub v =
          Update.make ~tid:(find_cell db ~year:2003 ~sub) ~attr:"Value"
            ~new_value:(Value.Int v)
        in
        (* tcr is in 2 ground rows; the others tie at 1 and must come out
           sorted by (tid, attr), independent of input order. *)
        let rho =
          [ mk "cash sales" 130; mk "total cash receipts" 220; mk "receivables" 111 ]
        in
        let ordered = Solver.display_order rows rho in
        (match ordered with
         | first :: _ ->
           Alcotest.(check int) "most involved first"
             (find_cell db ~year:2003 ~sub:"total cash receipts") first.Update.tid
         | [] -> Alcotest.fail "empty ordering");
        let tied = List.tl ordered in
        Alcotest.(check bool) "ties sorted by cell identity" true
          (List.sort compare (List.map Update.cell tied) = List.map Update.cell tied);
        (* Permuting the input must not change the output. *)
        Alcotest.(check bool) "reversed input, same output" true
          (Solver.display_order rows (List.rev rho) = ordered);
        Alcotest.(check bool) "rotated input, same output" true
          (Solver.display_order rows (List.tl rho @ [ List.hd rho ]) = ordered));
    t "involvement is insensitive to ground-row order" (fun () ->
        let db = Cash_budget.figure3 () in
        let rows = Ground.of_constraints db Cash_budget.constraints in
        let inv = Solver.involvement rows in
        let inv' = Solver.involvement (List.rev rows) in
        Alcotest.(check int) "same table size" (Hashtbl.length inv) (Hashtbl.length inv');
        Hashtbl.iter
          (fun cell n ->
            Alcotest.(check (option int)) "same count" (Some n) (Hashtbl.find_opt inv' cell))
          inv);
    t "adversarial corruption converges via overrides" (fun () ->
        (* Corrupt a detail cell; if the MILP's first suggestion is wrong,
           the oracle overrides and the loop must still converge to truth. *)
        let prng = Prng.create 42 in
        let truth = Cash_budget.generate ~years:2 prng in
        let corrupted, log = Cash_budget.corrupt ~errors:3 prng truth in
        Alcotest.(check int) "3 corruptions" 3 (List.length log);
        let operator = Validation.oracle ~truth in
        let outcome = Validation.run ~operator corrupted Cash_budget.constraints in
        Alcotest.(check bool) "converged" true outcome.Validation.converged;
        Alcotest.(check bool) "consistent result" true
          (Agg_constraint.holds_all outcome.Validation.final_db Cash_budget.constraints));
    t "batch=1 validation still converges" (fun () ->
        let truth = Cash_budget.figure1 () in
        let db = Cash_budget.figure3 () in
        let operator = Validation.oracle ~truth in
        let outcome = Validation.run ~batch:1 ~operator db Cash_budget.constraints in
        Alcotest.(check bool) "converged" true outcome.Validation.converged;
        Alcotest.(check bool) "final equals truth" true
          (Database.equal_contents outcome.Validation.final_db truth));
  ]

let robustness_tests =
  [ t "stubborn wrong operator hits the max_iterations guard" (fun () ->
        (* An operator that always overrides with a value that re-breaks the
           system can never converge; the loop must stop at the guard. *)
        let db = Cash_budget.figure3 () in
        let stubborn : Validation.operator =
          let counter = ref 1000 in
          fun ~cell:_ ~tuple:_ ~suggested:_ ->
            incr counter;
            Validation.Override (Value.Int !counter)
        in
        let outcome =
          Validation.run ~max_iterations:5 ~operator:stubborn db Cash_budget.constraints
        in
        Alcotest.(check bool) "not converged" false outcome.Validation.converged;
        Alcotest.(check bool) "stopped at guard" true (outcome.Validation.iterations <= 5));
    t "noisy_oracle with error_rate 0 behaves like the oracle" (fun () ->
        let truth = Cash_budget.figure1 () in
        let db = Cash_budget.figure3 () in
        let operator = Validation.noisy_oracle ~truth ~error_rate:0.0 ~rand:(fun () -> 0.5) in
        let outcome = Validation.run ~operator db Cash_budget.constraints in
        Alcotest.(check bool) "converged" true outcome.Validation.converged;
        Alcotest.(check bool) "recovered" true
          (Database.equal_contents outcome.Validation.final_db truth));
    t "noisy_oracle with error_rate 1 accepts everything (converges, maybe wrong)" (fun () ->
        let truth = Cash_budget.figure1 () in
        let db = Cash_budget.figure3 () in
        let operator = Validation.noisy_oracle ~truth ~error_rate:1.0 ~rand:(fun () -> 0.0) in
        let outcome = Validation.run ~operator db Cash_budget.constraints in
        Alcotest.(check bool) "converged" true outcome.Validation.converged;
        (* Accept-everything means the first proposed repair stands; it is
           the correct one here since the card-minimal repair is unique. *)
        Alcotest.(check bool) "consistent" true
          (Agg_constraint.holds_all outcome.Validation.final_db Cash_budget.constraints));
    t "operator pins survive across iterations (no re-examination)" (fun () ->
        (* Corrupt two cells in one year; with batch=1 the loop must examine
           each cell at most once. *)
        let prng = Prng.create 99 in
        let truth = Cash_budget.generate ~years:1 prng in
        let corrupted, _ = Cash_budget.corrupt ~errors:2 prng truth in
        let examined_cells = ref [] in
        let base = Validation.oracle ~truth in
        let counting : Validation.operator =
          fun ~cell ~tuple ~suggested ->
            Alcotest.(check bool) "cell not re-examined" false
              (List.mem cell !examined_cells);
            examined_cells := cell :: !examined_cells;
            base ~cell ~tuple ~suggested
        in
        let outcome =
          Validation.run ~batch:1 ~operator:counting corrupted Cash_budget.constraints
        in
        Alcotest.(check bool) "converged" true outcome.Validation.converged);
    t "a cancelled re-solve ends the loop unconverged" (fun () ->
        (* Overriding the Example 6 suggestion with its acquired value
           forces a re-solve; firing the token from inside the operator
           cancels exactly that re-solve. *)
        let db = Cash_budget.figure3 () in
        let override_first ~on_first : Validation.operator =
          let first = ref true in
          fun ~cell:(_, attr) ~tuple ~suggested:_ ->
            if !first then begin
              first := false;
              on_first ();
              let rs = Schema.relation (Database.schema db) (Tuple.relation tuple) in
              Validation.Override (Tuple.value_by_name rs tuple attr)
            end
            else Validation.Accept
        in
        let free =
          Validation.run ~operator:(override_first ~on_first:ignore) db
            Cash_budget.constraints
        in
        Alcotest.(check bool) "uncancelled: converges" true free.Validation.converged;
        Alcotest.(check bool) "uncancelled: re-solved" true
          (free.Validation.iterations >= 2);
        let cancel = Dart_resilience.Cancel.create () in
        let outcome =
          Validation.run ~cancel
            ~operator:
              (override_first ~on_first:(fun () -> Dart_resilience.Cancel.cancel cancel))
            db Cash_budget.constraints
        in
        Alcotest.(check bool) "not converged" false outcome.Validation.converged;
        Alcotest.(check int) "one proposal" 1 outcome.Validation.iterations;
        Alcotest.(check int) "examined" 1 outcome.Validation.examined;
        Alcotest.(check int) "pins" 1 outcome.Validation.pins;
        Alcotest.(check bool) "database untouched" true
          (Database.equal_contents outcome.Validation.final_db db));
    t "with batch, a fully accepted round still re-solves" (fun () ->
        (* The operator who asks for a re-computation after each batch
           gets one even when the batch covered (and accepted) the whole
           proposal; without a batch the accepted proposal stands. *)
        let truth = Cash_budget.figure1 () in
        let db = Cash_budget.figure3 () in
        let solves batch =
          let sink, events = Dart_obs.Obs.memory_sink () in
          Dart_obs.Obs.install sink;
          let outcome =
            Fun.protect
              ~finally:(fun () -> Dart_obs.Obs.uninstall sink)
              (fun () ->
                Validation.run ?batch ~operator:(Validation.oracle ~truth) db
                  Cash_budget.constraints)
          in
          Alcotest.(check bool) "converged" true outcome.Validation.converged;
          Alcotest.(check bool) "final equals truth" true
            (Database.equal_contents outcome.Validation.final_db truth);
          List.length
            (List.filter
               (function
                 | Dart_obs.Obs.Span { name = "repair.card_minimal"; _ } -> true
                 | _ -> false)
               (events ()))
        in
        Alcotest.(check int) "no batch: one solve" 1 (solves None);
        Alcotest.(check int) "batch 10: re-solves after the accept" 2
          (solves (Some 10)));
  ]

let semantics_tests =
  [ t "card-minimal repair is set-minimal (Figure 3)" (fun () ->
        let db = Cash_budget.figure3 () in
        match Solver.card_minimal db Cash_budget.constraints with
        | Solver.Repaired (rho, _, _) ->
          Alcotest.(check bool) "set-minimal" true
            (Baseline.is_set_minimal db Cash_budget.constraints rho)
        | _ -> Alcotest.fail "expected repair");
    t "a padded repair is not set-minimal" (fun () ->
        (* Example 7's 3-update repair contains redundancy w.r.t. the
           1-update repair only in cardinality, but is itself set-minimal;
           construct a genuinely padded repair instead: the Example 6 fix
           plus a gratuitous +0-sum rewrite of two detail cells. *)
        let db = Cash_budget.figure3 () in
        let tid sub =
          find_cell db ~year:2003 ~sub
        in
        let padded =
          [ Update.make ~tid:(tid "total cash receipts") ~attr:"Value"
              ~new_value:(Value.Int 220);
            Update.make ~tid:(tid "cash sales") ~attr:"Value" ~new_value:(Value.Int 90);
            Update.make ~tid:(tid "receivables") ~attr:"Value" ~new_value:(Value.Int 130) ]
        in
        Alcotest.(check bool) "is a repair" true
          (Repair.is_repair db Cash_budget.constraints padded);
        Alcotest.(check bool) "not set-minimal" false
          (Baseline.is_set_minimal db Cash_budget.constraints padded));
    t "repairing a repaired database is a no-op" (fun () ->
        let db = Cash_budget.figure3 () in
        match Solver.card_minimal db Cash_budget.constraints with
        | Solver.Repaired (rho, _, _) ->
          let repaired = Update.apply db rho in
          Alcotest.(check bool) "idempotent" true
            (Solver.card_minimal repaired Cash_budget.constraints = Solver.Consistent)
        | _ -> Alcotest.fail "expected repair");
  ]

(* The defining property of steadiness (Definition 6): the *structure* of
   the ground system — which cells occur in which rows, with which
   coefficients — does not change when measure values change. *)
let prop_steady_structure =
  Qcheck_util.to_alcotest
    (QCheck.Test.make ~long_factor:10 ~count:50
       ~name:"steady constraints: grounding structure invariant under measure updates"
       (QCheck.make
          QCheck.Gen.(pair (int_range 1 1_000_000) (int_range (-10_000) 10_000)))
       (fun (seed, newval) ->
         let prng = Prng.create seed in
         let db = Cash_budget.generate ~years:2 prng in
         let rows_before = Ground.of_constraints db Cash_budget.constraints in
         (* Change a random measure cell. *)
         let tuples = Database.tuples_of db Cash_budget.relation_name in
         let victim = List.nth tuples (Prng.int prng (List.length tuples)) in
         let db' =
           Database.update_value db (Tuple.id victim) "Value" (Value.Int newval)
         in
         let rows_after = Ground.of_constraints db' Cash_budget.constraints in
         let structure rows =
           List.map
             (fun (r : Ground.row) ->
               (r.Ground.origin,
                List.map (fun (c, cell) -> (Rat.to_string c, cell)) r.Ground.terms,
                r.Ground.op))
             rows
         in
         structure rows_before = structure rows_after))

(* Property: for random single-error corruptions of generated budgets, the
   MILP repair has cardinality <= 1 (one error is always 1-repairable when
   it breaks anything) and the repaired db satisfies AC. *)
let prop_single_error =
  Qcheck_util.to_alcotest
    (QCheck.Test.make ~long_factor:10 ~count:25 ~name:"single corruption -> card-minimal repair of card <= 1"
       (QCheck.make (QCheck.Gen.int_range 1 10_000))
       (fun seed ->
         let prng = Prng.create seed in
         let truth = Cash_budget.generate ~years:2 prng in
         let corrupted, _ = Cash_budget.corrupt ~errors:1 prng truth in
         match Solver.card_minimal corrupted Cash_budget.constraints with
         | Solver.Consistent -> true
         | Solver.Repaired (rho, _, _) ->
           Repair.cardinality rho <= 1
           && Agg_constraint.holds_all (Update.apply corrupted rho) Cash_budget.constraints
         | _ -> false))

let suite =
  update_tests @ encode_tests @ solver_tests @ baseline_tests @ validation_tests
  @ robustness_tests @ semantics_tests
  @ [ prop_steady_structure; prop_single_error ]
