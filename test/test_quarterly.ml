(* Tests for the two-dimensional quarterly-rollup scenario: the period and
   annual constraint families triangulate single errors to a unique
   card-minimal repair. *)

open Dart
open Dart_relational
open Dart_constraints
open Dart_repair
open Dart_datagen
open Dart_rand

let t name f = Alcotest.test_case name `Quick f

let find_cell db ~year ~period ~item =
  let tu =
    List.find
      (fun tu ->
        Tuple.value_by_name Quarterly.relation_schema tu "Year" = Value.Int year
        && Tuple.value_by_name Quarterly.relation_schema tu "Period" = Value.String period
        && Tuple.value_by_name Quarterly.relation_schema tu "Item" = Value.String item)
      (Database.tuples_of db Quarterly.relation_name)
  in
  Tuple.id tu

let generation_tests =
  [ t "generated statements are consistent" (fun () ->
        List.iter
          (fun years ->
            let prng = Prng.create (years * 11) in
            let db = Quarterly.generate ~years prng in
            Alcotest.(check int) "20 cells per year" (20 * years) (Database.cardinality db);
            Alcotest.(check bool) "consistent" true
              (Agg_constraint.holds_all db Quarterly.constraints))
          [ 1; 3 ]);
    t "constraints are steady" (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool) k.Agg_constraint.name true
              (Steady.is_steady Quarterly.schema k))
          Quarterly.constraints);
    t "ground system: 5 period rows + 4 annual rows per year" (fun () ->
        let prng = Prng.create 2 in
        let db = Quarterly.generate ~years:2 prng in
        let rows = Ground.of_constraints db Quarterly.constraints in
        (* per year: 5 periods + 4 items = 9 rows *)
        Alcotest.(check int) "18 rows" 18 (List.length rows));
    t "each year is one connected component" (fun () ->
        let prng = Prng.create 3 in
        let db = Quarterly.generate ~years:3 prng in
        let rows = Ground.of_constraints db Quarterly.constraints in
        Alcotest.(check int) "3 components" 3 (List.length (Solver.components rows)));
  ]

let triangulation_tests =
  [ t "a detail error violates one period row and one annual row" (fun () ->
        let prng = Prng.create 5 in
        let db = Quarterly.generate ~years:1 prng in
        let tid = find_cell db ~year:2000 ~period:"q2" ~item:"services" in
        let tu = Database.find db tid in
        let v =
          match Tuple.value_by_name Quarterly.relation_schema tu "Value" with
          | Value.Int v -> v
          | _ -> assert false
        in
        let db' = Database.update_value db tid "Value" (Value.Int (v + 37)) in
        let bad =
          List.filter
            (fun r -> not (Ground.row_satisfied (Ground.db_valuation db') r))
            (Ground.of_constraints db' Quarterly.constraints)
        in
        Alcotest.(check int) "two violated rows" 2 (List.length bad));
    t "single error is triangulated to a unique certain repair (CQA)" (fun () ->
        let prng = Prng.create 7 in
        let db = Quarterly.generate ~years:1 prng in
        let tid = find_cell db ~year:2000 ~period:"q3" ~item:"licensing" in
        let tu = Database.find db tid in
        let v =
          match Tuple.value_by_name Quarterly.relation_schema tu "Value" with
          | Value.Int v -> v
          | _ -> assert false
        in
        let db' = Database.update_value db tid "Value" (Value.Int (v + 50)) in
        (* The corrupted cell's consistent answer is certainly the truth. *)
        (match Cqa.cell_answer db' Quarterly.constraints (tid, "Value") with
         | Cqa.Certain r ->
           Alcotest.(check string) "certain = truth" (string_of_int v)
             (Dart_numeric.Rat.to_string r)
         | other -> Alcotest.failf "expected Certain, got %a" Cqa.pp_answer other);
        (* And every other cell is certain at its current value: the whole
           document self-repairs. *)
        List.iter
          (fun (_cell, answer) ->
            match answer with
            | Cqa.Certain _ | Cqa.Untouched -> ()
            | Cqa.Range _ -> Alcotest.failf "cell should be certain")
          (Cqa.all_answers db' Quarterly.constraints));
    t "single-error repair is unique and exact (vs cash budget's ambiguity)" (fun () ->
        (* In the flat cash budget a detail error admits several 1-cell
           repairs; here the two constraint families intersect in one cell. *)
        let prng = Prng.create 9 in
        let db = Quarterly.generate ~years:2 prng in
        let corrupted, log = Quarterly.corrupt ~errors:1 prng db in
        match log, Solver.card_minimal corrupted Quarterly.constraints with
        | [ (tid, v, _) ], Solver.Repaired (rho, _, _) ->
          Alcotest.(check int) "one update" 1 (Repair.cardinality rho);
          let u = List.hd rho in
          Alcotest.(check int) "same cell" tid u.Update.tid;
          Alcotest.(check bool) "restores truth" true (u.Update.new_value = Value.Int v)
        | _, Solver.Consistent -> Alcotest.fail "corruption should violate constraints"
        | _ -> Alcotest.fail "expected a 1-update repair");
    t "phase totals sum to at most the solve's wall clock" (fun () ->
        (* The LP kernels (factor/ftran/btran/price) are timed inside the
           phase1/phase2/dual timers; each phase holds self time, so no
           time is counted twice.  Scoreboard seed, sequential solve. *)
        let prng = Prng.create 2101 in
        let truth = Quarterly.generate ~years:2 prng in
        let corrupted, _ = Quarterly.corrupt ~errors:2 prng truth in
        match Solver.card_minimal corrupted Quarterly.constraints with
        | Solver.Repaired (_, _, s) ->
          let phases_ms =
            List.fold_left
              (fun acc c ->
                List.fold_left
                  (fun acc (_, (_, us)) -> acc +. (us /. 1000.0))
                  acc c.Solver.cr_phases)
              0.0 s.Solver.report
          in
          Alcotest.(check bool) "phase time recorded" true (phases_ms > 0.0);
          Alcotest.(check bool)
            (Printf.sprintf "phases %.3f ms <= solve %.3f ms" phases_ms
               s.Solver.solve_ms)
            true
            (phases_ms <= s.Solver.solve_ms)
        | _ -> Alcotest.fail "expected a repair");
  ]

let pipeline_tests =
  [ t "quarterly pipeline round-trips through HTML" (fun () ->
        let prng = Prng.create 13 in
        let truth = Quarterly.generate ~years:2 prng in
        let acq = Pipeline.acquire Quarterly_scenario.scenario (Quarterly.to_html truth) in
        Alcotest.(check int) "40 inserted" 40
          acq.Pipeline.generation.Dart_wrapper.Db_gen.inserted;
        Alcotest.(check bool) "consistent" true
          (Pipeline.consistent Quarterly_scenario.scenario acq.Pipeline.db);
        Alcotest.(check bool) "equal to truth" true
          (List.for_all2 Tuple.equal_values
             (Database.tuples_of truth Quarterly.relation_name)
             (Database.tuples_of acq.Pipeline.db Quarterly.relation_name)));
    t "quarterly pipeline repairs numeric noise via validation" (fun () ->
        let prng = Prng.create 17 in
        let truth = Quarterly.generate ~years:1 prng in
        let corrupted, _ = Quarterly.corrupt ~errors:2 prng truth in
        let acq =
          Pipeline.acquire Quarterly_scenario.scenario (Quarterly.to_html corrupted)
        in
        let clean =
          Pipeline.acquire Quarterly_scenario.scenario (Quarterly.to_html truth)
        in
        let operator = Validation.oracle ~truth:clean.Pipeline.db in
        let outcome =
          Pipeline.validate Quarterly_scenario.scenario ~operator acq.Pipeline.db
        in
        Alcotest.(check bool) "converged" true outcome.Validation.converged;
        Alcotest.(check bool) "recovered" true
          (List.for_all2 Tuple.equal_values
             (Database.tuples_of clean.Pipeline.db Quarterly.relation_name)
             (Database.tuples_of outcome.Validation.final_db Quarterly.relation_name)));
  ]

(* Property: any single corruption of a quarterly statement has a unique
   1-cell card-minimal repair restoring the truth — the triangulation
   property, for arbitrary seeds. *)
let prop_triangulation =
  Qcheck_util.to_alcotest
    (QCheck.Test.make ~long_factor:10 ~count:30 ~name:"triangulation: single errors always repair to truth"
       (QCheck.make (QCheck.Gen.int_range 1 100_000))
       (fun seed ->
         let prng = Prng.create seed in
         let truth = Quarterly.generate ~years:1 prng in
         let corrupted, log = Quarterly.corrupt ~errors:1 prng truth in
         match log, Solver.card_minimal corrupted Quarterly.constraints with
         | [ (tid, v, _) ], Solver.Repaired (rho, _, _) ->
           (match rho with
            | [ u ] -> u.Update.tid = tid && u.Update.new_value = Value.Int v
            | _ -> false)
         | _, Solver.Consistent -> false (* cannot happen: every cell is constrained twice *)
         | _ -> false))

let suite = generation_tests @ triangulation_tests @ pipeline_tests @ [ prop_triangulation ]
