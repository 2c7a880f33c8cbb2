(* Seeded document generation for the three workloads.

   Every document is a pure function of (workload seed, document index):
   the same seed gives the same byte stream of documents.  The program
   under test only ever sees the rendered document text. *)

open Dart
open Dart_relational
open Dart_constraints
open Dart_datagen
open Dart_rand

type scen = {
  sname : string;
  scenario : Scenario.t;
  relation : string;
  measure : string;
  generate : years:int -> Prng.t -> Database.t;
  render : ?channel:Dart_ocr.Noise.channel -> ?prng:Prng.t -> Database.t -> string;
}

let cash_budget =
  { sname = "cash-budget"; scenario = Budget_scenario.scenario;
    generate = (fun ~years p -> Cash_budget.generate ~years p);
    relation = Cash_budget.relation_name; measure = "Value";
    render =
      (fun ?channel ?prng db -> fst (Doc_render.cash_budget_html ?channel ?prng db)) }

let balance_sheet =
  { sname = "balance-sheet"; scenario = Balance_scenario.scenario;
    generate = (fun ~years p -> Balance_sheet.generate ~years p);
    relation = Balance_sheet.relation_name; measure = "Value";
    render = (fun ?channel ?prng db -> fst (Balance_sheet.to_html ?channel ?prng db)) }

let catalog =
  { sname = "catalog"; scenario = Catalog_scenario.scenario;
    generate = (fun ~years:_ p -> Catalog.generate p);
    relation = Catalog.relation_name; measure = "Amount";
    render = (fun ?channel ?prng db -> Catalog.to_html ?channel ?prng db) }

let quarterly =
  { sname = "quarterly"; scenario = Quarterly_scenario.scenario;
    generate = (fun ~years p -> Quarterly.generate ~years p);
    relation = Quarterly.relation_name; measure = "Value";
    render = (fun ?channel ?prng db -> Quarterly.to_html ?channel ?prng db) }

type doc = {
  idx : int;
  scen : scen;
  html : string;
  errors : int;          (* numeric cells corrupted; -1 for channel noise *)
  detectable : bool;     (* the corrupted database violates a constraint *)
  truth_html : string;   (* the same document rendered without noise *)
}

(* Independent generator per (seed, stream, index). *)
let prng_for ~seed ~stream idx =
  Prng.create ((seed land 0xFFFFF) * 1_000_003 + stream * 65_537 + idx)

(* OCR digit noise on the numeric cells at [positions] (indices into
   the relation's tuples in document order). *)
let corrupt_at scen prng db positions =
  let tuples = Array.of_list (Database.tuples_of db scen.relation) in
  List.fold_left
    (fun db p ->
      let tu = tuples.(p mod Array.length tuples) in
      let rs = Schema.relation (Database.schema db) scen.relation in
      match Tuple.value_by_name rs tu scen.measure with
      | Value.Int v ->
        Database.update_value db (Tuple.id tu) scen.measure
          (Value.Int (Dart_ocr.Noise.corrupt_int prng v))
      | _ -> db)
    db positions

(* A document with exactly [errors] OCR digit errors in numeric cells
   and clean labels.  The corrupted
   positions are stratified: [slot] names one stream of documents of the
   same shape, and its [occurrence]-th document corrupts the next
   [errors] cells of a seeded sequence of permutations of the cells, so
   a run visits every cell position once per pass.  Which cell is wrong
   drives the branch-and-bound effort, so this keeps the mix of easy and
   hard documents the same from seed to seed. *)
let exact_errors ~seed ~stream ~idx ~slot ~occurrence ~scen ~years ~errors () =
  let prng = prng_for ~seed ~stream idx in
  let truth = scen.generate ~years prng in
  let n = List.length (Database.tuples_of truth scen.relation) in
  (* one fresh permutation per pass over the cells, so the cells that go
     wrong together differ from pass to pass *)
  let cell k =
    let perm =
      Prng.shuffle
        (prng_for ~seed ~stream:(1000 + stream) ((slot * 100_003) + (k / n)))
        (Array.init n Fun.id)
    in
    perm.(k mod n)
  in
  let rec distinct acc k =
    if List.length acc = min errors n then List.rev acc
    else
      let p = cell k in
      distinct (if List.mem p acc then acc else p :: acc) (k + 1)
  in
  let positions = distinct [] (occurrence * errors) in
  let corrupted = corrupt_at scen prng truth positions in
  (* OCR confusions can cancel out (4->9 in one cell, 2->7 in another of
     the same sum): such a document is consistent, and detection must
     say so.  Decided on the generated database, before rendering. *)
  let detectable =
    List.exists
      (fun k -> Agg_constraint.violations corrupted k <> [])
      scen.scenario.Scenario.constraints
  in
  { idx; scen; html = scen.render corrupted; errors; detectable;
    truth_html = scen.render truth }

(* A document through the full OCR channel (labels and numbers). *)
let channel_noisy ~seed ~stream ~idx ~scen ~years ~rate () =
  let prng = prng_for ~seed ~stream idx in
  let truth = scen.generate ~years prng in
  let channel =
    { Dart_ocr.Noise.numeric_rate = rate; string_rate = rate; char_rate = 0.12 }
  in
  { idx; scen; html = scen.render ~channel ~prng truth; errors = -1;
    detectable = true; truth_html = scen.render truth }
