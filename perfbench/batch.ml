(* repair-batch: in-process, closed loop, one client.

   Each operation is the CLI [repair] command on one freshly generated
   document: Pipeline.acquire -> Pipeline.detect -> Pipeline.repair ->
   Ground.of_constraints + Solver.display_order (and rendering the
   updates, as the CLI prints them).  The traced run makes the same calls
   one layer at a time, each inside a span. *)

open Dart
open Dart_relational
open Dart_constraints
open Dart_repair
open Common

(* The document stream: all four scenarios interleaved at production
   sizes, each document carrying exactly [errors] OCR digit errors in its
   numeric cells (labels clean, so the true database is itself a repair
   of [errors] cells: the card-minimal cardinality is at most that).
   One cheap, four middling and one expensive document per cycle put
   the median inside the middling group and the 90th percentile inside
   the expensive one, rather than on a gap between two groups. *)
let cycle =
  [| (Docs.cash_budget, 3, 1); (Docs.balance_sheet, 2, 2); (Docs.catalog, 0, 1);
     (Docs.balance_sheet, 2, 2); (Docs.catalog, 0, 1); (Docs.quarterly, 1, 1) |]

let doc ~seed idx =
  let n = Array.length cycle in
  let scen, years, errors = cycle.(idx mod n) in
  Docs.exact_errors ~seed ~stream:1 ~idx ~slot:(idx mod n) ~occurrence:(idx / n)
    ~scen ~years ~errors ()

let render_updates db order =
  let b = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer b in
  List.iter (fun u -> Format.fprintf fmt "  %a@." (Update.pp db) u) order;
  Format.pp_print_flush fmt ();
  Buffer.length b

type result = {
  db : Database.t;
  outcome : Solver.result;
  rows : Ground.row list;
  solve_ms : float;
  solve_minor_words : float;
}

(* The calls [Pipeline.acquire] makes, one layer at a time, each inside
   a span. *)
let traced_acquire (sc : Scenario.t) text =
  let html = Spans.with_ "acquire.convert" (fun () -> Convert.to_html Convert.Html text) in
  let ext =
    Spans.with_ "acquire.extract" (fun () ->
        Dart_wrapper.Extractor.extract sc.Scenario.metadata html)
  in
  let gen =
    Spans.with_ "acquire.dbgen" (fun () ->
        Dart_wrapper.Db_gen.generate sc.Scenario.metadata sc.Scenario.mapping
          ext.Dart_wrapper.Extractor.instances
          (Database.create sc.Scenario.schema))
  in
  gen.Dart_wrapper.Db_gen.db

(* One document through the [dart-cli repair] path.  Untraced, it calls
   exactly what the CLI calls; traced, acquisition is split into its
   layers and every layer call runs inside a span. *)
let run ~trace (d : Docs.doc) =
  let span name f = if trace then Spans.with_ name f else f () in
  let sc = d.Docs.scen.Docs.scenario in
  let db =
    if trace then traced_acquire sc d.Docs.html
    else (Pipeline.acquire sc d.Docs.html).Pipeline.db
  in
  if span "constraints.detect" (fun () -> Pipeline.detect sc db) = [] then
    { db; outcome = Solver.Consistent; rows = []; solve_ms = 0.0; solve_minor_words = 0.0 }
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now_ms () in
    let outcome = span "repair.solve" (fun () -> Pipeline.repair sc db) in
    let solve_ms = now_ms () -. t0 in
    let solve_minor_words = Gc.minor_words () -. w0 in
    let rows =
      span "constraints.ground" (fun () -> Ground.of_constraints db sc.Scenario.constraints)
    in
    (match outcome with
     | Solver.Repaired (rho, _, _) ->
       span "repair.display" (fun () ->
           ignore (render_updates db (Solver.display_order rows rho)))
     | _ -> ());
    { db; outcome; rows; solve_ms; solve_minor_words }
  end

(* Check one result and turn it into an operation record. *)
let record ~id ~latency_ms ~counters (d : Docs.doc) r =
  let sc = d.Docs.scen.Docs.scenario in
  let status, detail, card, stats =
    match r.outcome with
    | Solver.Consistent when d.Docs.detectable ->
      ("check_failed", "no violation detected", 0, Solver.empty_stats)
    | Solver.Consistent -> ("ok", "", 0, Solver.empty_stats)
    | Solver.Repaired (rho, prov, stats) ->
      let card = Repair.cardinality rho in
      if not d.Docs.detectable then
        ("check_failed", "repaired a consistent document", card, stats)
      else if prov <> Solver.Exact then
        ("check_failed", "provenance " ^ Solver.provenance_to_string prov, card, stats)
      else if not (Repair.is_repair r.db sc.Scenario.constraints rho) then
        ("check_failed", "not a repair", card, stats)
      else if card < 1 || card > d.Docs.errors then
        ("check_failed",
         Printf.sprintf "cardinality %d outside [1,%d]" card d.Docs.errors,
         card, stats)
      else ("ok", "", card, stats)
    | Solver.No_repair s -> ("check_failed", "no repair", 0, s)
    | Solver.Node_budget_exceeded s -> ("check_failed", "node budget", 0, s)
    | Solver.Cancelled s -> ("error", "cancelled", 0, s)
  in
  let violated_components =
    List.length
      (List.filter (fun c -> c.Solver.cr_status <> "satisfied") stats.Solver.report)
  in
  let cells = List.length (Ground.cells r.rows) in
  { id; kind = "repair"; doc = d.Docs.idx; scen = d.Docs.scen.Docs.sname;
    latency_ms; status; detail;
    det =
      [ ("cardinality", card); ("components", stats.Solver.components);
        ("nodes", stats.Solver.nodes); ("pivots", stats.Solver.simplex_pivots);
        ("ground_rows", List.length r.rows) ];
    layer =
      [ ("solve_ms", Json.Float r.solve_ms);
        ("solve_minor_words", Json.Float r.solve_minor_words);
        ("components", Json.Int stats.Solver.components);
        ("violated_components", Json.Int violated_components);
        ("cells_changed", Json.Int card);
        ("m_retries", Json.Int stats.Solver.m_retries);
        ("nodes", Json.Int stats.Solver.nodes);
        ("pivots", Json.Int stats.Solver.simplex_pivots);
        ("warm_starts", Json.Int stats.Solver.warm_starts);
        ("warm_fallbacks", Json.Int stats.Solver.warm_fallbacks);
        ("ground_rows", Json.Int (List.length r.rows)); ("cells", Json.Int cells) ]
      @ ints counters }

let one ~trace ~id d =
  let c0 = snapshot () in
  let t0 = now_ms () in
  let r = Spans.with_op id "op.repair" (fun () -> run ~trace d) in
  let latency_ms = now_ms () -. t0 in
  let counters = delta c0 (snapshot ()) in
  record ~id ~latency_ms ~counters d r

(* Closed loop for [seconds]; documents are generated and the host-speed
   probe samples between operations, outside the timed region.  Returns
   the operations and the wall time the timed operations spanned. *)
let loop ~trace ~seed ~seconds =
  let ops = ref [] in
  let busy = ref 0.0 in
  let t_end = now_ms () +. (1000.0 *. seconds) in
  let i = ref 0 in
  while now_ms () < t_end do
    let d = doc ~seed !i in
    let o = one ~trace ~id:(!i + 1) d in
    Host.sample ();
    busy := !busy +. o.latency_ms;
    ops := o :: !ops;
    incr i
  done;
  (List.rev !ops, !busy)

(* Re-run the first documents (untimed) and compare every deterministic
   count: the counts must repeat exactly within one build. *)
let replay_check ~seed ops =
  let show det = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) det) in
  List.filter_map
    (fun (o : op) ->
      let again = one ~trace:false ~id:o.id (doc ~seed o.doc) in
      if again.det = o.det then None
      else Some (Printf.sprintf "doc %d: %s, then %s" o.doc (show o.det) (show again.det)))
    (List.filteri (fun i _ -> i < Array.length cycle) ops)
