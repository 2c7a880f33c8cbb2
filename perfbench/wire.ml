(* The two wire workloads, against a [dart-cli serve] child process.

   ingest-detect: open loop.  A seeded fixed-rate schedule of stateless
   [detect] requests over two connections; each request is timed from
   the moment it was due, so a stall is charged to every request queued
   behind it.  A seeded share of requests are byte-identical re-uploads
   due 1 ms after the original, on the other connection.

   validate-sessions: closed loop, one operator on one connection,
   running full §6.3 sessions (open -> next -> decide ... until
   converged) with a ground-truth operator.  A seeded share of the
   documents are re-uploads of recent ones. *)

open Dart
open Dart_relational
open Dart_constraints
open Dart_server
open Common

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; sock : string; setup_ms : float }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let addr s = Proto.Unix_sock s.sock

let pings sock =
  try
    Client.with_connection ~timeout_s:5.0 (Proto.Unix_sock sock) (fun c ->
        Client.ping c = Ok ())
  with Unix.Unix_error _ -> false

(* Spawn [cli serve] and time it until the first [ping] is answered. *)
let start ~cli ~dir ~flags =
  let sock = Filename.concat dir "s.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let t0 = now_ms () in
  let pid =
    spawn ~log:(Filename.concat dir "server.log")
      (Array.of_list ([ cli; "serve"; "--addr"; "unix:" ^ sock ] @ flags))
  in
  let rec wait () =
    if pings sock then ()
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "server exited during start-up (see server.log)");
      if now_ms () -. t0 > 60_000.0 then begin
        Unix.kill pid Sys.sigkill;
        ignore (waitpid_retry pid);
        failwith "server did not answer ping within 60 s"
      end;
      (* poll finely: the set-up time is a fraction of a few polls *)
      Thread.delay 0.0002;
      wait ()
    end
  in
  wait ();
  { pid; sock; setup_ms = now_ms () -. t0 }

let stop s =
  (try
     Client.with_connection ~timeout_s:5.0 (addr s) (fun c ->
         ignore (Client.shutdown c))
   with Unix.Unix_error _ -> ());
  let deadline = now_ms () +. 15_000.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now_ms () > deadline ->
      Unix.kill s.pid Sys.sigkill;
      ignore (waitpid_retry s.pid)
    | 0, _ -> Thread.delay 0.01; wait ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let metrics s =
  Client.with_connection ~timeout_s:30.0 (addr s) (fun c ->
      match Client.metrics c with Ok t -> t | Error e -> failwith ("metrics: " ^ e))

(* Failure class of an rpc error message. *)
let classify msg =
  let has p = String.length msg >= String.length p && String.sub msg 0 (String.length p) = p in
  if has "busy" then "busy"
  else if has "overloaded" then "shed"
  else if has "deadline" then "deadline"
  else "error"

(* In-process acquisition + detection: what the wire answer must match,
   and the replay the traced run attributes per layer. *)
let expected_detect (d : Docs.doc) =
  let sc = d.Docs.scen.Docs.scenario in
  let acq = Pipeline.acquire sc d.Docs.html in
  let v = Pipeline.detect sc acq.Pipeline.db in
  (v = [], List.map (fun (k, th) -> (k.Agg_constraint.name, List.length th)) v)

let replay_layers ~id (d : Docs.doc) =
  let sc = d.Docs.scen.Docs.scenario in
  let c0 = snapshot () in
  let t0 = now_ms () in
  Spans.with_op id "op.replay" (fun () ->
      let db = Batch.traced_acquire sc d.Docs.html in
      ignore (Spans.with_ "constraints.detect" (fun () -> Pipeline.detect sc db));
      let rows =
        Spans.with_ "constraints.ground" (fun () ->
            Ground.of_constraints db sc.Scenario.constraints)
      in
      { id; kind = "replay"; doc = d.Docs.idx; scen = d.Docs.scen.Docs.sname;
        latency_ms = now_ms () -. t0; status = "ok"; detail = ""; det = [];
        layer =
          [ ("ground_rows", Json.Int (List.length rows));
            ("cells", Json.Int (List.length (Ground.cells rows))) ]
          @ ints (delta c0 (snapshot ())) })

(* ------------------------------------------------------------------ *)
(* ingest-detect                                                       *)
(* ------------------------------------------------------------------ *)

(* Large multi-year documents (24-36 years), noisy in labels and numbers. *)
let ingest_mix =
  [| (Docs.cash_budget, 36); (Docs.balance_sheet, 27); (Docs.quarterly, 24) |]

(* Requests/s over both connections, 4/s each.  About a fifth of what
   one server domain sustains on these documents (~20 ms of service
   each) on a quiet host: on a 2-vCPU VM whose neighbours take CPU, the
   server's service time has been seen to triple, and a rate near half
   of the quiet capacity then saturates the server and the open loop
   collapses into an ever-growing queue.  Well under the per-client
   token bucket (50/s). *)
let ingest_rate = 8.0
let dup_share = 0.1

type event = {
  due_ms : float;           (* offset from the start of the run *)
  doc : Docs.doc;
  conn : int;
  expected : bool * (string * int) list;
}

let ingest_doc ~seed i =
  let scen, years = ingest_mix.(i mod Array.length ingest_mix) in
  Docs.channel_noisy ~seed ~stream:2 ~idx:i ~scen ~years ~rate:0.04 ()

let ingest_schedule ~seed ~seconds =
  let prng = Dart_rand.Prng.create (seed + 77) in
  let n = int_of_float (ingest_rate *. seconds) in
  let evs = ref [] in
  for i = 0 to n - 1 do
    let doc = ingest_doc ~seed i in
    let expected = expected_detect doc in
    let due_ms = 1000.0 *. float_of_int i /. ingest_rate in
    evs := { due_ms; doc; conn = i mod 2; expected } :: !evs;
    if Dart_rand.Prng.bool prng dup_share then
      evs := { due_ms = due_ms +. 1.0; doc; conn = 1 - (i mod 2); expected } :: !evs
  done;
  List.rev !evs

let detect_check (consistent, viol) body =
  let got_consistent = Proto.member "consistent" body = Some (Json.Bool true) in
  let got =
    match Option.bind (Proto.member "violations" body) Proto.as_list with
    | None -> []
    | Some l ->
      List.map
        (fun v ->
          ( Option.value ~default:"?" (Proto.string_field v "constraint"),
            Option.value ~default:(-1) (Proto.int_field v "groundings") ))
        l
  in
  if got_consistent <> consistent || got <> viol then
    Some
      (Printf.sprintf "detect answer differs: %d violated vs %d recorded"
         (List.length got) (List.length viol))
  else None

(* Results of one open-loop pass: operations and generator lags. *)
let ingest_pass ~srv ~events =
  let ids = Atomic.make 0 in
  let t0 = now_ms () +. 20.0 in
  let conn_run k =
    let mine = List.filter (fun e -> e.conn = k) events in
    let ops = ref [] and lags = ref [] in
    let record e ~id ~latency_ms status detail =
      ops :=
        { id; kind = "detect"; doc = e.doc.Docs.idx; scen = e.doc.Docs.scen.Docs.sname;
          latency_ms; status; detail;
          det = [ ("violated", List.length (snd e.expected)) ]; layer = [] }
        :: !ops
    in
    let send c e =
      let due = t0 +. e.due_ms in
      let now = now_ms () in
      let idle = now <= due in
      if idle then Thread.delay ((due -. now) /. 1000.0);
      (* lateness the generator itself caused; a connection still
         waiting on the previous answer is the system's lateness *)
      if idle then lags := (now_ms () -. due) :: !lags;
      let id = 1 + Atomic.fetch_and_add ids 1 in
      let r =
        Spans.with_op id "op.detect" (fun () ->
            Spans.with_ "wire.detect" (fun () ->
                Client.detect c ~scenario:e.doc.Docs.scen.Docs.sname
                  ~document:e.doc.Docs.html ~format:"html" ()))
      in
      let latency_ms = now_ms () -. due in
      match r with
      | Error msg -> record e ~id ~latency_ms (classify msg) msg
      | Ok body ->
        (match detect_check e.expected body with
         | None -> record e ~id ~latency_ms "ok" ""
         | Some why -> record e ~id ~latency_ms "check_failed" why)
    in
    (try
       Client.with_connection ~timeout_s:60.0 (addr srv) (fun c ->
           List.iter (send c) mine)
     with Unix.Unix_error (err, _, _) ->
       (* every request this connection could not send is refused *)
       let sent = List.length !ops in
       List.iteri
         (fun i e ->
           if i >= sent then
             record e ~id:(1 + Atomic.fetch_and_add ids 1) ~latency_ms:0.0 "refused"
               (Unix.error_message err))
         mine);
    (!ops, !lags)
  in
  let results = Array.make 2 ([], []) in
  let threads =
    List.init 2 (fun k -> Thread.create (fun () -> results.(k) <- conn_run k) ())
  in
  List.iter Thread.join threads;
  let ops = List.concat_map fst (Array.to_list results) in
  let lags = List.concat_map snd (Array.to_list results) in
  (List.sort (fun a b -> compare a.id b.id) ops, lags, now_ms () -. t0)

(* ------------------------------------------------------------------ *)
(* validate-sessions                                                   *)
(* ------------------------------------------------------------------ *)

(* One-year cash budgets with two errors: cheap enough sessions that a
   run of a few tens of seconds makes several hundred rounds, so the
   run-to-run spread of the latency percentiles stays small. *)
let session_scen = Docs.cash_budget
let session_years = 1
let session_errors = 2
let reupload_share = 0.1

(* Session [n]'s document: a unique document, or (seeded share) a
   byte-identical re-upload of the document of one of the last twenty
   sessions.  Re-uploads so have the stream's mix of easy and hard
   documents (a few fixed templates made the share of solve-cache hits,
   and with it the median round, move from seed to seed), and their
   solves are recent enough to be in the server's solve cache.  Returns
   the document, whose index names its first upload. *)
let rec session_doc ~seed n =
  let prng = Docs.prng_for ~seed ~stream:10 n in
  if n > 0 && Dart_rand.Prng.bool prng reupload_share then
    session_doc ~seed (n - 1 - Dart_rand.Prng.int prng (min n 20))
  else
    Docs.exact_errors ~seed ~stream:4 ~idx:n ~slot:0 ~occurrence:n ~scen:session_scen
      ~years:session_years ~errors:session_errors ()

(* The ground-truth operator: locate the suggested cell's row in the
   acquired document by its labels, read the true value from the
   noise-free rendering, accept when the suggestion equals it. *)
let truth_operator (d : Docs.doc) =
  let sc = d.Docs.scen.Docs.scenario in
  let noisy = (Pipeline.acquire sc d.Docs.html).Pipeline.db in
  let truth = (Pipeline.acquire sc d.Docs.truth_html).Pipeline.db in
  let schema = Database.schema truth in
  let index = Hashtbl.create 64 in
  List.iter
    (fun tu -> Hashtbl.replace index (Dart_repair.Validation.semantic_key schema tu) tu)
    (Database.all_tuples truth);
  fun (s : Client.suggestion) ->
    match Database.find noisy s.Client.tid with
    | exception Not_found -> `Accept
    | tu ->
      (match Hashtbl.find_opt index (Dart_repair.Validation.semantic_key schema tu) with
       | None -> `Accept
       | Some t ->
         let rs = Schema.relation schema (Tuple.relation t) in
         let actual = Value.to_string (Tuple.value_by_name rs t s.Client.attr) in
         if actual = s.Client.suggested then `Accept else `Override actual)

(* The converged relations must satisfy every constraint. *)
let final_consistent (d : Docs.doc) body =
  let sc = d.Docs.scen.Docs.scenario in
  match
    List.fold_left
      (fun db (rel, csv) -> Csv.load_into db rel csv)
      (Database.create sc.Scenario.schema)
      (Client.relations_of_json body)
  with
  | exception Invalid_argument _ -> false
  | db ->
    Database.cardinality db > 0
    && List.for_all (fun k -> Agg_constraint.violations db k = []) sc.Scenario.constraints

let suggestions body =
  match Option.bind (Proto.member "updates" body) Proto.as_list with
  | Some us -> List.filter_map Client.suggestion_of_json us
  | None -> []

let status_of body = Option.value ~default:"?" (Proto.string_field body "status")

(* Round counts of the documents' first uploads: a re-upload must take
   the same number of rounds. *)
let expected_rounds book idx rounds =
  let e = Hashtbl.find_opt book idx in
  if e = None then Hashtbl.replace book idx rounds;
  e

(* One full session.  Returns its operations, newest first (one per
   operator round, or one failed "open"), the open-to-first-suggestions
   time and the round count of a session that ran to its end. *)
let run_session c ~ids ~book (d : Docs.doc) =
  let next_id () = 1 + Atomic.fetch_and_add ids 1 in
  let scenario = d.Docs.scen.Docs.sname in
  let decide = truth_operator d in
  let mk id kind latency_ms status detail =
    { id; kind; doc = d.Docs.idx; scen = scenario; latency_ms; status; detail;
      det = []; layer = [] }
  in
  let t0 = now_ms () in
  let open_id = next_id () in
  let opened =
    Spans.with_op open_id "op.open" (fun () ->
        match
          Spans.with_ "wire.session_open" (fun () ->
              Client.session_open c ~scenario ~document:d.Docs.html ~format:"html" ())
        with
        | Error e -> Error e
        | Ok body ->
          let sid = Option.value ~default:"?" (Proto.string_field body "session") in
          if status_of body <> "pending" then Ok (sid, body)
          else
            Result.map (fun b -> (sid, b))
              (Spans.with_ "wire.session_next" (fun () ->
                   Client.session_next c ~session:sid)))
  in
  match opened with
  | Error msg -> ([ mk open_id "open" (now_ms () -. t0) (classify msg) msg ], None, None)
  | Ok (sid, body0) ->
    let open_ms = now_ms () -. t0 in
    let rec round acc body =
      if status_of body <> "pending" || List.length acc >= 100 then (acc, Ok body)
      else begin
        let decisions =
          List.map
            (fun s ->
              { Proto.d_tid = s.Client.tid; d_attr = s.Client.attr; d_kind = decide s })
            (suggestions body)
        in
        let id = next_id () in
        let r0 = now_ms () in
        let r =
          Spans.with_op id "op.round" (fun () ->
              match
                Spans.with_ "wire.session_decide" (fun () ->
                    Client.session_decide c ~session:sid decisions)
              with
              | Ok b when status_of b = "pending" ->
                Spans.with_ "wire.session_next" (fun () ->
                    Client.session_next c ~session:sid)
              | r -> r)
        in
        let lat = now_ms () -. r0 in
        match r with
        | Error msg -> (mk id "round" lat (classify msg) msg :: acc, Error msg)
        | Ok b ->
          (* a round that ends the session returns no suggestions *)
          let kind = if status_of b = "pending" then "round" else "final" in
          round (mk id kind lat "ok" "" :: acc) b
      end
    in
    let acc, final = round [] body0 in
    ignore (Client.session_close c ~session:sid);
    (match final with
     | Error _ -> (acc, Some open_ms, None)
     | Ok final ->
       let rounds = List.length acc in
       let problem =
         if status_of final <> "converged" then Some ("session " ^ status_of final)
         else if not (final_consistent d final) then
           Some "final relations violate a constraint"
         else
           match expected_rounds book d.Docs.idx rounds with
           | Some e when e <> rounds ->
             Some (Printf.sprintf "%d rounds, first upload took %d" rounds e)
           | _ -> None
       in
       (* Session-level checks and the deterministic per-session counts
          ride on the session's last round. *)
       let det = [ ("rounds", rounds) ] in
       let acc =
         match (acc, problem) with
         | last :: rest, Some why ->
           { last with status = "check_failed"; detail = why; det } :: rest
         | last :: rest, None -> { last with det } :: rest
         | [], Some why -> [ { (mk (next_id ()) "round" 0.0 "check_failed" why) with det } ]
         | [], None -> []  (* consistent at open: nothing for the operator *)
       in
       (acc, Some open_ms, Some rounds))

type session_result = {
  ops : op list;        (* one per operator round *)
  open_ms : float list;
  rounds_per_session : int list;
}

(* One operator on one connection, session after session until the
   time is up.  Between two sessions, while the server is idle, the
   host-speed probe takes one sample. *)
let sessions_pass ~srv ~seed ~seconds =
  let ids = Atomic.make 0 in
  let book = Hashtbl.create 8 in
  let t_end = now_ms () +. (1000.0 *. seconds) in
  let ops = ref [] and opens = ref [] and per_session = ref [] in
  let t0 = now_ms () in
  (try
     Client.with_connection ~timeout_s:120.0 (addr srv) (fun c ->
         let n = ref 0 in
         while now_ms () < t_end do
           let acc, open_ms, rounds = run_session c ~ids ~book (session_doc ~seed !n) in
           incr n;
           Host.sample ();
           ops := acc @ !ops;
           Option.iter (fun x -> opens := x :: !opens) open_ms;
           Option.iter (fun x -> per_session := x :: !per_session) rounds
         done)
   with Unix.Unix_error (err, _, _) ->
     ops :=
       { id = 1 + Atomic.fetch_and_add ids 1; kind = "open"; doc = -1; scen = "";
         latency_ms = 0.0; status = "refused";
         detail = Unix.error_message err; det = []; layer = [] }
       :: !ops);
  let elapsed = now_ms () -. t0 in
  ( { ops = List.sort (fun a b -> compare a.id b.id) !ops; open_ms = List.rev !opens;
      rounds_per_session = List.rev !per_session },
    elapsed )
