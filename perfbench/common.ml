(* Helpers shared by the workloads: JSON building, counter snapshots and
   the per-operation record every workload emits. *)

module Obs = Dart_obs.Obs
module Json = Obs.Json

let now_ms = Spans.now_ms

(* Counters the LP / repair / wrapper layers export; read as deltas
   around an operation in the bench process (in-process workloads). *)
let counter_names =
  [ "milp.nodes"; "milp.prune.bound"; "milp.prune.infeasible";
    "milp.prune.unbounded"; "lp.simplex.pivots"; "lp.simplex.warm_starts";
    "lp.simplex.refactorizations"; "lp.simplex.dense_fallbacks";
    "lp.simplex.bland_fallbacks"; "wrapper.cell_repairs";
    "wrapper.rows_matched"; "wrapper.rows_unmatched" ]

let counters = List.map (fun n -> (n, Obs.Metrics.counter n)) counter_names
let snapshot () = List.map (fun (n, c) -> (n, Obs.Metrics.value c)) counters

let delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* One operation's outcome.  [status] is "ok" or the failure class:
   "error", "busy", "shed", "deadline", "check_failed". *)
type op = {
  id : int;              (* per-operation id, shared with its spans *)
  kind : string;
  doc : int;             (* document index within the seeded stream *)
  scen : string;
  latency_ms : float;
  status : string;
  detail : string;       (* why a check failed *)
  det : (string * int) list;     (* deterministic counts, checked for drift *)
  layer : (string * Json.t) list; (* per-layer raw numbers *)
}

let op_json o =
  Json.Obj
    [ ("id", Json.Int o.id); ("kind", Json.Str o.kind); ("doc", Json.Int o.doc);
      ("scen", Json.Str o.scen); ("latency_ms", Json.Float o.latency_ms);
      ("status", Json.Str o.status); ("detail", Json.Str o.detail);
      ("det", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) o.det));
      ("layer", Json.Obj o.layer) ]

let ints l = List.map (fun (k, v) -> (k, Json.Int v)) l

(* Spawn [argv] with stdout/stderr appended to [log]; returns the pid. *)
let spawn ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv null fd fd in
  Unix.close fd;
  Unix.close null;
  pid

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc
