(** Stateful validation sessions: the paper's §6.3 operator loop, spread
    across requests.

    A session holds one acquired database instance D and a
    {!Dart_repair.Validation.state}, the state machine {!Validation.run}
    drives in process.  [session/next] shows its pending suggestions;
    [session/decide] turns the wire's Accept/Override decisions into a
    {!Validation.decide} round.  A client that decides every pending
    update each round therefore reproduces the in-process loop outcome
    (same final database, same iteration/examined/pin counts).

    Sessions are mutexed (concurrent requests on one session serialize)
    and TTL-evicted by {!Store}, so an operator who walks away does not
    leak pins and database instances. *)

open Dart_relational
open Dart_constraints
open Dart_repair
open Dart
module Obs = Dart_obs.Obs

type t = {
  id : string;
  origin_trace : string;                 (** trace id of the request that
                                             opened the session; links the
                                             session's lifetime back to the
                                             opener's span tree ("" when the
                                             opener was untraced) *)
  warm : Solver.Warm.t;                  (** incremental solver state: pins
                                             only grow across [decide]s, so
                                             every re-solve appends rows and
                                             warm-starts from the last bases *)
  state : Validation.state;
  mutable expires_at_ms : float;
  smu : Mutex.t;
}

let locked s f =
  Mutex.lock s.smu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.smu) f

let pending s = locked s (fun () -> Validation.pending s.state)

(* The session's re-solve under the given pins.  Caller holds the
   session mutex. *)
let solve ~mapper ?cancel ~id warm pins =
  Obs.span "server.session.resolve"
    ~attrs:[ ("session", Obs.Str id); ("pins", Obs.Int (List.length pins)) ]
    (fun () -> Solver.Warm.solve ~mapper ?cancel warm ~forced:pins)

(** Open a session on an acquired instance and compute the first
    proposal. *)
let create ~id ?(origin_trace = "") ~scenario ~db ?(max_nodes = 2_000_000)
    ?(max_iterations = 50) ~mapper ?cancel ~now_ms ~ttl_ms () =
  let rows = Ground.of_constraints db scenario.Scenario.constraints in
  let warm = Solver.Warm.create ~max_nodes ~rows db scenario.Scenario.constraints in
  { id; origin_trace; warm;
    state =
      Validation.start ~batch:None ~max_iterations
        ~solve:(solve ~mapper ?cancel ~id warm) db rows;
    expires_at_ms = now_ms +. ttl_ms; smu = Mutex.create () }

type decide_outcome = (Validation.phase, string) result

(** Apply one round of operator decisions.  Every decision must address a
    currently pending cell, each at most once, and an override must parse
    in the cell's domain; anything else is rejected before the session
    changes.  The round itself is {!Validation.decide}. *)
let decide ~mapper ?cancel s (decisions : Proto.decision_wire list) : decide_outcome =
  locked s @@ fun () ->
  match s.state.Validation.phase with
  | Validation.Converged _ -> Error "session already converged"
  | Validation.Failed why -> Error ("session failed: " ^ why)
  | Validation.Proposing _ ->
    let pending = Validation.pending s.state in
    let find_pending tid attr =
      List.find_opt
        (fun u -> u.Update.tid = tid && u.Update.attr = attr)
        pending
    in
    if decisions = [] then Error "no decisions given"
    else begin
      let cells = List.map (fun d -> (d.Proto.d_tid, d.Proto.d_attr)) decisions in
      if List.length (List.sort_uniq compare cells) <> List.length cells then
        Error "duplicate decisions for one cell"
      else begin
        (* Resolve each wire decision against its pending suggestion,
           rejecting unknown cells and unparseable overrides. *)
        let rec of_wire acc = function
          | [] -> Ok (List.rev acc)
          | d :: rest ->
            (match find_pending d.Proto.d_tid d.Proto.d_attr with
             | None ->
               Error
                 (Printf.sprintf "cell <t%d,%s> is not awaiting validation"
                    d.Proto.d_tid d.Proto.d_attr)
             | Some u ->
               (match d.Proto.d_kind with
                | `Accept -> of_wire ((u, Validation.Accept) :: acc) rest
                | `Override text ->
                  let dom = Update.attr_domain s.state.Validation.db (Update.cell u) in
                  (match Value.parse_opt dom text with
                   | None ->
                     Error
                       (Printf.sprintf "override value %S does not fit domain %s"
                          text (Value.domain_name dom))
                   | Some v -> of_wire ((u, Validation.Override v) :: acc) rest)))
        in
        match of_wire [] decisions with
        | Error _ as e -> e
        | Ok round ->
          ignore
            (Validation.decide ~solve:(solve ~mapper ?cancel ~id:s.id s.warm)
               s.state round);
          Ok s.state.Validation.phase
      end
    end

let touch s ~now_ms ~ttl_ms = s.expires_at_ms <- now_ms +. ttl_ms

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

(** TTL-evicting session store.  Every successful lookup refreshes the
    session's deadline; {!sweep} (called periodically by the server's
    accept loop) drops sessions idle longer than the TTL. *)
module Store = struct
  type session = t

  type t = {
    tbl : (string, session) Hashtbl.t;
    mu : Mutex.t;
    ttl_ms : float;
    max_sessions : int;
    clock_ms : unit -> float;
    mutable next_id : int;
  }

  let create ?(clock_ms = Obs.now_ms) ~ttl_ms ~max_sessions () =
    { tbl = Hashtbl.create 16; mu = Mutex.create (); ttl_ms; max_sessions;
      clock_ms; next_id = 1 }

  let locked st f =
    Mutex.lock st.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

  let ttl_ms st = st.ttl_ms

  let count st = locked st (fun () -> Hashtbl.length st.tbl)

  let fresh_id st =
    locked st (fun () ->
        let n = st.next_id in
        st.next_id <- n + 1;
        Printf.sprintf "s%d" n)

  (** Raise the id counter to at least [n] — used after crash recovery so
      fresh ids never collide with replayed sessions.  Never lowers it. *)
  let set_next_id st n = locked st (fun () -> st.next_id <- max st.next_id n)

  (** Register a freshly created session.  [Error] when the store is at
      [max_sessions] (after evicting anything expired). *)
  let put st s =
    locked st @@ fun () ->
    let now = st.clock_ms () in
    Hashtbl.iter
      (fun id s' -> if s'.expires_at_ms < now then Hashtbl.remove st.tbl id)
      (Hashtbl.copy st.tbl);
    if Hashtbl.length st.tbl >= st.max_sessions then
      Error "session store full"
    else begin
      Hashtbl.replace st.tbl s.id s;
      Ok ()
    end

  (** Look up a live session, refreshing its TTL.  Expired sessions are
      dropped and reported as absent. *)
  let find st id =
    locked st @@ fun () ->
    match Hashtbl.find_opt st.tbl id with
    | None -> None
    | Some s ->
      let now = st.clock_ms () in
      if s.expires_at_ms < now then begin
        Hashtbl.remove st.tbl id;
        None
      end
      else begin
        touch s ~now_ms:now ~ttl_ms:st.ttl_ms;
        Some s
      end

  let close st id =
    locked st @@ fun () ->
    let existed = Hashtbl.mem st.tbl id in
    Hashtbl.remove st.tbl id;
    existed

  (** Evict every expired session; returns [(id, origin_trace)] per
      dropped session so the caller can log which traces lost state. *)
  let sweep st =
    locked st @@ fun () ->
    let now = st.clock_ms () in
    let dead =
      Hashtbl.fold
        (fun id s acc ->
          if s.expires_at_ms < now then (id, s.origin_trace) :: acc else acc)
        st.tbl []
    in
    List.iter (fun (id, _) -> Hashtbl.remove st.tbl id) dead;
    dead
end
