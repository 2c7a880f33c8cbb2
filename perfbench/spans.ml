(* In-memory span recorder for the traced run.

   A span is recorded by the benchmark around one call into a library's
   public function: name, start, end, parent span and the operation
   (document / request / operator round) it belongs to.  Nothing is
   written until [to_json] at the end of the run, so recording costs two
   clock reads and one allocation.  Parents are tracked per thread, so
   the ingest workload's connection threads nest their spans independently. *)

module Obs = Dart_obs.Obs
module Json = Obs.Json

(* Milliseconds since the process started: small enough that the JSON
   rendering keeps microseconds. *)
let t_base = Unix.gettimeofday ()
let now_ms () = (Unix.gettimeofday () -. t_base) *. 1000.0

type span = {
  op : int;
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  t0 : float;    (* ms *)
  t1 : float;
}

let on = ref false
let mu = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 1
(* thread id -> (current op, stack of open span ids) *)
let stacks : (int, int * int list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let enable () = on := true
let disable () = on := false

(* Run [f] as a child of the calling thread's innermost open span. *)
let with_ name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let op, parent, id =
      locked (fun () ->
          let op, stack =
            Option.value ~default:(0, []) (Hashtbl.find_opt stacks tid)
          in
          let id = !next_id in
          incr next_id;
          Hashtbl.replace stacks tid (op, id :: stack);
          (op, (match stack with p :: _ -> p | [] -> 0), id))
    in
    let t0 = now_ms () in
    let finish () =
      let t1 = now_ms () in
      locked (fun () ->
          (match Hashtbl.find_opt stacks tid with
           | Some (o, _ :: rest) -> Hashtbl.replace stacks tid (o, rest)
           | _ -> ());
          recorded := { op; id; parent; name; t0; t1 } :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

(* Run [f] as the root span of operation [op] on the calling thread. *)
let with_op op name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    locked (fun () -> Hashtbl.replace stacks tid (op, []));
    Fun.protect
      ~finally:(fun () -> locked (fun () -> Hashtbl.remove stacks tid))
      (fun () -> with_ name f)
  end

(* [[op, id, parent, name, t0_ms, t1_ms], ...] in start order. *)
let to_json () =
  let all = locked (fun () -> List.rev !recorded) in
  let all = List.stable_sort (fun a b -> compare a.t0 b.t0) all in
  Json.List
    (List.map
       (fun s ->
         Json.List
           [ Json.Int s.op; Json.Int s.id; Json.Int s.parent; Json.Str s.name;
             Json.Float s.t0; Json.Float s.t1 ])
       all)
