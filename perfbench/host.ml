(* Client of the host-speed probe (probe.ml), run as a child process.

   [sample] asks the probe for one run of its fixed work and records
   how long the work took.  The workloads sample only while nothing
   else of theirs runs (after each set-up, between two operations or
   sessions), so the probe competes with no work of the program.  run.py
   scales the timings by the probe times; see its header. *)

type t = {
  pid : int;
  to_probe : out_channel;
  from_probe : in_channel;
  mutable samples : (float * float) list;
      (* (one domain, two domains) ms since the last [take], newest first *)
}

let probe : t option ref = ref None

let start_probe exe =
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] r_in w_out Unix.stderr in
  Unix.close r_in;
  Unix.close w_out;
  probe :=
    Some
      { pid; to_probe = Unix.out_channel_of_descr w_in;
        from_probe = Unix.in_channel_of_descr r_out; samples = [] }

(* One probe sample; a no-op until [start_probe]. *)
let sample () =
  Option.iter
    (fun h ->
      output_string h.to_probe "\n";
      flush h.to_probe;
      let s = Scanf.sscanf (input_line h.from_probe) "%f %f" (fun a b -> (a, b)) in
      h.samples <- s :: h.samples)
    !probe

(* Close the probe's stdin so it exits, and wait for it. *)
let stop_probe () =
  Option.iter
    (fun h ->
      close_out_noerr h.to_probe;
      close_in_noerr h.from_probe;
      ignore (Common.waitpid_retry h.pid))
    !probe

(* The samples taken since the last [take], oldest first, as JSON:
   {"one_domain": [ms, ...], "two_domains": [ms, ...]}. *)
let take () =
  let module Json = Dart_obs.Obs.Json in
  let all =
    match !probe with
    | None -> []
    | Some h ->
      let all = List.rev h.samples in
      h.samples <- [];
      all
  in
  let floats f = Json.List (List.map (fun s -> Json.Float (f s)) all) in
  Json.Obj [ ("one_domain", floats fst); ("two_domains", floats snd) ]
