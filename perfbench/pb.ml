(* Load generator: runs one workload for a given seed and duration and
   writes every raw observation (operations, set-up samples, server
   metric expositions, spans) to one JSON file.  run.py builds this
   program, runs it and turns the raw file into the metrics.

     pb.exe --workload W --seed N --seconds S --trace 0|1 --cli CLI --dir D
            --probe PROBE

   PROBE is the host-speed probe (probe.ml), sampled after every set-up
   and between operations; the raw file keeps its samples per phase.

   With --trace 1 the run is split into an untraced and a traced pass
   over the same inputs, so the tracing overhead is measured on paired
   work; per-layer numbers come from the traced pass. *)

open Common

let args = Hashtbl.create 8

let () =
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv))

let arg k =
  match Hashtbl.find_opt args k with
  | Some v -> v
  | None -> failwith ("missing --" ^ k)

let workload = arg "workload"
let seed = int_of_string (arg "seed")
let seconds = float_of_string (arg "seconds")
let trace = arg "trace" = "1"
let cli = arg "cli"
let dir = arg "dir"
let () = Host.start_probe (arg "probe")

let setup_repeats = 21

(* In-process set-up: a fresh CLI process until it has acquired and
   checked a small consistent document (module initialisation, scenario
   construction, dictionaries, first acquisition). *)
let cli_setup () =
  let doc = Filename.concat dir "setup.html" in
  write_file doc
    (Docs.cash_budget.Docs.render
       (Docs.cash_budget.Docs.generate ~years:1 (Dart_rand.Prng.create seed)));
  List.init setup_repeats (fun _ ->
      let t0 = now_ms () in
      let pid =
        spawn ~log:(Filename.concat dir "setup.log")
          [| cli; "check"; "--scenario"; "cash-budget"; doc |]
      in
      (match waitpid_retry pid with
       | Unix.WEXITED 0 -> ()
       | _ -> failwith "dart-cli check failed on the set-up document");
      let ms = now_ms () -. t0 in
      Host.sample ();
      ms)

let server_flags = function
  | "validate-sessions" -> [ "--data-dir"; Filename.concat dir "data" ]
  | _ -> []

(* Server set-up samples: spawn -> first ping answered, then stop. *)
let server_setup () =
  List.init (setup_repeats - 1) (fun _ ->
      Wire.rm_rf (Filename.concat dir "data");
      let s = Wire.start ~cli ~dir ~flags:(server_flags workload) in
      Wire.stop s;
      Host.sample ();
      s.Wire.setup_ms)

let pass_json ~traced ~ops ~elapsed_ms extra =
  Json.Obj
    ([ ("traced", Json.Bool traced); ("ops", Json.List (List.map op_json ops));
       ("elapsed_ms", Json.Float elapsed_ms) ]
     @ extra)

let floats l = Json.List (List.map (fun f -> Json.Float f) l)

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let run_batch () =
  let setup = cli_setup () in
  let setup_probe = Host.take () in
  let pass ~traced secs =
    if traced then Spans.enable ();
    let ops, busy = Batch.loop ~trace:traced ~seed ~seconds:secs in
    (ops, pass_json ~traced ~ops ~elapsed_ms:busy
       [ ("heap_peak_mb", Json.Float (heap_peak_mb ()));
         ("probe_ms", Host.take ()) ])
  in
  let passes, first_ops =
    if trace then
      let ops_a, a = pass ~traced:false (seconds /. 2.0) in
      let _, b = pass ~traced:true (seconds /. 2.0) in
      ([ a; b ], ops_a)
    else
      let ops, a = pass ~traced:false seconds in
      ([ a ], ops)
  in
  Spans.disable ();
  let drift = Batch.replay_check ~seed first_ops in
  ((setup, setup_probe), passes, [], drift, [])

(* One pass against a freshly started server (so an untraced and a
   traced pass start from the same server state): the server's metrics
   exposition before and after, for the per-layer deltas. *)
let wire_pass (traced, secs) pass =
  if traced then Spans.enable ();
  Wire.rm_rf (Filename.concat dir "data");
  let s = Wire.start ~cli ~dir ~flags:(server_flags workload) in
  Fun.protect ~finally:(fun () -> Wire.stop s) (fun () ->
      let m0 = Wire.metrics s in
      let ops, elapsed, extra = pass s secs in
      let probe = Host.take () in
      (* let the ~1 Hz runtime sampler publish the peak heap *)
      Thread.delay 1.2;
      let m1 = Wire.metrics s in
      ( s.Wire.setup_ms,
        pass_json ~traced ~ops ~elapsed_ms:elapsed
          (extra
           @ [ ("probe_ms", probe); ("metrics_before", Json.Str m0);
               ("metrics_after", Json.Str m1) ]) ))

(* A wire workload: set-up samples, then one untraced pass, or an
   untraced and a traced half over the same inputs followed by the
   in-process replay of [replay_docs] through each layer's calls. *)
let run_wire ~pass ~replay_docs facts =
  let setup = server_setup () in
  let setup_probe = Host.take () in
  let plan =
    if trace then [ (false, seconds /. 2.0); (true, seconds /. 2.0) ]
    else [ (false, seconds) ]
  in
  let results = List.map (fun p -> wire_pass p pass) plan in
  let replayed =
    if trace then
      List.mapi (fun i d -> Wire.replay_layers ~id:(1_000_000 + i) d) (replay_docs ())
    else []
  in
  ((setup @ List.map fst results, setup_probe), List.map snd results, replayed, [], facts)

let run_ingest () =
  run_wire
    ~pass:(fun s secs ->
      let events = Wire.ingest_schedule ~seed ~seconds:secs in
      let ops, lags, elapsed = Wire.ingest_pass ~srv:s ~events in
      (ops, elapsed, [ ("lags_ms", floats lags) ]))
    ~replay_docs:(fun () -> List.init 60 (Wire.ingest_doc ~seed))
    [ ("rate_per_s", Json.Float Wire.ingest_rate); ("dup_share", Json.Float Wire.dup_share) ]

let run_sessions () =
  run_wire
    ~pass:(fun s secs ->
      let r, elapsed = Wire.sessions_pass ~srv:s ~seed ~seconds:secs in
      ( r.Wire.ops, elapsed,
        [ ("open_ms", floats r.Wire.open_ms);
          ("rounds_per_session",
           Json.List (List.map (fun n -> Json.Int n) r.Wire.rounds_per_session)) ] ))
    ~replay_docs:(fun () ->
      List.init 24 (fun n -> Wire.session_doc ~seed n))
    [ ("operators", Json.Int 1); ("reupload_share", Json.Float Wire.reupload_share) ]

let () =
  let (setup, setup_probe), passes, replayed, drift, extra =
    Fun.protect ~finally:Host.stop_probe (fun () ->
        match workload with
        | "repair-batch" -> run_batch ()
        | "ingest-detect" -> run_ingest ()
        | "validate-sessions" -> run_sessions ()
        | w -> failwith ("unknown workload " ^ w))
  in
  let facts =
    [ ("workload", Json.Str workload); ("seed", Json.Int seed);
      ("seconds", Json.Float seconds); ("trace", Json.Bool trace);
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("lp_core_default",
       Json.Str (Dart_lp.Simplex.core_to_string (Dart_lp.Simplex.default_core ())));
      ("server_flags",
       Json.Str
         (match workload with
          | "repair-batch" -> "(in-process)"
          | "validate-sessions" -> "serve --addr unix:DIR/s.sock --data-dir DIR/data"
          | _ -> "serve --addr unix:DIR/s.sock")) ]
    @ extra
  in
  let out =
    Json.Obj
      [ ("facts", Json.Obj facts); ("setup_ms", floats setup);
        ("setup_probe_ms", setup_probe);
        ("passes", Json.List passes);
        ("replay", Json.List (List.map op_json replayed));
        ("drift", Json.List (List.map (fun s -> Json.Str s) drift));
        ("spans", Spans.to_json ()) ]
  in
  write_file (Filename.concat dir "raw.json") (Json.to_string out)
