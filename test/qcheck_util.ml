(** Deterministic QCheck → Alcotest bridge.

    [QCheck_alcotest.to_alcotest] defaults to a self-initialised random
    state, so a property failure seen in CI could not be replayed locally.
    Every property test in this suite goes through {!to_alcotest} instead:

    - generation is seeded with a fixed default, overridable with
      [QCHECK_SEED=<int>] (so a CI failure is reproduced by exporting the
      seed the failing run printed);
    - on failure the seed in effect is printed to stderr next to
      QCheck's own counterexample report;
    - [DART_QCHECK_LONG=1] switches QCheck to long mode, multiplying each
      test's iteration count by its [~long_factor] (the nightly-style CI
      job uses this). *)

let default_seed = 421_874_337

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None ->
      Printf.eprintf "[qcheck] ignoring unparsable QCHECK_SEED=%S\n%!" s;
      default_seed)
  | None -> default_seed

let long =
  match Sys.getenv_opt "DART_QCHECK_LONG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~long ~rand:(Random.State.make [| seed |]) test
  in
  let run' arg =
    try run arg
    with e ->
      Printf.eprintf "[qcheck] seed=%d (set QCHECK_SEED=%d to reproduce)\n%!"
        seed seed;
      raise e
  in
  (name, speed, run')

(** Native-int values at the word boundaries an immediate-int fast path
    has to get right: around 2^30 (the 31-bit boundary), around 2^31
    (pairwise products land on either side of 2^62: (2^31-1)(2^31+1) is
    [max_int], 2^31 * 2^31 is one past it), 2^61, and [max_int]/[min_int]
    themselves. *)
let word_boundary_ints =
  let p30 = 1 lsl 30 and p31 = 1 lsl 31 and p61 = 1 lsl 61 in
  [ p30 - 1; p30; p30 + 1; -p30 - 1; -p30; -p30 + 1;
    p31 - 1; p31; p31 + 1; -p31 - 1; -p31; -p31 + 1;
    p61 - 1; p61; p61 + 1; -p61 - 1; -p61; -p61 + 1;
    max_int; max_int - 1; min_int; min_int + 1; max_int / 2; min_int / 2 ]

(** [gen] most of the time, a {!word_boundary_ints} value otherwise. *)
let with_word_boundaries gen =
  QCheck.Gen.frequency [ (3, gen); (1, QCheck.Gen.oneofl word_boundary_ints) ]
