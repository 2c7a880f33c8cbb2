(* Unit and property tests for signed arbitrary-precision integers. *)

open Dart_numeric

let bigint = Alcotest.testable Bigint.pp Bigint.equal
let check = Alcotest.check bigint
let bi = Bigint.of_int

let t name f = Alcotest.test_case name `Quick f

let unit_tests =
  [ t "negative printing" (fun () ->
        Alcotest.(check string) "str" "-42" (Bigint.to_string (bi (-42))));
    t "of_string signs" (fun () ->
        check "neg" (bi (-7)) (Bigint.of_string "-7");
        check "pos" (bi 7) (Bigint.of_string "+7");
        check "plain" (bi 7) (Bigint.of_string "7"));
    t "min_int does not overflow" (fun () ->
        Alcotest.(check (option int)) "rt" (Some min_int) (Bigint.to_int_opt (bi min_int)));
    t "signs" (fun () ->
        Alcotest.(check int) "neg" (-1) (Bigint.sign (bi (-3)));
        Alcotest.(check int) "zero" 0 (Bigint.sign Bigint.zero);
        Alcotest.(check int) "pos" 1 (Bigint.sign (bi 3)));
    t "add mixed signs" (fun () ->
        check "5 + -8" (bi (-3)) (Bigint.add (bi 5) (bi (-8)));
        check "-5 + 8" (bi 3) (Bigint.add (bi (-5)) (bi 8));
        check "-5 + 5" Bigint.zero (Bigint.add (bi (-5)) (bi 5)));
    t "mul signs" (fun () ->
        check "neg*neg" (bi 6) (Bigint.mul (bi (-2)) (bi (-3)));
        check "neg*pos" (bi (-6)) (Bigint.mul (bi (-2)) (bi 3)));
    t "ediv_rem positive remainder" (fun () ->
        let q, r = Bigint.ediv_rem (bi (-7)) (bi 2) in
        check "q" (bi (-4)) q;
        check "r" (bi 1) r);
    t "ediv_rem negative divisor" (fun () ->
        let q, r = Bigint.ediv_rem (bi 7) (bi (-2)) in
        check "q" (bi (-3)) q;
        check "r" (bi 1) r);
    t "fdiv floors" (fun () ->
        check "-7 fdiv 2" (bi (-4)) (Bigint.fdiv (bi (-7)) (bi 2));
        check "7 fdiv 2" (bi 3) (Bigint.fdiv (bi 7) (bi 2)));
    t "cdiv ceils" (fun () ->
        check "-7 cdiv 2" (bi (-3)) (Bigint.cdiv (bi (-7)) (bi 2));
        check "7 cdiv 2" (bi 4) (Bigint.cdiv (bi 7) (bi 2)));
    t "div_exact" (fun () -> check "6/3" (bi 2) (Bigint.div_exact (bi 6) (bi 3)));
    t "div_exact rejects inexact" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Bigint.div_exact: inexact")
          (fun () -> ignore (Bigint.div_exact (bi 7) (bi 3))));
    t "gcd is non-negative" (fun () ->
        check "gcd" (bi 6) (Bigint.gcd (bi (-48)) (bi 18)));
    t "pow negative base" (fun () ->
        check "(-2)^3" (bi (-8)) (Bigint.pow (bi (-2)) 3);
        check "(-2)^4" (bi 16) (Bigint.pow (bi (-2)) 4));
  ]

let gen_int = Qcheck_util.with_word_boundaries (QCheck.Gen.int_range (-1_000_000) 1_000_000)
let arb_int = QCheck.make gen_int ~print:string_of_int
let arb_pair = QCheck.make ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    (QCheck.Gen.pair gen_int gen_int)

let prop name arb f = Qcheck_util.to_alcotest (QCheck.Test.make ~long_factor:10 ~count:500 ~name arb f)

(* Native-int overflow predicates: where the native operation wraps, the
   exact result lies outside [min_int, max_int]. *)
let add_fits a b = let s = a + b in not ((a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0))
let sub_fits a b = let d = a - b in not ((a >= 0) <> (b >= 0) && (d >= 0) <> (a >= 0))
let mul_fits a b =
  a = 0 || b = 0
  || ((a * b) / b = a && not ((a = -1 && b = min_int) || (b = -1 && a = min_int)))

(* The exact result equals the native one when that does not wrap, and
   does not fit a native int when it does. *)
let matches_int ~fits ~exact ~native =
  if fits then Bigint.equal exact (bi native) else Bigint.to_int_opt exact = None

let property_tests =
  [ prop "add matches int" arb_pair (fun (a, b) ->
        matches_int ~fits:(add_fits a b) ~native:(a + b)
          ~exact:(Bigint.add (bi a) (bi b)));
    prop "sub matches int" arb_pair (fun (a, b) ->
        matches_int ~fits:(sub_fits a b) ~native:(a - b)
          ~exact:(Bigint.sub (bi a) (bi b)));
    prop "mul matches int" arb_pair (fun (a, b) ->
        matches_int ~fits:(mul_fits a b) ~native:(a * b)
          ~exact:(Bigint.mul (bi a) (bi b)));
    prop "ediv_rem law" arb_pair (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = Bigint.ediv_rem (bi a) (bi b) in
        Bigint.equal (bi a) (Bigint.add (Bigint.mul q (bi b)) r)
        && Bigint.sign r >= 0
        && Bigint.compare r (Bigint.abs (bi b)) < 0);
    prop "compare antisymmetric" arb_pair (fun (a, b) ->
        Bigint.compare (bi a) (bi b) = -Bigint.compare (bi b) (bi a));
    prop "compare agrees with the sign of sub" arb_pair (fun (a, b) ->
        Int.compare (Bigint.compare (bi a) (bi b)) 0
        = Bigint.sign (Bigint.sub (bi a) (bi b)));
    prop "string round-trip" arb_int (fun a ->
        Bigint.to_string (bi a) = string_of_int a
        && Bigint.equal (Bigint.of_string (Bigint.to_string (bi a))) (bi a));
    prop "to_int_opt round-trip" arb_int (fun a -> Bigint.to_int_opt (bi a) = Some a);
    prop "neg involutive" arb_int (fun a ->
        Bigint.equal (Bigint.neg (Bigint.neg (bi a))) (bi a));
  ]

let suite = unit_tests @ property_tests
