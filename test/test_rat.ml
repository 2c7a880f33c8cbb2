(* Unit and property tests for exact rationals. *)

open Dart_numeric

let rat = Alcotest.testable Rat.pp Rat.equal
let check = Alcotest.check rat
let r = Rat.of_ints

let t name f = Alcotest.test_case name `Quick f

let unit_tests =
  [ t "normalization" (fun () ->
        check "2/4 = 1/2" (r 1 2) (r 2 4);
        check "-2/-4 = 1/2" (r 1 2) (r (-2) (-4));
        check "2/-4 = -1/2" (r (-1) 2) (r 2 (-4)));
    t "den always positive" (fun () ->
        Alcotest.(check int) "sign" 1 (Bigint.sign (Rat.den (r 3 (-7)))));
    t "zero den raises" (fun () ->
        Alcotest.check_raises "raises" Division_by_zero (fun () -> ignore (r 1 0)));
    t "add" (fun () -> check "1/2 + 1/3" (r 5 6) (Rat.add (r 1 2) (r 1 3)));
    t "sub to zero" (fun () -> check "x - x" Rat.zero (Rat.sub (r 5 6) (r 5 6)));
    t "mul" (fun () -> check "2/3 * 3/4" (r 1 2) (Rat.mul (r 2 3) (r 3 4)));
    t "div" (fun () -> check "(1/2) / (1/4)" (r 2 1) (Rat.div (r 1 2) (r 1 4)));
    t "div by zero raises" (fun () ->
        Alcotest.check_raises "raises" Division_by_zero (fun () ->
            ignore (Rat.div Rat.one Rat.zero)));
    t "inv" (fun () -> check "inv(-2/3)" (r (-3) 2) (Rat.inv (r (-2) 3)));
    t "floor/ceil" (fun () ->
        Alcotest.(check string) "floor 7/2" "3" (Bigint.to_string (Rat.floor (r 7 2)));
        Alcotest.(check string) "ceil 7/2" "4" (Bigint.to_string (Rat.ceil (r 7 2)));
        Alcotest.(check string) "floor -7/2" "-4" (Bigint.to_string (Rat.floor (r (-7) 2)));
        Alcotest.(check string) "ceil -7/2" "-3" (Bigint.to_string (Rat.ceil (r (-7) 2))));
    t "floor/ceil on integers" (fun () ->
        Alcotest.(check string) "floor 4" "4" (Bigint.to_string (Rat.floor (r 4 1)));
        Alcotest.(check string) "ceil 4" "4" (Bigint.to_string (Rat.ceil (r 4 1))));
    t "is_integer" (fun () ->
        Alcotest.(check bool) "4/2" true (Rat.is_integer (r 4 2));
        Alcotest.(check bool) "1/2" false (Rat.is_integer (r 1 2)));
    t "of_string fraction" (fun () -> check "3/4" (r 3 4) (Rat.of_string "3/4"));
    t "of_string decimal" (fun () ->
        check "1.5" (r 3 2) (Rat.of_string "1.5");
        check "-0.25" (r (-1) 4) (Rat.of_string "-0.25");
        check "2." (r 2 1) (Rat.of_string "2."));
    t "of_float_dyadic exact halves" (fun () ->
        check "0.5" (r 1 2) (Rat.of_float_dyadic 0.5);
        check "-0.75" (r (-3) 4) (Rat.of_float_dyadic (-0.75));
        check "3.0" (r 3 1) (Rat.of_float_dyadic 3.0));
    t "of_float_dyadic rejects nan" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Rat.of_float_dyadic: not finite")
          (fun () -> ignore (Rat.of_float_dyadic Float.nan)));
    t "compare ordering" (fun () ->
        Alcotest.(check bool) "1/3 < 1/2" true (Rat.compare (r 1 3) (r 1 2) < 0);
        Alcotest.(check bool) "-1/2 < 1/3" true (Rat.compare (r (-1) 2) (r 1 3) < 0));
    t "to_float" (fun () ->
        Alcotest.(check (float 1e-12)) "1/4" 0.25 (Rat.to_float (r 1 4)));
  ]

let gen_small_int = QCheck.Gen.int_range (-10_000) 10_000
let gen_int = Qcheck_util.with_word_boundaries gen_small_int
let gen_rat =
  QCheck.Gen.map
    (fun (n, d) -> r n (if d = 0 then 1 else d))
    (QCheck.Gen.pair gen_int gen_int)

let arb_rat = QCheck.make ~print:Rat.to_string gen_rat
let arb_pair = QCheck.make ~print:(fun (a, b) -> Rat.to_string a ^ ", " ^ Rat.to_string b)
    (QCheck.Gen.pair gen_rat gen_rat)
let arb_triple =
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat ", " [ Rat.to_string a; Rat.to_string b; Rat.to_string c ])
    (QCheck.Gen.triple gen_rat gen_rat gen_rat)

let arb_ints =
  QCheck.make
    ~print:(fun (n, d, k) -> Printf.sprintf "(%d, %d, %d)" n d k)
    (QCheck.Gen.triple gen_int gen_int gen_int)

let prop name arb f = Qcheck_util.to_alcotest (QCheck.Test.make ~long_factor:10 ~count:300 ~name arb f)

let property_tests =
  [ prop "add commutative" arb_pair (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a));
    prop "add associative" arb_triple (fun (a, b, c) ->
        Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)));
    prop "mul distributes over add" arb_triple (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    prop "sub then add round-trips" arb_pair (fun (a, b) ->
        Rat.equal (Rat.add (Rat.sub a b) b) a);
    prop "inv inverse" arb_rat (fun a ->
        QCheck.assume (not (Rat.is_zero a));
        Rat.equal (Rat.mul a (Rat.inv a)) Rat.one);
    prop "floor <= x < floor+1" arb_rat (fun a ->
        let fl = Rat.of_bigint (Rat.floor a) in
        Rat.compare fl a <= 0 && Rat.compare a (Rat.add fl Rat.one) < 0);
    prop "string round-trip" arb_rat (fun a -> Rat.equal (Rat.of_string (Rat.to_string a)) a);
    prop "of_float_dyadic exact" (QCheck.make gen_small_int ~print:string_of_int) (fun n ->
        (* n/2^k floats are exactly representable. *)
        let f = float_of_int n /. 1024.0 in
        Rat.equal (Rat.of_float_dyadic f) (r n 1024));
    prop "compare total order transitivity" arb_triple (fun (a, b, c) ->
        let ab = Rat.compare a b and bc = Rat.compare b c in
        if ab <= 0 && bc <= 0 then Rat.compare a c <= 0 else true);
    prop "add then sub round-trips" arb_pair (fun (a, b) ->
        Rat.equal (Rat.sub (Rat.add a b) b) a);
    prop "mul then div round-trips" arb_pair (fun (a, b) ->
        QCheck.assume (not (Rat.is_zero b));
        Rat.equal (Rat.div (Rat.mul a b) b) a);
    prop "compare agrees with the sign of sub" arb_pair (fun (a, b) ->
        Int.compare (Rat.compare a b) 0 = Rat.sign (Rat.sub a b));
    prop "make normalises" arb_ints (fun (n, d, k) ->
        QCheck.assume (d <> 0 && k <> 0);
        let bi = Bigint.of_int in
        let x = Rat.make (bi n) (bi d) in
        let num = Rat.num x and den = Rat.den x in
        Bigint.sign den = 1
        && Bigint.equal (Bigint.gcd num den) Bigint.one
        && Bigint.equal (Bigint.mul num (bi d)) (Bigint.mul (bi n) den)
        (* a common factor, even one pushing both parts past a word, cancels *)
        && Rat.equal (Rat.make (Bigint.mul (bi n) (bi k)) (Bigint.mul (bi d) (bi k))) x);
  ]

let suite = unit_tests @ property_tests
