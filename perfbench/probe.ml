(* Host-speed probe: a process of its own that runs a fixed amount of
   work each time it reads a line on stdin, and answers with one line:
   the wall time, in ms, that work took on one domain, then on two
   domains at once.

   The work is small bignum arithmetic on freshly allocated arrays of
   30-bit limbs, the allocation pattern of the repair path's exact
   arithmetic.  It churns through the OCaml minor heap, so it slows down
   with the host conditions that slow the program under test: CPU steal,
   a last-level cache or memory bus shared with busy neighbours, a lower
   clock.  The two-domain run also stops both domains at every minor
   collection, so a stolen vCPU stalls the other domain, as it stalls a
   server's main and worker domains: steal slows it several times more
   than the one-domain run, in the same way it slows the server.  The
   probe links no DART code and shares no heap with the processes that
   do the work, so no change to the program can make it faster or
   slower; only the host can. *)

let mask = (1 lsl 30) - 1

let mul a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    for j = 0 to lb - 1 do
      let t = r.(i + j) + (a.(i) * (b.(j) land 0x7FFF)) + !carry in
      r.(i + j) <- t land mask;
      carry := t lsr 30
    done;
    r.(i + lb) <- !carry
  done;
  r

let add a b =
  let n = max (Array.length a) (Array.length b) in
  let get x i = if i < Array.length x then x.(i) else 0 in
  let r = Array.make (n + 1) 0 in
  let c = ref 0 in
  for i = 0 to n - 1 do
    let x = get a i + get b i + !c in
    r.(i) <- x land mask;
    c := x lsr 30
  done;
  r.(n) <- !c;
  r

let rounds = 240

let work () =
  let xs = ref (List.init 64 (fun i -> [| i + 1; (7 * i) + 3; 5 |])) in
  let acc = ref 0 in
  for k = 1 to rounds do
    xs :=
      List.map
        (fun a ->
          let s = add (mul a [| k; 3 |]) a in
          Array.sub s 0 (min 4 (Array.length s)))
        !xs;
    acc := !acc + Array.length (List.hd !xs)
  done;
  Sys.opaque_identity !acc

let now_ms () = Unix.gettimeofday () *. 1000.0

let () =
  ignore (work ());
  try
    while true do
      ignore (input_line stdin);
      let t0 = now_ms () in
      ignore (work ());
      let t1 = now_ms () in
      let other = Domain.spawn work in
      ignore (work ());
      ignore (Domain.join other);
      Printf.printf "%.6f %.6f\n%!" (t1 -. t0) (now_ms () -. t1)
    done
  with End_of_file -> ()
