(** Simplex over an arbitrary ordered field, with warm restarts.

    The solver is a {b sparse} revised simplex: constraint columns live in
    a {!Sparse_mat} (CSC), the basis is factorized as LU in product form
    by {!Basis_lu} (an eta file with Markowitz-style pivot selection,
    refactorized every K update etas or when the residual ‖B·x_B − b‖
    drifts), pricing is devex over partial-pricing column blocks with an
    automatic fallback to Bland's rule once a stall/cycling heuristic
    trips (so anti-cycling stays guaranteed), and each iteration costs
    O(nnz) instead of O(m·n).  It is field-generic (pluggable
    float/rational field), polls a cancellation token, warm-starts from
    snapshots with a bounded dual-simplex repair phase for appended
    [<=]/[>=] rows, and attributes wall-clock time per phase.  Any
    structural mismatch between a snapshot and the problem silently falls
    back to a cold solve — a stale snapshot can cost time but never
    correctness.

    The {b dense} core — the classic two-phase full-tableau method with
    Bland's anti-cycling rule — is kept as a cold reference solver
    ([~core:Dense], for differential tests and the core bench) and as the
    sparse core's numerical fallback when the factorization signals
    trouble (singular, or an irreducible residual under an inexact
    field).  A dense solve always runs cold and captures no snapshot. *)

module Obs = Dart_obs.Obs
module Cancel = Dart_resilience.Cancel

(** Which simplex engine to run: the sparse revised core, or the dense
    tableau reference. *)
type core = Dense | Sparse

let core_to_string = function
  | Dense -> "dense"
  | Sparse -> "sparse"

(** The core every solve runs unless a caller asks for the reference. *)
let default_core () = Sparse

(** Sparse-core policy knobs, shared across all field instantiations.
    Mutable so tests and ablations can pin behaviours (e.g. a negative
    [drift_tol] forces a refactorization at every drift check; a zero
    [stall_threshold] trips the Bland fallback on the first degenerate
    pivot). *)
type tuning = {
  mutable refactor_every : int;
      (** refactorize after this many product-form update etas *)
  mutable drift_check_every : int;
      (** iterations between ‖B·x_B − b‖ residual checks *)
  mutable drift_tol : float;
      (** relative residual above which a drift check refactorizes *)
  mutable stall_threshold : int;
      (** consecutive degenerate pivots before devex falls back to Bland *)
  mutable partial_block : int;
      (** column-block width for partial pricing *)
}

let tuning =
  { refactor_every = 64; drift_check_every = 16; drift_tol = 1e-6;
    stall_threshold = 20; partial_block = 128 }

(* Residual (relative) beyond which a *fresh* factorization is declared
   numerically hopeless and the solve falls back to the dense core. *)
let trouble_tol = 1e-3

module Make (F : Field.S) = struct
  module P = Lp_problem.Make (F)
  module Lu = Basis_lu.Make (F)

  type result =
    | Optimal of { objective : F.t; assignment : F.t array }
    | Infeasible
    | Unbounded

  (** Effort counters for one [solve] call (satellite of the dart_obs PR:
      solver work must be measurable, not silent).  [phases] attributes the
      wall-clock time of the same call across the outer phases ["phase1"],
      ["phase2"], ["dual"] and ["snapshot"], and — on the sparse core —
      the inner kernels ["factor"], ["ftran"], ["btran"] and ["price"], so
      a profile can say not just how many pivots were spent but {e where}
      the microseconds went. *)
  type stats = {
    mutable pivots : int;         (** total pivot operations, all phases *)
    mutable phase1_pivots : int;  (** pivots spent reaching feasibility *)
    mutable phase2_pivots : int;  (** pivots spent optimizing *)
    mutable dual_pivots : int;    (** pivots spent repairing primal
                                      feasibility after a warm restart *)
    mutable refactorizations : int; (** sparse-core basis refactorizations *)
    mutable bland_fallbacks : int;  (** devex→Bland anti-cycling trips *)
    mutable eta_peak : int;         (** peak eta-file length (sparse) *)
    mutable factor_nnz : int;       (** off-pivot nnz of the last
                                        refactorization (fill-in gauge) *)
    phases : Obs.Phases.t;        (** per-phase wall-clock attribution *)
  }

  let fresh_stats () =
    { pivots = 0; phase1_pivots = 0; phase2_pivots = 0; dual_pivots = 0;
      refactorizations = 0; bland_fallbacks = 0; eta_peak = 0; factor_nnz = 0;
      phases = Obs.Phases.create () }

  let phase_phase1 = "phase1"
  let phase_phase2 = "phase2"
  let phase_dual = "dual"
  let phase_snapshot = "snapshot"
  let phase_factor = "factor"
  let phase_ftran = "ftran"
  let phase_btran = "btran"
  let phase_price = "price"

  let m_solves = Obs.Metrics.counter "lp.simplex.solves"
  let m_pivots = Obs.Metrics.counter "lp.simplex.pivots"
  let m_warm_starts = Obs.Metrics.counter "lp.simplex.warm_starts"
  let m_dual_pivots = Obs.Metrics.counter "lp.simplex.dual_pivots"
  let m_refactorizations = Obs.Metrics.counter "lp.simplex.refactorizations"
  let m_bland_fallbacks = Obs.Metrics.counter "lp.simplex.bland_fallbacks"
  let m_dense_fallbacks = Obs.Metrics.counter "lp.simplex.dense_fallbacks"

  (* Phase-time histograms (milliseconds, one observation per solve that
     ran the phase).  These flow through [Obs.Metrics.snapshot] and the
     Prometheus exposition unchanged, so the server's existing stats
     endpoints pick them up without new plumbing. *)
  let h_phase1_ms = Obs.Metrics.histogram "lp.simplex.phase1_ms"
  let h_phase2_ms = Obs.Metrics.histogram "lp.simplex.phase2_ms"
  let h_dual_ms = Obs.Metrics.histogram "lp.simplex.dual_ms"
  let h_snapshot_ms = Obs.Metrics.histogram "lp.simplex.snapshot_ms"
  let h_factor_ms = Obs.Metrics.histogram "lp.simplex.factor_ms"
  let h_ftran_ms = Obs.Metrics.histogram "lp.simplex.ftran_ms"
  let h_btran_ms = Obs.Metrics.histogram "lp.simplex.btran_ms"
  let h_price_ms = Obs.Metrics.histogram "lp.simplex.price_ms"
  let h_eta_len = Obs.Metrics.histogram "lp.simplex.eta_len"

  let observe_phase_histograms (st : stats) =
    List.iter
      (fun (name, h) ->
        if Obs.Phases.count st.phases name > 0 then
          Obs.Metrics.observe h (Obs.Phases.total_us st.phases name /. 1000.0))
      [ (phase_phase1, h_phase1_ms); (phase_phase2, h_phase2_ms);
        (phase_dual, h_dual_ms); (phase_snapshot, h_snapshot_ms);
        (phase_factor, h_factor_ms); (phase_ftran, h_ftran_ms);
        (phase_btran, h_btran_ms); (phase_price, h_price_ms) ];
    if st.eta_peak > 0 then Obs.Metrics.observe h_eta_len (float_of_int st.eta_peak)

  (* How an original variable is represented over the non-negative standard
     variables. *)
  type encoding =
    | Shifted of int * F.t        (* x = u + lo *)
    | Reflected of int * F.t      (* x = hi - u *)
    | Split of int * int          (* x = u_pos - u_neg *)

  type tableau = {
    mutable rows : F.t array array; (* m rows, each of length ncols + 1 (rhs last) *)
    mutable basis : int array;      (* basic variable of each row *)
    obj : F.t array;                (* reduced-cost row, length ncols + 1 *)
    ncols : int;
    is_artificial : bool array;     (* per-column artificial flag; artificials
                                       never (re-)enter the basis in phase 2
                                       or in the dual phase *)
  }

  (** Final state of a sparse solve: the basis header plus the captured
      basic values and reduced costs (enough to check the warm-start
      invariants without refactorizing; the warm path refactorizes and
      recomputes both exactly anyway). *)
  type sparse_state = {
    z_basis : int array;          (* row slot -> basic column *)
    z_nstd : int;
    z_ncols : int;                (* full extended width (= |z_dj|) *)
    z_base : int;                 (* problem rows covered by the spec prefix *)
    z_ncols0 : int;               (* width before appended-row slacks *)
    z_is_artificial : bool array;
    z_xb : F.t array;             (* basic values by row slot *)
    z_dj : F.t array;             (* reduced costs at capture *)
  }

  (** The final state of an optimal solve, sufficient to warm-start a
      re-solve of the same problem extended by appended inequality rows.
      Everything needed to validate compatibility is carried along
      ([s_lowers]/[s_uppers]/[s_objective]/[s_constrs]) so a mismatched
      snapshot is detected, never trusted. *)
  type snapshot = {
    s_nvars : int;
    s_lowers : F.t option array;
    s_uppers : F.t option array;
    s_minimize : bool;
    s_objective : (F.t * int) list;
    s_constrs : P.constr array;       (* problem rows covered by the basis *)
    s_encodings : encoding array;
    s_state : sparse_state;
  }

  let snapshot_rows (s : snapshot) = Array.length s.s_state.z_basis

  (* ------------------------------------------------------------------ *)
  (* Dense tableau machinery                                             *)
  (* ------------------------------------------------------------------ *)

  let pivot t ~row ~col =
    let r = t.rows.(row) in
    let piv = r.(col) in
    let n = t.ncols in
    for j = 0 to n do
      if not (F.is_zero r.(j)) then r.(j) <- F.div r.(j) piv
    done;
    r.(col) <- F.one;
    let eliminate (other : F.t array) =
      let factor = other.(col) in
      if not (F.is_zero factor) then begin
        for j = 0 to n do
          if not (F.is_zero r.(j)) then other.(j) <- F.sub other.(j) (F.mul factor r.(j))
        done;
        other.(col) <- F.zero
      end
    in
    Array.iteri (fun i other -> if i <> row then eliminate other) t.rows;
    eliminate t.obj;
    t.basis.(row) <- col

  (* Bland's rule: entering = lowest-index column with negative reduced cost
     (artificials are never allowed to re-enter once phase 1 is done). *)
  let entering_column t ~allow_artificial =
    let rec go j =
      if j >= t.ncols then None
      else if (allow_artificial || not t.is_artificial.(j))
              && F.compare t.obj.(j) F.zero < 0 then Some j
      else go (j + 1)
    in
    go 0

  let leaving_row t ~col =
    let m = Array.length t.rows in
    let best = ref None in
    for i = 0 to m - 1 do
      let a = t.rows.(i).(col) in
      if F.compare a F.zero > 0 then begin
        let ratio = F.div t.rows.(i).(t.ncols) a in
        match !best with
        | None -> best := Some (i, ratio)
        | Some (bi, bratio) ->
          let c = F.compare ratio bratio in
          (* Tie-break on the basic variable index (Bland). *)
          if c < 0 || (c = 0 && t.basis.(i) < t.basis.(bi)) then best := Some (i, ratio)
      end
    done;
    Option.map fst !best

  type iterate_outcome = Finished | Unbounded_direction

  (* Cancellation is polled every 64 pivots: cheap enough to be free on
     the small LPs, frequent enough that a deadline aborts a pathological
     tableau within milliseconds. *)
  (* Poll every 16 pivots: at large sizes one dense pivot is O(m*n) work,
     so a coarser mask lets a cancelled solve overshoot its deadline by
     whole seconds; the check itself is a few loads. *)
  let cancel_poll_mask = 15

  let rec iterate t ~allow_artificial ~pivots ~cancel =
    match entering_column t ~allow_artificial with
    | None -> Finished
    | Some col ->
      (match leaving_row t ~col with
       | None -> Unbounded_direction
       | Some row ->
         pivot t ~row ~col;
         incr pivots;
         if !pivots land cancel_poll_mask = 0 then Cancel.check cancel;
         iterate t ~allow_artificial ~pivots ~cancel)

  (* Install a cost vector into the reduced-cost row and re-eliminate the
     basic columns so the row is expressed over nonbasic variables only. *)
  let install_costs t (costs : F.t array) =
    let n = t.ncols in
    for j = 0 to n do t.obj.(j) <- F.zero done;
    Array.iteri (fun j c -> t.obj.(j) <- c) costs;
    Array.iteri
      (fun i b ->
        let factor = t.obj.(b) in
        if not (F.is_zero factor) then begin
          let r = t.rows.(i) in
          for j = 0 to n do
            if not (F.is_zero r.(j)) then t.obj.(j) <- F.sub t.obj.(j) (F.mul factor r.(j))
          done;
          t.obj.(b) <- F.zero
        end)
      t.basis

  (* Current objective value: the rhs cell of the reduced-cost row holds -z. *)
  let objective_value t = F.neg t.obj.(t.ncols)

  (* Substitute the variable encodings into a term list.
     Returns (std terms, rhs adjustment to subtract). *)
  let encode_terms (encodings : encoding array) terms =
    let adjust = ref F.zero in
    let out = ref [] in
    List.iter
      (fun (c, v) ->
        match encodings.(v) with
        | Shifted (u, lo) ->
          out := (c, u) :: !out;
          adjust := F.add !adjust (F.mul c lo)
        | Reflected (u, hi) ->
          out := (F.neg c, u) :: !out;
          adjust := F.add !adjust (F.mul c hi)
        | Split (up, un) -> out := (c, up) :: (F.neg c, un) :: !out)
      terms;
    (!out, !adjust)

  (* Decode a standard-variable vector back to the original variables and
     recompute the true objective (robust against accumulated constants). *)
  let decode_std (p : P.t) ~(encodings : encoding array) (std : F.t array) =
    let assignment =
      Array.init (P.num_vars p) (fun j ->
          match encodings.(j) with
          | Shifted (u, lo) -> F.add std.(u) lo
          | Reflected (u, hi) -> F.sub hi std.(u)
          | Split (up, un) -> F.sub std.(up) std.(un))
    in
    let objective = P.eval_terms (P.objective p) assignment in
    Optimal { objective; assignment }

  (* Read the original-variable solution off a primal-feasible tableau. *)
  let read_solution (p : P.t) ~(encodings : encoding array) t =
    let std = Array.make t.ncols F.zero in
    Array.iteri (fun i b -> std.(b) <- t.rows.(i).(t.ncols)) t.basis;
    decode_std p ~encodings std

  (** Does the snapshot's basis satisfy the warm-start invariants?  Primal:
      every basic value is non-negative.  Dual: every non-artificial
      reduced cost is non-negative.  Both hold after any optimal solve; the
      warm path relies on the dual half.  Exposed for the property tests
      that pin the invariants. *)
  let snapshot_primal_feasible (s : snapshot) =
    Array.for_all (fun x -> F.compare x F.zero >= 0) s.s_state.z_xb

  let snapshot_dual_feasible (s : snapshot) =
    let z = s.s_state in
    let ok = ref true in
    for j = 0 to z.z_ncols - 1 do
      if (not z.z_is_artificial.(j)) && F.compare z.z_dj.(j) F.zero < 0 then
        ok := false
    done;
    !ok

  (** Number of appended rows a problem adds on top of a snapshot (only
      meaningful when {!compatible}). *)
  let snapshot_extra_rows (s : snapshot) (p : P.t) =
    P.num_constraints p - Array.length s.s_constrs

  (* ------------------------------------------------------------------ *)
  (* Snapshot compatibility                                              *)
  (* ------------------------------------------------------------------ *)

  let bound_equal a b =
    match a, b with
    | None, None -> true
    | Some x, Some y -> F.equal x y
    | _ -> false

  let rec terms_equal a b =
    match a, b with
    | [], [] -> true
    | (c1, v1) :: ra, (c2, v2) :: rb ->
      v1 = v2 && F.equal c1 c2 && terms_equal ra rb
    | _ -> false

  let constr_equal (c1 : P.constr) (c2 : P.constr) =
    c1 == c2
    || (c1.op = c2.op && F.equal c1.rhs c2.rhs && terms_equal c1.terms c2.terms)

  (** Is [p] the snapshot's problem plus appended [<=]/[>=] rows?  Checks
      variables, bounds, objective sense and terms, that the snapshot's
      rows are an unchanged prefix of [p]'s rows, and that every extra row
      is an inequality (equality rows have no slack to make basic).  Any
      mismatch means the basis cannot be reused. *)
  let compatible (s : snapshot) (p : P.t) =
    P.num_vars p = s.s_nvars
    && P.minimize p = s.s_minimize
    && terms_equal (P.objective p) s.s_objective
    &&
    let lowers = P.var_lowers p and uppers = P.var_uppers p in
    let rec bounds_ok j =
      j >= s.s_nvars
      || (bound_equal lowers.(j) s.s_lowers.(j)
          && bound_equal uppers.(j) s.s_uppers.(j)
          && bounds_ok (j + 1))
    in
    bounds_ok 0
    &&
    let constrs = P.constraints p in
    let base = Array.length s.s_constrs in
    Array.length constrs >= base
    &&
    let rec prefix_ok i =
      i >= base || (constr_equal constrs.(i) s.s_constrs.(i) && prefix_ok (i + 1))
    in
    prefix_ok 0
    &&
    let rec extras_ok i =
      i >= Array.length constrs
      || (constrs.(i).op <> Lp_problem.Eq && extras_ok (i + 1))
    in
    extras_ok base

  (* ------------------------------------------------------------------ *)
  (* Shared standard-form front end                                      *)
  (* ------------------------------------------------------------------ *)

  (** Standard form shared by both cores: variable encodings over
      non-negative standard variables, and rows as sparse term lists
      (bound-cap rows first, then constraint rows in declaration order, so
      the column layout of a prefix problem is a prefix of any extended
      problem's layout — warm starts append columns, never reshuffle
      them).  Nothing row-length-dense is allocated here; the dense core
      densifies at solve time, the sparse core assembles a CSC matrix. *)
  type spec = {
    c_encodings : encoding array;
    c_rows : ((F.t * int) list * F.t) list; (* (terms over std vars incl. slack, rhs) *)
    c_slack_set : bool array;               (* per std column: is a slack *)
    c_nstd : int;
  }

  let build_spec ?limit (p : P.t) ~lowers ~uppers : spec =
    let nvars = P.num_vars p in
    let next = ref 0 in
    let fresh () = let v = !next in incr next; v in
    let extra_rows = ref [] in (* upper-bound rows u <= hi - lo *)
    let encodings =
      Array.init nvars (fun j ->
          match lowers.(j), uppers.(j) with
          | Some lo, Some hi ->
            let u = fresh () in
            extra_rows := (u, F.sub hi lo) :: !extra_rows;
            Shifted (u, lo)
          | Some lo, None -> Shifted (fresh (), lo)
          | None, Some hi -> Reflected (fresh (), hi)
          | None, None ->
            let up = fresh () in
            let un = fresh () in
            Split (up, un))
    in
    let rows_spec = ref [] in
    let slack_cols = ref [] in
    let add_row terms op rhs =
      match op with
      | Lp_problem.Eq -> rows_spec := (terms, rhs) :: !rows_spec
      | Lp_problem.Le ->
        let s = fresh () in
        slack_cols := s :: !slack_cols;
        rows_spec := ((F.one, s) :: terms, rhs) :: !rows_spec
      | Lp_problem.Ge ->
        let s = fresh () in
        slack_cols := s :: !slack_cols;
        rows_spec := ((F.neg F.one, s) :: terms, rhs) :: !rows_spec
    in
    List.iter
      (fun (u, cap) -> add_row [ (F.one, u) ] Lp_problem.Le cap)
      (List.rev !extra_rows);
    let constrs = P.constraints p in
    let nconstr =
      match limit with Some k -> k | None -> Array.length constrs
    in
    for i = 0 to nconstr - 1 do
      let c = constrs.(i) in
      let terms, adjust = encode_terms encodings c.terms in
      add_row terms c.op (F.sub c.rhs adjust)
    done;
    let nstd = !next in
    let slack_set = Array.make nstd false in
    List.iter (fun s -> slack_set.(s) <- true) !slack_cols;
    { c_encodings = encodings; c_rows = List.rev !rows_spec;
      c_slack_set = slack_set; c_nstd = nstd }

  (* Phase-2 cost vector over the standard columns (length [ncols]). *)
  let phase2_costs (p : P.t) ~(encodings : encoding array) ~ncols =
    let costs = Array.make ncols F.zero in
    let sense = if P.minimize p then F.one else F.neg F.one in
    List.iter
      (fun (c, v) ->
        let c = F.mul sense c in
        match encodings.(v) with
        | Shifted (u, _) -> costs.(u) <- F.add costs.(u) c
        | Reflected (u, _) -> costs.(u) <- F.sub costs.(u) c
        | Split (up, un) ->
          costs.(up) <- F.add costs.(up) c;
          costs.(un) <- F.sub costs.(un) c)
      (P.objective p);
    costs

  (* ------------------------------------------------------------------ *)
  (* Dense cold solve                                                    *)
  (* ------------------------------------------------------------------ *)

  let dense_solve_with_spec (p : P.t) (spec : spec) ~st ~cancel : result =
    let encodings = spec.c_encodings in
    let nstd = spec.c_nstd in
    let m = List.length spec.c_rows in
    (* --- densify, normalize rhs signs, pick basic columns, artificials - *)
    let dense = Array.make_matrix m (nstd + 1) F.zero in
    List.iteri
      (fun i (terms, rhs) ->
        List.iter (fun (c, v) -> dense.(i).(v) <- F.add dense.(i).(v) c) terms;
        dense.(i).(nstd) <- rhs)
      spec.c_rows;
    Array.iter
      (fun r ->
        if F.compare r.(nstd) F.zero < 0 then
          Array.iteri (fun j x -> r.(j) <- F.neg x) r)
      dense;
    (* A row can use its slack as the initial basic variable iff the slack
       coefficient survived as +1 after sign normalization. *)
    let basis0 = Array.make m (-1) in
    let needs_artificial = ref [] in
    Array.iteri
      (fun i r ->
        let found = ref (-1) in
        for j = 0 to nstd - 1 do
          if !found < 0 && spec.c_slack_set.(j) && F.equal r.(j) F.one then
            (* Must be the only row touching this slack (always true: each
               slack occurs in exactly one row). *)
            found := j
        done;
        if !found >= 0 then basis0.(i) <- !found
        else needs_artificial := i :: !needs_artificial)
      dense;
    let nart = List.length !needs_artificial in
    let ncols = nstd + nart in
    let rows =
      Array.mapi
        (fun _ r ->
          let nr = Array.make (ncols + 1) F.zero in
          Array.blit r 0 nr 0 nstd;
          nr.(ncols) <- r.(nstd);
          nr)
        dense
    in
    List.iteri
      (fun k i ->
        let col = nstd + k in
        rows.(i).(col) <- F.one;
        basis0.(i) <- col)
      (List.rev !needs_artificial);
    let is_artificial = Array.init ncols (fun j -> j >= nstd) in
    let t =
      { rows; basis = basis0; obj = Array.make (ncols + 1) F.zero; ncols;
        is_artificial }
    in
    (* --- phase 1 -------------------------------------------------------- *)
    let phase1_needed = nart > 0 in
    let feasible =
      if not phase1_needed then true
      else
        Obs.Phases.time st.phases phase_phase1 (fun () ->
            let costs = Array.make (ncols + 1) F.zero in
            for j = nstd to ncols - 1 do costs.(j) <- F.one done;
            install_costs t costs;
            let p1 = ref 0 in
            (match iterate t ~allow_artificial:true ~pivots:p1 ~cancel with
             | Unbounded_direction ->
               (* Phase-1 objective is bounded below by 0; cannot happen. *)
               assert false
             | Finished -> ());
            st.phase1_pivots <- st.phase1_pivots + !p1;
            F.is_zero (objective_value t))
    in
    if not feasible then Infeasible
    else begin
      (* Drive surviving artificials out of the basis (they sit at 0).
         Still phase-1 work for attribution purposes. *)
      if phase1_needed then
        Obs.Phases.time st.phases phase_phase1 (fun () ->
            Array.iteri
              (fun i b ->
                if t.is_artificial.(b) then begin
                  let r = t.rows.(i) in
                  let col = ref (-1) in
                  for j = 0 to nstd - 1 do
                    if !col < 0 && not (F.is_zero r.(j)) then col := j
                  done;
                  if !col >= 0 then begin
                    pivot t ~row:i ~col:!col;
                    st.phase1_pivots <- st.phase1_pivots + 1
                  end
                  (* else: redundant 0 = 0 row; the artificial stays basic
                     at 0 and can never become positive: its row has no
                     nonzero real coefficient, so pivots on real columns
                     leave it untouched. *)
                end)
              (Array.copy t.basis));
      (* --- phase 2 ------------------------------------------------------ *)
      let outcome =
        Obs.Phases.time st.phases phase_phase2 (fun () ->
            let costs = Array.make (ncols + 1) F.zero in
            Array.blit (phase2_costs p ~encodings ~ncols) 0 costs 0 ncols;
            install_costs t costs;
            let p2 = ref 0 in
            let outcome = iterate t ~allow_artificial:false ~pivots:p2 ~cancel in
            st.phase2_pivots <- st.phase2_pivots + !p2;
            outcome)
      in
      match outcome with
      | Unbounded_direction -> Unbounded
      | Finished -> read_solution p ~encodings t
    end

  (* ------------------------------------------------------------------ *)
  (* Sparse revised core                                                 *)
  (* ------------------------------------------------------------------ *)

  (** Raised by the sparse core when the factorization cannot keep the
      basis numerically coherent (inexact fields only); the caller falls
      back to the dense core. *)
  exception Numerical_trouble

  type sp_form = {
    fa : F.t Sparse_mat.t;        (* m x ncols, artificial columns included *)
    fat : F.t Sparse_mat.t;       (* transpose of [fa]: column i = row i *)
    fb : F.t array;               (* rhs (base rows sign-normalized) *)
    fnstd : int;
    fncols : int;
    fbase : int;                  (* problem rows covered by the spec prefix *)
    fncols0 : int;                (* fncols before appended-row slacks *)
    fis_artificial : bool array;
  }

  (* Normalize signs, detect slack basics, append artificial columns.
     Returns mutable row term lists ((col, coef), duplicates allowed) so
     the warm path can extend them before CSC assembly. *)
  let sp_rows_of_spec (spec : spec) =
    let rows = Array.of_list spec.c_rows in
    let m = Array.length rows in
    let nstd = spec.c_nstd in
    let rhs = Array.make m F.zero in
    let row_terms = Array.make m [] in
    Array.iteri
      (fun i (terms, r) ->
        let neg = F.compare r F.zero < 0 in
        rhs.(i) <- (if neg then F.neg r else r);
        row_terms.(i) <-
          List.map (fun (c, v) -> (v, if neg then F.neg c else c)) terms)
      rows;
    let basis0 = Array.make m (-1) in
    let needs_artificial = ref [] in
    Array.iteri
      (fun i terms ->
        let found = ref (-1) in
        List.iter
          (fun (j, c) ->
            if !found < 0 && j < nstd && spec.c_slack_set.(j) && F.equal c F.one
            then found := j)
          terms;
        if !found >= 0 then basis0.(i) <- !found
        else needs_artificial := i :: !needs_artificial)
      row_terms;
    let needs_artificial = List.rev !needs_artificial in
    let nart = List.length needs_artificial in
    let ncols = nstd + nart in
    List.iteri
      (fun k i ->
        let col = nstd + k in
        row_terms.(i) <- (col, F.one) :: row_terms.(i);
        basis0.(i) <- col)
      needs_artificial;
    (row_terms, rhs, basis0, nart, nstd, ncols)

  let sp_assemble ~m ~ncols row_terms =
    Sparse_mat.of_rows ~zero:F.zero ~is_zero:F.is_zero ~add:F.add ~m ~n:ncols
      row_terms

  type sp_state = {
    form : sp_form;
    sbasis : int array;           (* row slot -> basic column *)
    in_basis : bool array;
    lu : Lu.t;
    beta : F.t array;             (* x_B by row slot *)
    dj : F.t array;               (* reduced costs, maintained incrementally *)
    costs : F.t array;            (* current phase cost vector *)
    weights : float array;        (* devex reference weights *)
    w : F.t array;                (* FTRAN workspace (entering column) *)
    rho : F.t array;              (* BTRAN workspace (pivot row multipliers) *)
    alpha : F.t array;            (* pivot row over all columns *)
    alpha_sup : int array;        (* columns where alpha may be nonzero *)
    alpha_mark : bool array;      (* membership bits for [alpha_sup] *)
    mutable alpha_n : int;        (* live prefix of [alpha_sup] *)
    bnorm : float;                (* |b|inf, residual scale *)
    mutable bland : bool;         (* Bland fallback engaged *)
    mutable stall : int;          (* consecutive degenerate pivots *)
    mutable block : int;          (* partial-pricing cursor *)
    mutable since_drift : int;
    sst : stats;
    scancel : Cancel.t;
  }

  let sp_new_state (form : sp_form) (basis : int array) ~st ~cancel : sp_state =
    let m = Array.length form.fb in
    let n = form.fncols in
    let in_basis = Array.make n false in
    Array.iter (fun c -> if c >= 0 then in_basis.(c) <- true) basis;
    let bnorm =
      Array.fold_left (fun acc x -> Float.max acc (Float.abs (F.to_float x)))
        0.0 form.fb
    in
    { form; sbasis = basis; in_basis; lu = Lu.create ();
      beta = Array.make m F.zero; dj = Array.make n F.zero;
      costs = Array.make n F.zero; weights = Array.make n 1.0;
      w = Array.make m F.zero; rho = Array.make m F.zero;
      alpha = Array.make n F.zero; alpha_sup = Array.make n 0;
      alpha_mark = Array.make n false; alpha_n = 0; bnorm;
      bland = false; stall = 0; block = 0; since_drift = 0;
      sst = st; scancel = cancel }

  (* Full reduced-cost recompute: y = BTRAN(c_B), then d_j = c_j - y·a_j. *)
  let sp_compute_dj (x : sp_state) =
    let m = Array.length x.beta in
    Obs.Phases.time x.sst.phases phase_btran (fun () ->
        for i = 0 to m - 1 do x.rho.(i) <- x.costs.(x.sbasis.(i)) done;
        Lu.btran x.lu x.rho);
    Obs.Phases.time x.sst.phases phase_price (fun () ->
        for j = 0 to x.form.fncols - 1 do
          if x.in_basis.(j) then x.dj.(j) <- F.zero
          else begin
            let acc = ref x.costs.(j) in
            Sparse_mat.iter_col x.form.fa j (fun i v ->
                if not (F.is_zero x.rho.(i)) then
                  acc := F.sub !acc (F.mul v x.rho.(i)));
            x.dj.(j) <- !acc
          end
        done)

  (* Refactorize, recompute x_B and reduced costs, and verify the fresh
     factorization reproduces b (an inexact field that cannot is beyond
     what refactorizing fixes: punt to the dense core). *)
  let sp_refactor (x : sp_state) =
    Obs.Phases.time x.sst.phases phase_factor (fun () ->
        Lu.factorize x.lu x.form.fa ~basis:x.sbasis;
        x.sst.refactorizations <- x.sst.refactorizations + 1;
        x.sst.factor_nnz <- Lu.factor_nnz x.lu;
        x.sst.eta_peak <- max x.sst.eta_peak (Lu.eta_count x.lu);
        Obs.Metrics.incr m_refactorizations;
        Array.blit x.form.fb 0 x.beta 0 (Array.length x.beta);
        Lu.ftran x.lu x.beta);
    sp_compute_dj x;
    let resid =
      Lu.residual_inf x.form.fa ~basis:x.sbasis ~rhs:x.form.fb ~xb:x.beta
    in
    if Float.abs (F.to_float resid) > trouble_tol *. (1.0 +. x.bnorm) then
      raise Numerical_trouble

  (* Refactorization policy: every K update etas, or when a periodic
     residual check sees drift beyond tolerance. *)
  let sp_maybe_refactor (x : sp_state) =
    if Lu.update_count x.lu >= max 1 tuning.refactor_every then sp_refactor x
    else begin
      x.since_drift <- x.since_drift + 1;
      if x.since_drift >= max 1 tuning.drift_check_every then begin
        x.since_drift <- 0;
        let resid =
          Lu.residual_inf x.form.fa ~basis:x.sbasis ~rhs:x.form.fb ~xb:x.beta
        in
        if Float.abs (F.to_float resid) > tuning.drift_tol *. (1.0 +. x.bnorm)
        then sp_refactor x
      end
    end

  (* Pricing: devex (max d_j^2 / w_j) over rotating partial-pricing blocks,
     or lowest-index Bland scan once the anti-cycling fallback engaged.
     Eligibility (d_j < 0) is decided by exact field comparison; the devex
     score is a float heuristic only. *)
  let sp_price (x : sp_state) ~allow_artificial =
    Obs.Phases.time x.sst.phases phase_price (fun () ->
        let n = x.form.fncols in
        let eligible j =
          (not x.in_basis.(j))
          && (allow_artificial || not x.form.fis_artificial.(j))
          && F.compare x.dj.(j) F.zero < 0
        in
        if x.bland then begin
          let rec go j =
            if j >= n then None else if eligible j then Some j else go (j + 1)
          in
          go 0
        end
        else begin
          let bs = max 1 tuning.partial_block in
          let nblocks = max 1 ((n + bs - 1) / bs) in
          let best = ref (-1) and best_score = ref 0.0 in
          let scan_block b =
            let lo = b * bs and hi = min n ((b + 1) * bs) in
            for j = lo to hi - 1 do
              if eligible j then begin
                let df = F.to_float x.dj.(j) in
                let score = df *. df /. x.weights.(j) in
                if !best < 0 || score > !best_score then begin
                  best := j;
                  best_score := score
                end
              end
            done
          in
          let rec go off =
            if off >= nblocks then None
            else begin
              let b = (x.block + off) mod nblocks in
              scan_block b;
              if !best >= 0 then begin
                x.block <- b;
                Some !best
              end
              else go (off + 1)
            end
          in
          go 0
        end)

  (* FTRAN the entering column into the workspace. *)
  let sp_ftran_col (x : sp_state) q =
    Obs.Phases.time x.sst.phases phase_ftran (fun () ->
        Array.fill x.w 0 (Array.length x.w) F.zero;
        Sparse_mat.scatter_col x.form.fa q x.w;
        Lu.ftran x.lu x.w)

  (* Primal ratio test over the FTRAN'd column.  Ties: Bland mode prefers
     the smallest basic-variable index (termination); devex mode the
     largest pivot magnitude (stability). *)
  let sp_leaving (x : sp_state) =
    let m = Array.length x.beta in
    let best = ref (-1) in
    let best_ratio = ref F.zero in
    for i = 0 to m - 1 do
      let wi = x.w.(i) in
      if F.compare wi F.zero > 0 then begin
        let ratio = F.div x.beta.(i) wi in
        if !best < 0 then begin
          best := i;
          best_ratio := ratio
        end
        else begin
          let c = F.compare ratio !best_ratio in
          if c < 0 then begin
            best := i;
            best_ratio := ratio
          end
          else if c = 0 then
            if x.bland then begin
              if x.sbasis.(i) < x.sbasis.(!best) then best := i
            end
            else if
              Float.abs (F.to_float wi) > Float.abs (F.to_float x.w.(!best))
            then best := i
        end
      end
    done;
    if !best < 0 then None else Some !best

  (* Pivot row r: rho = BTRAN(e_r), then alpha = A^T rho accumulated over
     the transpose rows where rho is nonzero — O(sum of those row lengths)
     instead of O(nnz A).  [alpha_sup] records which columns were touched
     so the pivot-update loops skip the (exactly zero) rest; the previous
     pivot's support is cleared here, keeping the invariant that alpha is
     zero off-support.  Basic columns come out 0/1 for free, which is
     exactly what the incremental d update needs for the leaving
     variable. *)
  let sp_pivot_row (x : sp_state) r =
    let m = Array.length x.rho in
    Obs.Phases.time x.sst.phases phase_btran (fun () ->
        Array.fill x.rho 0 m F.zero;
        x.rho.(r) <- F.one;
        Lu.btran x.lu x.rho);
    Obs.Phases.time x.sst.phases phase_price (fun () ->
        for k = 0 to x.alpha_n - 1 do
          let j = x.alpha_sup.(k) in
          x.alpha.(j) <- F.zero;
          x.alpha_mark.(j) <- false
        done;
        x.alpha_n <- 0;
        let at = x.form.fat in
        for i = 0 to m - 1 do
          let ri = x.rho.(i) in
          if not (F.is_zero ri) then
            Sparse_mat.iter_col at i (fun j v ->
                if not x.alpha_mark.(j) then begin
                  x.alpha_mark.(j) <- true;
                  x.alpha_sup.(x.alpha_n) <- j;
                  x.alpha_n <- x.alpha_n + 1
                end;
                x.alpha.(j) <- F.add x.alpha.(j) (F.mul v ri))
        done)

  (* Apply the pivot (q enters at row r): update x_B and reduced costs
     incrementally off the pivot row, devex weights (Forrest–Goldfarb),
     append the product-form eta, swap the basis header, and feed the
     stall/cycling heuristic. *)
  let sp_apply_pivot (x : sp_state) ~q ~r =
    let aq = x.w.(r) in
    let theta = F.div x.beta.(r) aq in
    let m = Array.length x.beta in
    if not (F.is_zero theta) then
      for i = 0 to m - 1 do
        if i <> r && not (F.is_zero x.w.(i)) then
          x.beta.(i) <- F.sub x.beta.(i) (F.mul theta x.w.(i))
      done;
    x.beta.(r) <- theta;
    let n = x.form.fncols in
    let mult = F.div x.dj.(q) aq in
    if not (F.is_zero mult) then
      for k = 0 to x.alpha_n - 1 do
        let j = x.alpha_sup.(k) in
        if j <> q && not (F.is_zero x.alpha.(j)) then
          x.dj.(j) <- F.sub x.dj.(j) (F.mul mult x.alpha.(j))
      done;
    x.dj.(q) <- F.zero;
    if not x.bland then begin
      let aqf = F.to_float aq in
      if Float.is_finite aqf && aqf <> 0.0 then begin
        let wq = x.weights.(q) in
        let maxw = ref 0.0 in
        for k = 0 to x.alpha_n - 1 do
          let j = x.alpha_sup.(k) in
          if j <> q && not (F.is_zero x.alpha.(j)) then begin
            let a = F.to_float x.alpha.(j) /. aqf in
            let cand = a *. a *. wq in
            if Float.is_finite cand && cand > x.weights.(j) then
              x.weights.(j) <- cand;
            if x.weights.(j) > !maxw then maxw := x.weights.(j)
          end
        done;
        (* Reference-framework reset once weights blow up. *)
        if !maxw > 1e8 then Array.fill x.weights 0 n 1.0
      end
    end;
    Lu.push_eta x.lu ~spike:x.w ~row:r;
    x.sst.eta_peak <- max x.sst.eta_peak (Lu.eta_count x.lu);
    let leaving = x.sbasis.(r) in
    x.in_basis.(leaving) <- false;
    x.in_basis.(q) <- true;
    x.sbasis.(r) <- q;
    if F.is_zero theta then begin
      x.stall <- x.stall + 1;
      if (not x.bland) && x.stall > tuning.stall_threshold then begin
        x.bland <- true;
        x.sst.bland_fallbacks <- x.sst.bland_fallbacks + 1;
        Obs.Metrics.incr m_bland_fallbacks
      end
    end
    else x.stall <- 0

  let rec sp_iterate (x : sp_state) ~allow_artificial ~pivots =
    sp_maybe_refactor x;
    match sp_price x ~allow_artificial with
    | None -> Finished
    | Some q ->
      sp_ftran_col x q;
      (match sp_leaving x with
       | None -> Unbounded_direction
       | Some r ->
         sp_pivot_row x r;
         sp_apply_pivot x ~q ~r;
         incr pivots;
         if !pivots land cancel_poll_mask = 0 then Cancel.check x.scancel;
         sp_iterate x ~allow_artificial ~pivots)

  (* Revised dual simplex: starting from a dual-feasible basis (all
     non-artificial reduced costs >= 0) with some negative basic values,
     restore primal feasibility while keeping dual feasibility.
     Anti-cycling by the dual Bland rule: leaving row = smallest
     basic-variable index among infeasible rows; entering column =
     smallest index among the minimum ratio d_j / -alpha_j over
     alpha_j < 0.  [budget] bounds the pivot count (the caller falls back
     to a cold solve on a stall).  A row with no eligible column is a
     certificate of primal infeasibility: x_B < 0 with every real
     coefficient >= 0, and artificials are 0 in any solution of the
     original problem. *)
  type dual_outcome = Primal_feasible | Dual_infeasible_row | Stalled

  let sp_dual_iterate (x : sp_state) ~pivots ~budget =
    let m = Array.length x.beta in
    let rec go () =
      if !pivots >= budget then Stalled
      else begin
        sp_maybe_refactor x;
        let leave = ref (-1) in
        for i = 0 to m - 1 do
          if F.compare x.beta.(i) F.zero < 0
             && (!leave < 0 || x.sbasis.(i) < x.sbasis.(!leave))
          then leave := i
        done;
        if !leave < 0 then Primal_feasible
        else begin
          let r = !leave in
          sp_pivot_row x r;
          let best = ref (-1) in
          let best_ratio = ref F.zero in
          (* Off-support alpha is exactly zero, so scanning the support
             visits every eligible (alpha_j < 0) column. *)
          for k = 0 to x.alpha_n - 1 do
            let j = x.alpha_sup.(k) in
            if (not x.form.fis_artificial.(j))
               && F.compare x.alpha.(j) F.zero < 0
            then begin
              let ratio = F.div x.dj.(j) (F.neg x.alpha.(j)) in
              let c = if !best < 0 then -1 else F.compare ratio !best_ratio in
              (* Equal ratios break to the lowest column index so the scan
                 order over the (unsorted) support does not matter. *)
              if c < 0 || (c = 0 && j < !best) then begin
                best := j;
                best_ratio := ratio
              end
            end
          done;
          if !best < 0 then Dual_infeasible_row
          else begin
            let q = !best in
            sp_ftran_col x q;
            if F.is_zero x.w.(r) then raise Numerical_trouble
            else begin
              sp_apply_pivot x ~q ~r;
              incr pivots;
              if !pivots land cancel_poll_mask = 0 then Cancel.check x.scancel;
              go ()
            end
          end
        end
      end
    in
    go ()

  let sp_read_solution (p : P.t) ~(encodings : encoding array) (x : sp_state) =
    let std = Array.make x.form.fncols F.zero in
    Array.iteri (fun r col -> std.(col) <- x.beta.(r)) x.sbasis;
    decode_std p ~encodings std

  let sp_capture (p : P.t) ~(encodings : encoding array) (x : sp_state)
      : snapshot =
    { s_nvars = P.num_vars p;
      s_lowers = P.var_lowers p;
      s_uppers = P.var_uppers p;
      s_minimize = P.minimize p;
      s_objective = P.objective p;
      s_constrs = P.constraints p;
      s_encodings = Array.copy encodings;
      s_state =
        { z_basis = Array.copy x.sbasis;
          z_nstd = x.form.fnstd;
          z_ncols = x.form.fncols;
          z_base = x.form.fbase;
          z_ncols0 = x.form.fncols0;
          z_is_artificial = Array.copy x.form.fis_artificial;
          z_xb = Array.copy x.beta;
          z_dj = Array.copy x.dj } }

  (* Reset per-phase pricing state (the dual phase runs Bland; each primal
     phase restarts devex with a fresh reference framework). *)
  let sp_reset_pricing (x : sp_state) ~bland =
    x.bland <- bland;
    x.stall <- 0;
    Array.fill x.weights 0 (Array.length x.weights) 1.0

  (* --- sparse cold solve --------------------------------------------- *)

  let sp_solve_with_spec (p : P.t) (spec : spec) ~st ~cancel ~want_capture
      : result * snapshot option =
    let row_terms, rhs, basis0, nart, nstd, ncols = sp_rows_of_spec spec in
    let m = Array.length rhs in
    let fa = sp_assemble ~m ~ncols row_terms in
    let form =
      { fa; fat = Sparse_mat.transpose ~zero:F.zero fa; fb = rhs;
        fnstd = nstd; fncols = ncols;
        fbase = P.num_constraints p; fncols0 = ncols;
        fis_artificial = Array.init ncols (fun j -> j >= nstd) }
    in
    let x = sp_new_state form basis0 ~st ~cancel in
    let encodings = spec.c_encodings in
    (* --- phase 1 ------------------------------------------------------ *)
    let feasible =
      if nart = 0 then true
      else
        Obs.Phases.time st.phases phase_phase1 (fun () ->
            for j = 0 to ncols - 1 do
              x.costs.(j) <- (if form.fis_artificial.(j) then F.one else F.zero)
            done;
            sp_reset_pricing x ~bland:false;
            sp_refactor x;
            let p1 = ref 0 in
            (match sp_iterate x ~allow_artificial:true ~pivots:p1 with
             | Unbounded_direction ->
               (* Phase-1 objective is bounded below by 0; cannot happen. *)
               assert false
             | Finished -> ());
            st.phase1_pivots <- st.phase1_pivots + !p1;
            let z1 = ref F.zero in
            Array.iteri
              (fun r col ->
                if form.fis_artificial.(col) then z1 := F.add !z1 x.beta.(r))
              x.sbasis;
            F.is_zero !z1)
    in
    if not feasible then (Infeasible, None)
    else begin
      (* Drive surviving artificials out of the basis (they sit at 0);
         a row whose pivot row has no nonzero real coefficient is
         redundant and keeps its artificial basic at 0, exactly as in the
         dense core. *)
      if nart > 0 then
        Obs.Phases.time st.phases phase_phase1 (fun () ->
            Array.iteri
              (fun r col ->
                if form.fis_artificial.(col) then begin
                  let mm = Array.length x.beta in
                  Obs.Phases.time st.phases phase_btran (fun () ->
                      Array.fill x.rho 0 mm F.zero;
                      x.rho.(r) <- F.one;
                      Lu.btran x.lu x.rho);
                  let q = ref (-1) in
                  for j = 0 to nstd - 1 do
                    if !q < 0 && not x.in_basis.(j) then begin
                      let acc = ref F.zero in
                      Sparse_mat.iter_col form.fa j (fun i v ->
                          if not (F.is_zero x.rho.(i)) then
                            acc := F.add !acc (F.mul v x.rho.(i)));
                      if not (F.is_zero !acc) then q := j
                    end
                  done;
                  if !q >= 0 then begin
                    sp_ftran_col x !q;
                    if not (F.is_zero x.w.(r)) then begin
                      sp_pivot_row x r;
                      sp_apply_pivot x ~q:!q ~r;
                      st.phase1_pivots <- st.phase1_pivots + 1
                    end
                  end
                end)
              (Array.copy x.sbasis));
      (* --- phase 2 ------------------------------------------------------ *)
      let outcome =
        Obs.Phases.time st.phases phase_phase2 (fun () ->
            let costs = phase2_costs p ~encodings ~ncols in
            Array.blit costs 0 x.costs 0 ncols;
            sp_reset_pricing x ~bland:false;
            if Lu.eta_count x.lu = 0 then sp_refactor x else sp_compute_dj x;
            let p2 = ref 0 in
            let outcome = sp_iterate x ~allow_artificial:false ~pivots:p2 in
            st.phase2_pivots <- st.phase2_pivots + !p2;
            outcome)
      in
      match outcome with
      | Unbounded_direction -> (Unbounded, None)
      | Finished ->
        let result = sp_read_solution p ~encodings x in
        let snap =
          if want_capture then
            Some
              (Obs.Phases.time st.phases phase_snapshot (fun () ->
                   sp_capture p ~encodings x))
          else None
        in
        (result, snap)
    end

  (* --- sparse warm solve --------------------------------------------- *)

  (* Rebuild the snapshot's standard form deterministically from the
     ORIGINAL prefix problem ([z_base] rows — not every row the snapshot
     covers: a snapshot captured by a warm solve already carries appended
     rows, and folding those into the spec would shift the column
     layout), re-append every later constraint with its slack at
     [ncols0 + e] (constraints are append-only, so the parent's appended
     slacks land back on the columns its basis references), refactorize
     the extended basis — dual feasibility is inherited exactly: the
     extended basis is block-triangular, the new rows' multipliers are
     zero, and every old reduced cost is unchanged — then repair primal
     feasibility with the budget-bounded dual phase. *)
  let sp_warm_attempt (s : snapshot) (p : P.t) ~st ~budget ~cancel
      : (result * snapshot option) option =
    let z = s.s_state in
    let constrs = P.constraints p in
    let base = z.z_base in
    let kpar = Array.length s.s_constrs - base in
    let k = Array.length constrs - base in
    let spec = build_spec ~limit:base p ~lowers:s.s_lowers ~uppers:s.s_uppers in
    let row_terms0, rhs0, _basis0, _nart, nstd, ncols0 = sp_rows_of_spec spec in
    let m0 = Array.length rhs0 in
    if nstd <> z.z_nstd || ncols0 <> z.z_ncols0
       || Array.length z.z_basis <> m0 + kpar
    then None
    else begin
      let m = m0 + k and ncols = ncols0 + k in
      let row_terms = Array.make m [] in
      Array.blit row_terms0 0 row_terms 0 m0;
      let rhs = Array.make m F.zero in
      Array.blit rhs0 0 rhs 0 m0;
      for e = 0 to k - 1 do
        let c = constrs.(base + e) in
        let terms, adjust = encode_terms s.s_encodings c.terms in
        let slack = ncols0 + e in
        let sterm =
          match c.op with
          | Lp_problem.Le -> (slack, F.one)
          | Lp_problem.Ge -> (slack, F.neg F.one)
          | Lp_problem.Eq ->
            (* Rows past [s_constrs] are screened by [compatible]; rows
               the snapshot already covers passed that screen when they
               were first appended. *)
            assert false
        in
        row_terms.(m0 + e) <- sterm :: List.map (fun (cf, v) -> (v, cf)) terms;
        rhs.(m0 + e) <- F.sub c.rhs adjust
      done;
      let is_artificial = Array.make ncols false in
      Array.blit z.z_is_artificial 0 is_artificial 0
        (Array.length z.z_is_artificial);
      let fa = sp_assemble ~m ~ncols row_terms in
      let form =
        { fa; fat = Sparse_mat.transpose ~zero:F.zero fa; fb = rhs;
          fnstd = nstd; fncols = ncols;
          fbase = base; fncols0 = ncols0; fis_artificial = is_artificial }
      in
      let basis = Array.make m (-1) in
      Array.blit z.z_basis 0 basis 0 (m0 + kpar);
      for e = kpar to k - 1 do basis.(m0 + e) <- ncols0 + e done;
      let x = sp_new_state form basis ~st ~cancel in
      let costs = phase2_costs p ~encodings:s.s_encodings ~ncols in
      Array.blit costs 0 x.costs 0 ncols;
      sp_reset_pricing x ~bland:true;
      sp_refactor x;
      (* Inherited dual feasibility; verify cheaply in case the snapshot
         predates numeric drift (floats). *)
      let dual_ok = ref true in
      for j = 0 to ncols - 1 do
        if (not is_artificial.(j)) && F.compare x.dj.(j) F.zero < 0 then
          dual_ok := false
      done;
      if not !dual_ok then None
      else begin
        let outcome =
          Obs.Phases.time st.phases phase_dual (fun () ->
              let dp = ref 0 in
              let outcome = sp_dual_iterate x ~pivots:dp ~budget in
              st.dual_pivots <- st.dual_pivots + !dp;
              outcome)
        in
        match outcome with
        | Stalled -> None
        | Dual_infeasible_row -> Some (Infeasible, None)
        | Primal_feasible ->
          (* Optimality cleanup: exact arithmetic performs zero pivots
             here; floats absorb residual negative reduced costs. *)
          let cleanup =
            Obs.Phases.time st.phases phase_phase2 (fun () ->
                sp_reset_pricing x ~bland:false;
                let p2 = ref 0 in
                let cleanup = sp_iterate x ~allow_artificial:false ~pivots:p2 in
                st.phase2_pivots <- st.phase2_pivots + !p2;
                cleanup)
          in
          (match cleanup with
           | Unbounded_direction -> None
           | Finished ->
             let result = sp_read_solution p ~encodings:s.s_encodings x in
             let snap =
               Obs.Phases.time st.phases phase_snapshot (fun () ->
                   sp_capture p ~encodings:s.s_encodings x)
             in
             Some (result, Some snap))
      end
    end

  (* ------------------------------------------------------------------ *)
  (* Core dispatch                                                       *)
  (* ------------------------------------------------------------------ *)

  let solve_cold ~core (p : P.t) ~st ~cancel ~want_capture
      : result * snapshot option =
    let nvars = P.num_vars p in
    let lowers = P.var_lowers p and uppers = P.var_uppers p in
    let infeasible_bounds =
      let rec go j =
        j < nvars
        && (match lowers.(j), uppers.(j) with
            | Some lo, Some hi when F.compare hi lo < 0 -> true
            | _ -> go (j + 1))
      in
      go 0
    in
    if infeasible_bounds then (Infeasible, None)
    else begin
      let spec = build_spec p ~lowers ~uppers in
      match core with
      | Dense -> (dense_solve_with_spec p spec ~st ~cancel, None)
      | Sparse -> (
        try sp_solve_with_spec p spec ~st ~cancel ~want_capture
        with Lu.Singular | Numerical_trouble ->
          Obs.Metrics.incr m_dense_fallbacks;
          (dense_solve_with_spec p spec ~st ~cancel, None))
    end

  (* ------------------------------------------------------------------ *)
  (* Entry points                                                        *)
  (* ------------------------------------------------------------------ *)

  let solve_stats_body ~cancel ~core (p : P.t) : result * stats =
    let st = fresh_stats () in
    Obs.Metrics.incr m_solves;
    let core = Option.value core ~default:(default_core ()) in
    let result, _ = solve_cold ~core p ~st ~cancel ~want_capture:false in
    st.pivots <- st.phase1_pivots + st.phase2_pivots;
    Obs.Metrics.add m_pivots st.pivots;
    observe_phase_histograms st;
    (result, st)

  let solve_stats ?(cancel = Cancel.none) ?core (p : P.t) : result * stats =
    Obs.span "simplex.solve" (fun () ->
        let ((_, st) as r) = solve_stats_body ~cancel ~core p in
        Obs.add_attr "pivots" (Obs.Int st.pivots);
        r)

  let solve ?cancel ?core (p : P.t) : result = fst (solve_stats ?cancel ?core p)

  (** Outcome of a {!solve_warm} call.  [warm_used] means the result came
      from the warm path (snapshot accepted, dual phase converged);
      [fell_back] means a snapshot was offered but a cold solve produced
      the result (incompatible snapshot, dual-phase stall, drift, or the
      dense core).  [snapshot] captures the final basis of an optimal
      sparse solve — warm or cold — for the next re-solve; a dense solve
      captures none. *)
  type warm_outcome = {
    result : result;
    stats : stats;
    warm_used : bool;
    fell_back : bool;
    snapshot : snapshot option;
  }

  (** Solve [p], optionally warm-starting [?from] a snapshot of a previous
      optimal solve of a prefix problem.  Warm starts run on the sparse
      core; [~core:Dense] always solves cold.  The default dual-pivot
      budget scales with the basis height; a stall falls back to a cold
      solve, so a warm start can never yield a different answer than a
      cold one — only fewer (or, pathologically, more) pivots. *)
  let solve_warm ?(cancel = Cancel.none) ?from ?max_dual_pivots ?core (p : P.t)
      : warm_outcome =
    Obs.span "simplex.solve" (fun () ->
        let st = fresh_stats () in
        Obs.Metrics.incr m_solves;
        let core = Option.value core ~default:(default_core ()) in
        let warm_used = ref false and fell_back = ref false in
        let cold () = solve_cold ~core p ~st ~cancel ~want_capture:true in
        let result, snapshot =
          match from with
          | None -> cold ()
          | Some s -> (
            let attempt =
              if core = Dense || not (compatible s p) then None
              else begin
                let budget =
                  match max_dual_pivots with
                  | Some b -> b
                  | None -> 64 + (4 * (snapshot_rows s + snapshot_extra_rows s p))
                in
                try sp_warm_attempt s p ~st ~budget ~cancel
                with Lu.Singular | Numerical_trouble -> None
              end
            in
            match attempt with
            | Some (result, snap) ->
              warm_used := true;
              Obs.Metrics.incr m_warm_starts;
              (result, snap)
            | None ->
              fell_back := true;
              cold ())
        in
        st.pivots <- st.phase1_pivots + st.phase2_pivots + st.dual_pivots;
        Obs.Metrics.add m_pivots st.pivots;
        if st.dual_pivots > 0 then Obs.Metrics.add m_dual_pivots st.dual_pivots;
        observe_phase_histograms st;
        Obs.add_attr "pivots" (Obs.Int st.pivots);
        if !warm_used then Obs.add_attr "warm" (Obs.Bool true);
        { result; stats = st; warm_used = !warm_used; fell_back = !fell_back;
          snapshot })
end
