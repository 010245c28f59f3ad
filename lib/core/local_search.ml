module Fc = Rt_prelude.Float_cmp

open Rt_task

(* Delta-cost search state on the SoA view: buckets hold *positions* into
   [Problem.soa] (oldest first, so scanning top-down replicates the
   newest-first list order of [Partition.bucket]), [loads] is maintained
   incrementally, and [energies.(j)] caches the pure value
   [energy loads.(j)] so every scan reads it instead of re-evaluating the
   rate model. Incremental float updates drift by one ulp per thousands of
   moves, so [renormalize] rebuilds both arrays from scratch every
   [renorm_every] applied moves — in the same newest-first summation order
   as [Partition.of_buckets], keeping the state exactly equal to a
   from-scratch [Solution.cost] re-evaluation. One extra bucket, index
   [m], holds the rejected positions the same way (scanning it top-down
   follows the solution's rejected list); it has no load. *)
type state = {
  m : int;
  soa : Problem.soa;
  bidx : int array array;  (* bidx.(j).(0 .. blen.(j)-1): positions *)
  blen : int array;
  loads : float array;
  energies : float array;
}

let push st j pos =
  let len = st.blen.(j) in
  let arr = st.bidx.(j) in
  let arr =
    if len < Array.length arr then arr
    else begin
      let bigger = Array.make (max 4 (2 * len)) 0 in
      Array.blit arr 0 bigger 0 len;
      st.bidx.(j) <- bigger;
      bigger
    end
  in
  arr.(len) <- pos;
  st.blen.(j) <- len + 1

(* shift-remove the entry at index [i], preserving relative order (the
   list-filter removal this replaces kept order too) *)
let remove_at st j i =
  let arr = st.bidx.(j) in
  let len = st.blen.(j) in
  Array.blit arr (i + 1) arr i (len - 1 - i);
  st.blen.(j) <- len - 1

let state_of_solution (p : Problem.t) (s : Solution.t) =
  let soa = Problem.soa p in
  let m = Rt_partition.Partition.m s.partition in
  let position_of (it : Task.item) =
    Hashtbl.find soa.Problem.index_of it.item_id
  in
  let bidx =
    Array.init (m + 1) (fun j ->
        let items =
          if j < m then Rt_partition.Partition.bucket s.partition j
          else s.rejected
        in
        (* the lists are newest first; store oldest first *)
        Array.of_list (List.rev_map position_of items))
  in
  let loads = Rt_partition.Partition.loads s.partition in
  {
    m;
    soa;
    bidx;
    blen = Array.map Array.length bidx;
    loads;
    energies = Array.map soa.Problem.energy loads;
  }

(* rebuild one bucket's newest-first list representation; the conses are
   the output, not churn *)
let rec build_bucket_list st j i acc =
  if i >= st.blen.(j) then acc
  else
    let acc =
      (* lint: allow-hot-alloc-in-loop "one cons per item of the final partition" *)
      st.soa.Problem.item_arr.(st.bidx.(j).(i)) :: acc
    in
    build_bucket_list st j (i + 1) acc

let solution_of_state st =
  let buckets = Array.init st.m (fun j -> build_bucket_list st j 0 []) in
  {
    Solution.partition = Rt_partition.Partition.of_buckets buckets;
    rejected = build_bucket_list st st.m 0 [];
  }

(* newest-first summation, the order [Partition.of_buckets] uses, so a
   renormalized state equals a from-scratch re-evaluation exactly *)
let rec sum_bucket st j i acc =
  if i < 0 then acc
  else sum_bucket st j (i - 1) (acc +. st.soa.Problem.weights.(st.bidx.(j).(i)))

let renormalize st =
  for j = 0 to st.m - 1 do
    let l = sum_bucket st j (st.blen.(j) - 1) 0. in
    st.loads.(j) <- l;
    st.energies.(j) <- st.soa.Problem.energy l
  done

(* one full renormalization per this many applied moves bounds the
   accumulated float drift of the O(1) load updates *)
let renorm_every = 4096

type budgeted = { solution : Solution.t; moves : int; exhausted : bool }

(* Move loop on a pre-validated solution; returns the improved solution,
   the number of moves applied, and whether the step budget stopped the
   loop while a scan was still finding improving moves. *)
let improve_state ~max_moves (p : Problem.t) (s : Solution.t) =
  let cap = Problem.capacity p in
  let st = state_of_solution p s in
  let soa = st.soa in
  let energy l = soa.Problem.energy l in
  let weight pos = soa.Problem.weights.(pos) in
  (* Gain tolerance. Scaled from the energy at full capacity — the upper
     bound of any bucket's energy — rather than from the maximum *initial*
     load: accept moves can grow a bucket well past the starting scale,
     and a tolerance frozen at the smaller scale goes stale (too tight
     relative to the float noise of the grown terms). One capacity-derived
     value is correct for the whole run. *)
  let eps = 1e-9 *. Float.max 1. (energy cap +. 1.) in
  let m = st.m in
  let fits l w = Rt_prelude.Float_cmp.leq (l +. w) cap in

  let apply_remove j i w =
    remove_at st j i;
    st.loads.(j) <- st.loads.(j) -. w
  in
  let apply_add j pos w =
    push st j pos;
    st.loads.(j) <- st.loads.(j) +. w
  in
  let refresh j = st.energies.(j) <- energy st.loads.(j) in

  let try_reject () =
    (* first item (buckets ascending, newest first within) whose
       rejection pays: saved marginal energy beats its penalty *)
    let rec find_bucket j i =
      if i < 0 then if j + 1 >= m then None else find_bucket (j + 1) (st.blen.(j + 1) - 1)
      else begin
        let pos = st.bidx.(j).(i) in
        if
          Fc.exact_gt
            (st.energies.(j)
            -. energy (st.loads.(j) -. weight pos)
            -. soa.Problem.penalties.(pos))
            eps
        then Some (j, i)
        else find_bucket j (i - 1)
      end
    in
    match find_bucket 0 (st.blen.(0) - 1) with
    | Some (j, i) ->
        let pos = st.bidx.(j).(i) in
        apply_remove j i (weight pos);
        refresh j;
        push st m pos;
        true
    | None -> false
  in

  let try_accept () =
    (* first rejected item (newest first) whose acceptance on the
       least-loaded processor it fits pays: saved penalty beats its
       marginal energy *)
    let rec find i =
      if i < 0 then false
      else begin
        let pos = st.bidx.(m).(i) in
        let j =
          Rt_partition.Ltf.least_loaded ~weights:soa.Problem.weights ~cap
            ~loads:st.loads pos
        in
        if
          j >= 0
          && Fc.exact_gt
               (soa.Problem.penalties.(pos)
               -. (energy (st.loads.(j) +. weight pos) -. st.energies.(j)))
               eps
        then begin
          remove_at st m i;
          apply_add j pos (weight pos);
          refresh j;
          true
        end
        else find (i - 1)
      end
    in
    find (st.blen.(m) - 1)
  in

  (* relocation gain of moving the item at position [pos] from processor
     [j] to [k]; pure in the scan state, so the winning gain can be
     recomputed bit-for-bit instead of carried in a boxed pair *)
  let move_gain j pos k =
    st.energies.(j) +. st.energies.(k)
    -. energy (st.loads.(j) -. weight pos)
    -. energy (st.loads.(k) +. weight pos)
  in

  let try_move () =
    let rec best_dest j pos k best_k best_gain =
      if k >= m then best_k
      else if k <> j && fits st.loads.(k) (weight pos) then begin
        let gain = move_gain j pos k in
        if best_k < 0 || not (Fc.exact_ge best_gain gain) then
          best_dest j pos (k + 1) k gain
        else best_dest j pos (k + 1) best_k best_gain
      end
      else best_dest j pos (k + 1) best_k best_gain
    in
    let rec scan_items j i =
      if i < 0 then
        if j + 1 >= m then None else scan_items (j + 1) (st.blen.(j + 1) - 1)
      else begin
        let pos = st.bidx.(j).(i) in
        let k = best_dest j pos 0 (-1) 0. in
        if k >= 0 && Fc.exact_gt (move_gain j pos k) eps then Some (j, i, k)
        else scan_items j (i - 1)
      end
    in
    match scan_items 0 (st.blen.(0) - 1) with
    | Some (j, i, k) ->
        let pos = st.bidx.(j).(i) in
        let w = weight pos in
        apply_remove j i w;
        apply_add k pos w;
        refresh j;
        refresh k;
        true
    | None -> false
  in

  let try_swap () =
    (* first improving exchange, scanned in the same order as before the
       SoA pass: j < k ascending, [a] newest-first along bucket j, [b]
       newest-first along bucket k *)
    let rec over_j j = if j > m - 2 then None else over_k j (j + 1)
    and over_k j k =
      if k > m - 1 then over_j (j + 1) else scan_a j k (st.blen.(j) - 1)
    and scan_a j k ia =
      if ia < 0 then over_k j (k + 1)
      else
        match scan_b j k ia (st.blen.(k) - 1) with
        | Some _ as found -> found
        | None -> scan_a j k (ia - 1)
    and scan_b j k ia ib =
      if ib < 0 then None
      else begin
        let wa = weight st.bidx.(j).(ia) and wb = weight st.bidx.(k).(ib) in
        let lj = st.loads.(j) -. wa +. wb in
        let lk = st.loads.(k) -. wb +. wa in
        if
          Rt_prelude.Float_cmp.leq lj cap
          && Rt_prelude.Float_cmp.leq lk cap
          && Fc.exact_gt
               (st.energies.(j) +. st.energies.(k) -. energy lj -. energy lk)
               eps
        then Some (j, k, ia, ib)
        else scan_b j k ia (ib - 1)
      end
    in
    match over_j 0 with
    | None -> false
    | Some (j, k, ia, ib) ->
        let pa = st.bidx.(j).(ia) and pb = st.bidx.(k).(ib) in
        let wa = weight pa and wb = weight pb in
        apply_remove j ia wa;
        apply_remove k ib wb;
        apply_add j pb wb;
        apply_add k pa wa;
        refresh j;
        refresh k;
        true
  in

  let moves = ref 0 in
  let progress = ref true in
  (* lint: allow-budget-no-poll "the budget is a move count, not wall time: each applied move strictly decreases cost and a scan is O(m x items), so max_moves bounds the work" *)
  while !progress && !moves < max_moves do
    progress := try_reject () || try_accept () || try_move () || try_swap ();
    if !progress then begin
      incr moves;
      if !moves mod renorm_every = 0 then renormalize st
    end
  done;
  (* [!progress] at exit means the loop was cut off by the budget with an
     improving move just applied — convergence is not proven *)
  (solution_of_state st, !moves, !progress)

let improve_budgeted ?(max_moves = 10_000) (p : Problem.t) (s : Solution.t) =
  match Solution.cost p s with
  | Error msg -> Error ("Local_search.improve: " ^ msg)
  | Ok _ ->
      let solution, moves, exhausted = improve_state ~max_moves p s in
      Ok { solution; moves; exhausted }

let improve ?max_moves (p : Problem.t) (s : Solution.t) =
  match improve_budgeted ?max_moves p s with
  | Ok b -> b.solution
  | Error msg -> invalid_arg msg

let with_local_search ?max_moves algorithm p = improve ?max_moves p (algorithm p)

module Drift_test = struct
  type t = { p : Problem.t; st : state; cap : float }

  let init p s =
    match Solution.cost p s with
    | Error msg -> invalid_arg ("Local_search.Drift_test.init: " ^ msg)
    | Ok _ -> { p; st = state_of_solution p s; cap = Problem.capacity p }

  let random_step rng { st; cap; _ } =
    let m = st.m in
    let j = Rt_prelude.Rng.int rng ~lo:0 ~hi:(m - 1) in
    if st.blen.(j) = 0 then false
    else begin
      let i = Rt_prelude.Rng.int rng ~lo:0 ~hi:(st.blen.(j) - 1) in
      let pos = st.bidx.(j).(i) in
      let w = st.soa.Problem.weights.(pos) in
      if Rt_prelude.Rng.bool rng || m < 2 then begin
        (* relocation to a random other processor, if it fits *)
        let k = Rt_prelude.Rng.int rng ~lo:0 ~hi:(m - 1) in
        if k = j || not (Rt_prelude.Float_cmp.leq (st.loads.(k) +. w) cap)
        then false
        else begin
          remove_at st j i;
          st.loads.(j) <- st.loads.(j) -. w;
          push st k pos;
          st.loads.(k) <- st.loads.(k) +. w;
          st.energies.(j) <- st.soa.Problem.energy st.loads.(j);
          st.energies.(k) <- st.soa.Problem.energy st.loads.(k);
          true
        end
      end
      else begin
        (* exchange with a random item on a random other processor *)
        let k = Rt_prelude.Rng.int rng ~lo:0 ~hi:(m - 1) in
        if k = j || st.blen.(k) = 0 then false
        else begin
          let i2 = Rt_prelude.Rng.int rng ~lo:0 ~hi:(st.blen.(k) - 1) in
          let pos2 = st.bidx.(k).(i2) in
          let w2 = st.soa.Problem.weights.(pos2) in
          let lj = st.loads.(j) -. w +. w2 in
          let lk = st.loads.(k) -. w2 +. w in
          if
            Rt_prelude.Float_cmp.leq lj cap
            && Rt_prelude.Float_cmp.leq lk cap
          then begin
            remove_at st j i;
            st.loads.(j) <- st.loads.(j) -. w;
            remove_at st k i2;
            st.loads.(k) <- st.loads.(k) -. w2;
            push st j pos2;
            st.loads.(j) <- st.loads.(j) +. w2;
            push st k pos;
            st.loads.(k) <- st.loads.(k) +. w;
            st.energies.(j) <- st.soa.Problem.energy st.loads.(j);
            st.energies.(k) <- st.soa.Problem.energy st.loads.(k);
            true
          end
          else false
        end
      end
    end

  let renormalize { st; _ } = renormalize st
  let loads { st; _ } = Array.copy st.loads

  let cost { st; _ } =
    (* same association as [Solution.cost]: left fold over buckets, then
       the penalty sum *)
    let energy_total = Array.fold_left ( +. ) 0. st.energies in
    energy_total +. Taskset.total_penalty_items (build_bucket_list st st.m 0 [])

  let solution { st; _ } = solution_of_state st
end
