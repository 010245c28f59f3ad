module Fc = Rt_prelude.Float_cmp

(* least-loaded processor (earliest index on ties) on which position [i]
   still fits, or -1. The exact load comparison goes first, so the
   tolerant capacity test runs only on a new minimum — and not at all
   under an unbounded [cap], where it always holds for finite weights.
   Loads and weights are read in place rather than passed, and the
   comparison is [Float.compare], so the only float the scan boxes is
   the sum handed to the tolerant test, once per new minimum. *)
let rec feasible_scan loads m ~bounded cap weights i j best_j =
  if j >= m then best_j
  else
    let l = loads.(j) in
    if
      (best_j < 0 || Float.compare l loads.(best_j) < 0)
      && ((not bounded) || Fc.leq (l +. weights.(i)) cap)
    then feasible_scan loads m ~bounded cap weights i (j + 1) j
    else feasible_scan loads m ~bounded cap weights i (j + 1) best_j

let pack ~weights ~cap ~loads ~accept ~order ~assign =
  let m = Array.length loads in
  let bounded = not (Fc.exact_eq cap Float.infinity) in
  Array.fill loads 0 m 0.;
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    let j = feasible_scan loads m ~bounded cap weights i 0 (-1) in
    if j >= 0 && accept loads j i then begin
      assign.(i) <- j;
      loads.(j) <- loads.(j) +. weights.(i)
    end
    else assign.(i) <- -1
  done

let least_loaded ~weights ~cap ~loads i =
  let bounded = not (Fc.exact_eq cap Float.infinity) in
  feasible_scan loads (Array.length loads) ~bounded cap weights i 0 (-1)

let always _ _ _ = true
