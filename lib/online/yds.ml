module Fc = Rt_prelude.Float_cmp
type block = { intensity : float; length : float; work : float }

(* The decomposition runs on a struct of arrays. [arrival], [deadline] and
   [cycles] are indexed by input position; arrival and deadline are
   rewritten in place as windows are excised. [by_deadline.(0 .. len-1)]
   and [by_arrival.(0 .. len-1)] hold the live positions; each critical-
   interval search first sorts them by deadline and by arrival. *)
type soa = {
  arrival : float array;
  deadline : float array;
  cycles : float array;
  by_deadline : int array;
  by_arrival : int array;
  mutable len : int;
}

(* the sweep's scratch: the best candidate so far and the running work
   sum. An all-float record is stored flat, so writing a field boxes
   nothing. [best] stays [neg_infinity] while there is no candidate. *)
type crit = {
  mutable best : float;
  mutable t1 : float;
  mutable t2 : float;
  mutable best_work : float;
  mutable sum : float;
}

let soa_of_jobs jobs =
  let js = Array.of_list jobs in
  let n = Array.length js in
  {
    arrival = Array.map (fun (j : Job.t) -> j.Job.arrival) js;
    deadline = Array.map (fun (j : Job.t) -> j.Job.deadline) js;
    cycles = Array.map (fun (j : Job.t) -> j.Job.cycles) js;
    by_deadline = Array.init n Fun.id;
    by_arrival = Array.init n Fun.id;
    len = n;
  }

let fresh_crit () =
  { best = Float.neg_infinity; t1 = 0.; t2 = 0.; best_work = 0.; sum = 0. }

(* position [a] sorts after position [b] by (key, input position) *)
let after key a b =
  let c = Float.compare key.(a) key.(b) in
  c > 0 || (c = 0 && a > b)

let rec insert key order j i =
  if i >= 0 && after key order.(i) j then begin
    order.(i + 1) <- order.(i);
    insert key order j (i - 1)
  end
  else order.(i + 1) <- j

(* insertion sort of [order.(0 .. len-1)] by (key, input position).
   Excision shifts later times by a rounded subtraction, which can carry
   one below a time that landed exactly on the window's start, so the
   orders are re-sorted before every search. A pass over an order that
   is still sorted is linear; the first search sorts from input order,
   O(n²) at worst, like the sweep itself. *)
let sort_by key order len =
  for k = 1 to len - 1 do
    insert key order order.(k) (k - 1)
  done

(* The maximum-intensity interval [t1, t2] over arrivals × deadlines. For
   each distinct start t1 in ascending order, one pass over the deadline
   order keeps a running sum of the cycles of jobs arriving at or after
   t1; at the end of each equal-deadline group t2 that sum is exactly the
   work contained in [t1, t2]. Candidates are visited in (t1, t2)
   lexicographic order and a later one wins only by more than 1e-15, so
   ties go to the earliest interval. O(n) per start, O(n²) per search.
   Leaves the winner in [c]; [c.best] is [neg_infinity] if there is none. *)
let critical_interval s c =
  c.best <- Float.neg_infinity;
  let len = s.len in
  sort_by s.deadline s.by_deadline len;
  sort_by s.arrival s.by_arrival len;
  for ka = 0 to len - 1 do
    let t1 = s.arrival.(s.by_arrival.(ka)) in
    if ka = 0 || Float.compare s.arrival.(s.by_arrival.(ka - 1)) t1 <> 0
    then begin
      c.sum <- 0.;
      for k = 0 to len - 1 do
        let j = s.by_deadline.(k) in
        if Float.compare s.arrival.(j) t1 >= 0 then
          c.sum <- c.sum +. s.cycles.(j);
        let t2 = s.deadline.(j) in
        if
          (k = len - 1
          || Float.compare s.deadline.(s.by_deadline.(k + 1)) t2 <> 0)
          && Float.compare t2 t1 > 0
          && Float.compare c.sum 0. > 0
        then begin
          let intensity = c.sum /. (t2 -. t1) in
          if Float.compare c.best (intensity -. 1e-15) < 0 then begin
            c.best <- intensity;
            c.t1 <- t1;
            c.t2 <- t2;
            c.best_work <- c.sum
          end
        end
      done
    end
  done
[@@rt.hot "O(n²) sweep per critical interval, O(n) intervals per YDS run"]

(* drop the jobs inside [t1, t2] from both orders, then collapse the
   window onto t1: times inside it map to t1, later times shift left by
   its length. *)
let excise s ~t1 ~t2 =
  let inside j =
    Float.compare s.arrival.(j) t1 >= 0 && Float.compare s.deadline.(j) t2 <= 0
  in
  let compact order =
    let kept = ref 0 in
    for k = 0 to s.len - 1 do
      let j = order.(k) in
      if not (inside j) then begin
        order.(!kept) <- j;
        incr kept
      end
    done;
    !kept
  in
  let kept = compact s.by_deadline in
  ignore (compact s.by_arrival : int);
  s.len <- kept;
  let length = t2 -. t1 in
  (* the squeeze, written out for both times so no float crosses a call *)
  for k = 0 to kept - 1 do
    let j = s.by_deadline.(k) in
    let a = s.arrival.(j) in
    if Float.compare a t1 > 0 then
      s.arrival.(j) <- (if Float.compare a t2 >= 0 then a -. length else t1);
    let d = s.deadline.(j) in
    if Float.compare d t1 > 0 then
      s.deadline.(j) <- (if Float.compare d t2 >= 0 then d -. length else t1)
  done
[@@rt.hot "compaction and squeeze after every critical interval"]

let distinct jobs =
  Rt_task.Task.distinct_ids (List.map (fun (j : Job.t) -> j.Job.id) jobs)

let decompose jobs =
  let s = soa_of_jobs jobs in
  let c = fresh_crit () in
  let rec go acc =
    critical_interval s c;
    if Float.compare c.best Float.neg_infinity = 0 then List.rev acc
    else begin
      let t1 = c.t1 and t2 = c.t2 in
      let b = { intensity = c.best; length = t2 -. t1; work = c.best_work } in
      excise s ~t1 ~t2;
      go (b :: acc)
    end
  in
  go []

let check jobs = if not (distinct jobs) then invalid_arg "Yds: duplicate job ids"

let blocks jobs =
  check jobs;
  decompose jobs

let peak_intensity jobs =
  check jobs;
  let s = soa_of_jobs jobs in
  let c = fresh_crit () in
  critical_interval s c;
  if Float.compare c.best Float.neg_infinity = 0 then 0. else c.best

let energy ~(proc : Rt_power.Processor.t) jobs =
  if not (Rt_power.Processor.is_ideal proc) then
    Error "Yds.energy: ideal processors only"
  else if not (distinct jobs) then Error "Yds.energy: duplicate job ids"
  else begin
    let bs = decompose jobs in
    let s_max = Rt_power.Processor.s_max proc in
    match bs with
    | b :: _ when Rt_prelude.Float_cmp.gt b.intensity s_max ->
        Error "Yds.energy: infeasible (peak intensity above s_max)"
    | _ ->
        let model = proc.Rt_power.Processor.model in
        let floor = Rt_power.Processor.speed_floor proc in
        let leak_while_idle = Rt_power.Processor.idle_rate proc in
        Ok
          (List.fold_left
             (fun acc b ->
               let s = Float.min s_max (Float.max floor b.intensity) in
               if Fc.exact_le s 0. then acc
               else begin
                 let busy = b.work /. s in
                 acc
                 +. (busy *. Rt_power.Power_model.power model s)
                 +. ((b.length -. busy) *. leak_while_idle)
               end)
             0. bs)
  end
