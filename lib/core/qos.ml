module Fc = Rt_prelude.Float_cmp

open Rt_task

type level = { weight : float; level_penalty : float }

type qtask = { id : int; levels : level list }

let level ~weight ~penalty =
  if Fc.exact_lt weight 0. || not (Float.is_finite weight) then
    invalid_arg "Qos.level: weight must be finite and >= 0";
  if Fc.exact_lt penalty 0. || not (Float.is_finite penalty) then
    invalid_arg "Qos.level: penalty must be finite and >= 0";
  { weight; level_penalty = penalty }

let qtask ~id ~levels =
  if levels = [] then invalid_arg "Qos.qtask: empty level menu";
  let sorted =
    List.sort (fun a b -> Float.compare b.weight a.weight) levels
  in
  let rec distinct = function
    | a :: (b :: _ as rest) ->
        (not (Fc.exact_eq a.weight b.weight)) && distinct rest
    | _ -> true
  in
  if not (distinct sorted) then invalid_arg "Qos.qtask: duplicate weights";
  { id; levels = sorted }

let of_item (it : Task.item) =
  qtask ~id:it.item_id
    ~levels:
      [
        level ~weight:it.weight ~penalty:0.;
        level ~weight:0. ~penalty:it.item_penalty;
      ]

let graceful ?(steps = 4) ?(curve = 1.) (it : Task.item) =
  if steps < 2 then invalid_arg "Qos.graceful: steps < 2";
  if Fc.exact_le curve 0. || not (Float.is_finite curve) then
    invalid_arg "Qos.graceful: curve must be finite and > 0";
  let levels =
    List.map
      (fun k ->
        let f = float_of_int k /. float_of_int (steps - 1) in
        level ~weight:(f *. it.weight)
          ~penalty:(((1. -. f) ** curve) *. it.item_penalty))
      (Rt_prelude.Math_util.range 0 (steps - 1))
  in
  qtask ~id:it.item_id ~levels

type choice = { task_id : int; level_index : int }

type solution = {
  choices : choice list;
  partition : Rt_partition.Partition.t;
}

(* the menus as arrays, in task order: per task, its level weights and
   its level penalties. Every reader of a menu goes through this one
   conversion *)
let level_arrays tasks =
  let menu f =
    Array.of_list
      (List.map (fun t -> Array.of_list (List.map f t.levels)) tasks)
  in
  (menu (fun l -> l.weight), menu (fun l -> l.level_penalty))

let cost (p : Problem.t) tasks solution =
  let ( let* ) = Result.bind in
  let* () =
    if
      List.sort compare (List.map (fun c -> c.task_id) solution.choices)
      = List.sort compare (List.map (fun t -> t.id) tasks)
    then Ok ()
    else Error "Qos.cost: choices are not one-per-task"
  in
  let lw, lp = level_arrays tasks in
  let position = List.mapi (fun i t -> (t.id, i)) tasks in
  (* the (task position, level index) a choice names *)
  let chosen c =
    match List.assoc_opt c.task_id position with
    | None -> Error "Qos: choice for a foreign task"
    | Some i ->
        if c.level_index >= 0 && c.level_index < Array.length lw.(i) then
          Ok (i, c.level_index)
        else Error "Qos: level index out of range"
  in
  (* the penalty sum, and the positive-weight choices the partition must
     carry exactly *)
  let* penalty, expected =
    List.fold_left
      (fun acc c ->
        let* sum, xs = acc in
        let* i, k = chosen c in
        let w = lw.(i).(k) in
        Ok
          ( sum +. lp.(i).(k),
            if Fc.exact_gt w 0. then (c.task_id, w) :: xs else xs ))
      (Ok (0., [])) solution.choices
  in
  let placed =
    List.map
      (fun (it : Task.item) -> (it.item_id, it.weight))
      (Rt_partition.Partition.all_items solution.partition)
  in
  let norm =
    List.sort (fun (ida, wa) (idb, wb) ->
        match Int.compare ida idb with
        | 0 -> Float.compare wa wb
        | c -> c)
  in
  let* () =
    if
      List.length placed = List.length expected
      && List.for_all2
           (fun (ida, wa) (idb, wb) ->
             ida = idb && Rt_prelude.Float_cmp.approx_eq ~eps:1e-9 wa wb)
           (norm placed) (norm expected)
    then Ok ()
    else Error "Qos.cost: partition disagrees with the chosen levels"
  in
  let loads = Rt_partition.Partition.loads solution.partition in
  let* () =
    if
      Array.for_all
        (fun l -> Rt_prelude.Float_cmp.leq l (Problem.capacity p))
        loads
    then Ok ()
    else Error "Qos.cost: a processor exceeds capacity"
  in
  let energy =
    Array.fold_left (fun acc l -> acc +. Problem.bucket_energy p l) 0. loads
  in
  Ok (energy +. penalty)

let validate (p : Problem.t) tasks solution =
  let ( let* ) = Result.bind in
  let* _ = cost p tasks solution in
  let* sim =
    Rt_sim.Frame_sim.build ~proc:p.Problem.proc
      ~frame_length:p.Problem.horizon solution.partition
  in
  Rt_sim.Frame_sim.validate sim

(* dense index by task id; ids are arbitrary so map through an assoc *)
let with_dense_ids tasks f =
  let ids = List.map (fun t -> t.id) tasks in
  if not (Task.distinct_ids ids) then invalid_arg "Qos: duplicate task ids";
  let renumbered =
    List.mapi (fun i t -> { t with id = i }) tasks
  in
  let back = Array.of_list ids in
  f renumbered (fun i -> back.(i))

(* LTF visit order over task positions: weight descending, position
   ascending — [Task.compare_item_weight_desc] on the items a choice
   realizes *)
let ltf_compare weights a b =
  let c = Float.compare weights.(b) weights.(a) in
  if c <> 0 then c else Int.compare a b

let greedy_degrade (p : Problem.t) tasks =
  with_dense_ids tasks (fun tasks back ->
      (* the menus as arrays, converted once; then per task the chosen
         level and that level's weight *)
      let lw, lp = level_arrays tasks in
      let n = Array.length lw and m = p.Problem.m in
      let idx = Array.make n 0 in
      let weights = Array.map (fun w -> w.(0)) lw in
      (* the LTF visit order of [weights]. Zero-weight tasks stay in it,
         last: they add nothing to any load, so the loads are bit-identical
         to those of packing the positive-weight items alone *)
      let order = Array.init n Fun.id in
      Array.sort (ltf_compare weights) order;
      let probe = Array.copy order in
      let loads = Array.make m 0. and assign = Array.make n (-1) in
      let pack order =
        Rt_partition.Ltf.pack ~weights ~cap:Float.infinity ~loads
          ~accept:Rt_partition.Ltf.always ~order ~assign
      in
      (* per-processor memo of [energy load] (pure, so bit-identical); the
         NaN sentinel never matches a real load *)
      let energy = (Problem.soa p).Problem.energy in
      let cached_load = Array.make m Float.nan in
      let cached_energy = Array.make m 0. in
      (* the cost of the current choice packed in [order] — infinite when
         a processor is over capacity *)
      let cost_of order =
        pack order;
        let makespan = ref 0. in
        for j = 0 to m - 1 do
          makespan := Float.max !makespan loads.(j)
        done;
        if Fc.gt !makespan (Problem.capacity p) then Float.infinity
        else begin
          let total = ref 0. in
          for j = 0 to m - 1 do
            if Float.compare cached_load.(j) loads.(j) <> 0 then begin
              cached_load.(j) <- loads.(j);
              cached_energy.(j) <- energy loads.(j)
            end;
            total := !total +. cached_energy.(j)
          done;
          let penalty = ref 0. in
          for i = 0 to n - 1 do
            penalty := !penalty +. lp.(i).(idx.(i))
          done;
          !total +. !penalty
        end
      in
      (* task [t] to its (lower) level [k], and [probe] to the resulting
         visit order: [order] with [t] moved later, past the tasks that now
         sort before it *)
      let lower t k =
        idx.(t) <- k;
        weights.(t) <- lw.(t).(k);
        Array.blit order 0 probe 0 n;
        let rec find s = if order.(s) = t then s else find (s + 1) in
        let rec shift s =
          if s + 1 < n && ltf_compare weights order.(s + 1) t < 0 then begin
            probe.(s) <- order.(s + 1);
            shift (s + 1)
          end
          else probe.(s) <- t
        in
        shift (find 0)
      in
      let degradable t = idx.(t) < Array.length lw.(t) - 1 in
      let probe_cost t =
        let k = idx.(t) in
        lower t (k + 1);
        let c = cost_of probe in
        idx.(t) <- k;
        weights.(t) <- lw.(t).(k);
        c
      in
      (* the degradable task whose next step sheds the most weight, the
         earliest on ties; -1 once every task is fully degraded *)
      let heaviest () =
        let best = ref (-1) and best_d = ref 0. in
        for t = 0 to n - 1 do
          if degradable t then begin
            let d = lw.(t).(idx.(t)) -. lw.(t).(idx.(t) + 1) in
            if !best < 0 || not (Fc.exact_ge !best_d d) then begin
              best := t;
              best_d := d
            end
          end
        done;
        !best
      in
      let rec loop () =
        let current = cost_of order in
        let infeasible = Fc.exact_eq current Float.infinity in
        (* the best single-step degradation, the earliest on ties *)
        let best = ref (-1) and best_c = ref 0. in
        for t = 0 to n - 1 do
          if degradable t then begin
            let c = probe_cost t in
            if !best < 0 || not (Fc.exact_le !best_c c) then begin
              best := t;
              best_c := c
            end
          end
        done;
        if
          !best >= 0
          && (Fc.exact_lt !best_c (current -. (1e-12 *. Float.max 1. current))
             || infeasible)
        then begin
          (* no single step restores feasibility: march toward it by
             shedding the most weight *)
          let t =
            if infeasible && Fc.exact_eq !best_c Float.infinity then heaviest ()
            else !best
          in
          if t >= 0 then begin
            lower t (idx.(t) + 1);
            Array.blit probe 0 order 0 n;
            loop ()
          end
        end
      in
      loop ();
      pack order;
      (* the positive-weight choices, under their original ids *)
      let buckets = Array.make m [] in
      Array.iter
        (fun i ->
          if Fc.exact_gt weights.(i) 0. then
            buckets.(assign.(i)) <-
              Task.item ~id:(back i) ~weight:weights.(i) () :: buckets.(assign.(i)))
        order;
      {
        choices =
          Array.to_list
            (Array.mapi (fun i k -> { task_id = back i; level_index = k }) idx);
        partition = Rt_partition.Partition.of_buckets buckets;
      })

let exhaustive (p : Problem.t) tasks =
  with_dense_ids tasks (fun tasks back ->
      let lw, lp = level_arrays tasks in
      let n = Array.length lw in
      let combos = Array.fold_left (fun acc w -> acc * Array.length w) 1 lw in
      if combos > 200_000 then
        invalid_arg "Qos.exhaustive: menu product too large";
      let idx = Array.make n 0 in
      let best = ref None in
      (* the positive-weight choices as items, in task order, priced so
         that the search never rejects one it can place *)
      let rec priced i acc =
        if i < 0 then acc
        else
          let w = lw.(i).(idx.(i)) in
          priced (i - 1)
            (if Fc.exact_gt w 0. then
               Task.item ~penalty:1e12 ~id:i ~weight:w () :: acc
             else acc)
      in
      let consider () =
        let s =
          Rt_exact.Search.branch_and_bound ~m:p.Problem.m
            ~capacity:(Problem.capacity p)
            ~bucket_cost:(Problem.bucket_energy p)
            (priced (n - 1) [])
        in
        if s.Rt_exact.Search.rejected = [] then begin
          let penalty = ref 0. in
          for i = 0 to n - 1 do
            penalty := !penalty +. lp.(i).(idx.(i))
          done;
          let total = s.Rt_exact.Search.cost +. !penalty in
          match !best with
          | Some (_, _, bc) when Rt_prelude.Float_cmp.exact_le bc total -> ()
          | _ -> best := Some (Array.copy idx, s.Rt_exact.Search.partition, total)
        end
      in
      let rec enumerate i =
        if i = n then consider ()
        else
          for k = 0 to Array.length lw.(i) - 1 do
            idx.(i) <- k;
            enumerate (i + 1)
          done
      in
      enumerate 0;
      match !best with
      | None ->
          (* no feasible combination even fully degraded: fall back *)
          greedy_degrade p (List.map (fun t -> { t with id = back t.id }) tasks)
      | Some (bidx, part, _) ->
          {
            choices =
              List.map
                (fun t -> { task_id = back t.id; level_index = bidx.(t.id) })
                tasks;
            partition =
              Rt_partition.Partition.of_buckets
                (Array.init (Rt_partition.Partition.m part) (fun j ->
                     List.map
                       (fun (it : Task.item) ->
                         Task.item ~id:(back it.item_id) ~weight:it.weight ())
                       (Rt_partition.Partition.bucket part j)));
          })
