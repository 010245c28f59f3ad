(* Differential tests for the shared kernels: the EDF density module
   (Rt_prelude.Edf_density, behind admission, re-homing and online
   shedding) and the LTF packer (Rt_partition.Ltf, behind Heuristics.ltf,
   Hetero.leuf and the QoS degradation probes). Each is checked for exact
   float equality against a straightforward list implementation kept here
   as the reference. The generators draw deadlines and weights from small
   grids so exact ties are common: ties are where the summation order —
   and therefore the bits — could differ. *)

open Rt_task
open Rt_partition
module Fc = Rt_prelude.Float_cmp
module Edf_density = Rt_prelude.Edf_density

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Reference: EDF density over a list *)

(* stable-sort the (remaining, deadline) pairs by deadline, then fold
   cumulative work over time-to-deadline *)
let density_pairs ~now pairs =
  let sorted = List.stable_sort (fun (_, da) (_, db) -> Float.compare da db) pairs in
  let rec go work best = function
    | [] -> best
    | (remaining, deadline) :: rest ->
        let work = work +. remaining in
        let slack = deadline -. now in
        if Fc.exact_le slack 1e-9 then go work Float.infinity rest
        else go work (Float.max best (work /. slack)) rest
  in
  go 0. 0. sorted

let deadline_grid = QCheck2.Gen.oneofl [ 5.; 10.; 10.; 20.; 20.; 20.; 35. ]
(* values whose sums round, so a different summation order shows in the
   bits *)
let remaining_grid = QCheck2.Gen.oneofl [ 0.1; 0.7; 0.7; 1. /. 3.; 2.3; 5.55 ]

type op = Insert of float * float | Remove of int

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (frequency
         [
           (3, map2 (fun r d -> Insert (r, d)) remaining_grid deadline_grid);
           (1, map (fun k -> Remove k) (int_range 0 1000));
         ]))

(* Replay [ops] on a newest-first list (the reference) and on deadline-
   sorted arrays kept in Edf_density's tie order. Removals pick a live
   entry by index into the list. *)
let replay ops =
  let cap = List.length ops in
  let remaining = Array.make (cap + 1) 0. in
  let deadlines = Array.make (cap + 1) 0. in
  let keys = Array.make (cap + 1) 0 in
  let len = ref 0 in
  let list = ref [] in
  List.iteri
    (fun key op ->
      match op with
      | Insert (r, d) ->
          let pos = Edf_density.insert_index ~deadlines ~len:!len d in
          let shift = !len - pos in
          Array.blit remaining pos remaining (pos + 1) shift;
          Array.blit deadlines pos deadlines (pos + 1) shift;
          Array.blit keys pos keys (pos + 1) shift;
          remaining.(pos) <- r;
          deadlines.(pos) <- d;
          keys.(pos) <- key;
          incr len;
          list := (key, r, d) :: !list
      | Remove k -> (
          match !list with
          | [] -> ()
          | l ->
              let victim, _, _ = List.nth l (k mod List.length l) in
              list := List.filter (fun (key, _, _) -> key <> victim) l;
              let rec find i = if keys.(i) = victim then i else find (i + 1) in
              let pos = find 0 in
              let shift = !len - pos - 1 in
              Array.blit remaining (pos + 1) remaining pos shift;
              Array.blit deadlines (pos + 1) deadlines pos shift;
              Array.blit keys (pos + 1) keys pos shift;
              decr len))
    ops;
  (remaining, deadlines, !len, List.map (fun (_, r, d) -> (r, d)) !list)

let prop_density_matches_list =
  qtest "Edf_density = stable-sort list fold, with and without a trial"
    QCheck2.Gen.(
      quad ops_gen (oneofl [ 0.; 4.; 5.; 9.5; 20. ]) remaining_grid deadline_grid)
    (fun (ops, now, r_t, d_t) ->
      let remaining, deadlines, len, pairs = replay ops in
      same_bits
        (Edf_density.density ~now ~remaining ~deadlines ~len)
        (density_pairs ~now pairs)
      && same_bits
           (Edf_density.density_with ~now ~remaining ~deadlines ~len
              ~trial_remaining:r_t ~trial_deadline:d_t)
           (density_pairs ~now ((r_t, d_t) :: pairs)))

(* The executor's probes against the fold the list executor ran: its
   pending jobs newest-first, any trial job consed in front. *)
let exec_proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let prop_exec_density_matches_list =
  qtest "Exec.density_of / density_with = list fold over residuals"
    QCheck2.Gen.(
      triple ops_gen (int_range 0 1) (pair remaining_grid deadline_grid))
    (fun (ops, trial_proc, (r_t, d_t)) ->
      let module Exec = Rt_online.Admission.Exec in
      match Exec.create ~proc:exec_proc ~m:2 with
      | Error _ -> false
      | Ok exec ->
          let live = ref [] in
          List.iteri
            (fun id op ->
              match op with
              | Insert (r, d) ->
                  let j =
                    Rt_online.Job.make ~id ~arrival:0. ~cycles:r ~deadline:d
                      ~penalty:1.
                  in
                  ignore (Exec.place exec ~proc:(id mod 2) (j, r));
                  live := id :: !live
              | Remove k -> (
                  match !live with
                  | [] -> ()
                  | l ->
                      let id = List.nth l (k mod List.length l) in
                      live := List.filter (fun x -> x <> id) l;
                      ignore (Exec.remove_active exec ~id)))
            ops;
          let pairs =
            List.map
              (fun ((j : Rt_online.Job.t), r) -> (r, j.Rt_online.Job.deadline))
              (Exec.residuals exec ~proc:trial_proc)
          in
          same_bits (Exec.density_of exec ~proc:trial_proc) (density_pairs ~now:0. pairs)
          && same_bits
               (Exec.density_with exec ~proc:trial_proc ~remaining:r_t
                  ~deadline:d_t)
               (density_pairs ~now:0. ((r_t, d_t) :: pairs)))

(* ------------------------------------------------------------------ *)
(* Reference: online shedding, one sort-and-filter per round *)

let shed_reference ~now ~cap (jobs : Rt_fault.Degrade.residual_job list) =
  let open Rt_fault.Degrade in
  let drop_order =
    List.stable_sort
      (fun a b ->
        let c =
          Float.compare (a.rj_penalty /. a.rj_remaining)
            (b.rj_penalty /. b.rj_remaining)
        in
        if c <> 0 then c else compare a.rj_id b.rj_id)
      jobs
  in
  let rec go shed order =
    let kept = List.filter (fun j -> not (List.mem j.rj_id shed)) jobs in
    let density =
      density_pairs ~now (List.map (fun j -> (j.rj_remaining, j.rj_deadline)) kept)
    in
    if Fc.leq density cap then List.rev shed
    else
      match order with
      | [] -> List.rev shed
      | j :: rest -> go (j.rj_id :: shed) rest
  in
  go [] drop_order

let prop_shed_matches_reference =
  qtest "Degrade.shed_online = per-round sort-and-filter shed"
    QCheck2.Gen.(
      quad
        (list_size (int_range 0 25)
           (triple remaining_grid deadline_grid (oneofl [ 0.5; 1.; 1.; 2.; 5. ])))
        (oneofl [ 0.; 2.; 5. ])
        (oneofl [ 0.2; 0.5; 1.; 2. ])
        (int_range 0 1000))
    (fun (specs, now, cap, salt) ->
      (* distinct ids in scrambled order, so id ties and position ties
         disagree *)
      let jobs =
        List.mapi
          (fun k (r, d, pen) ->
            {
              Rt_fault.Degrade.rj_id = (k * 7919 + salt) mod 10007;
              rj_remaining = r;
              rj_deadline = d;
              rj_penalty = pen *. r;
            })
          specs
      in
      Rt_fault.Degrade.shed_online ~now ~cap jobs = shed_reference ~now ~cap jobs)

(* ------------------------------------------------------------------ *)
(* Reference: LTF by successive Partition.add onto the least-loaded
   processor (lowest index on ties) *)

let min_load_index p =
  let loads = Partition.loads p in
  let best = ref 0 in
  Array.iteri (fun j l -> if Fc.exact_lt l loads.(!best) then best := j) loads;
  !best

let greedy_reference ~m items =
  List.fold_left
    (fun p it -> Partition.add p (min_load_index p) it)
    (Partition.empty ~m) items

(* same buckets in the same order, and bit-identical cached loads *)
let same_partition a b =
  Partition.m a = Partition.m b
  && List.for_all
       (fun j ->
         List.map (fun (it : Task.item) -> (it.item_id, it.weight)) (Partition.bucket a j)
         = List.map (fun (it : Task.item) -> (it.item_id, it.weight)) (Partition.bucket b j)
         && same_bits (Partition.load a j) (Partition.load b j))
       (List.init (Partition.m a) Fun.id)

let weight_grid = QCheck2.Gen.oneofl [ 0.1; 0.1; 0.25; 0.3; 0.3; 0.45; 0.7 ]

let items_gen =
  QCheck2.Gen.(
    map
      (fun (ws, salt) ->
        List.mapi
          (fun k w -> Task.item ~id:((k * 7919 + salt) mod 10007) ~weight:w ())
          ws)
      (pair (list_size (int_range 0 30) weight_grid) (int_range 0 1000)))

let prop_ltf_matches_reference =
  qtest "Heuristics.ltf / greedy_unsorted = Partition.add fold"
    QCheck2.Gen.(pair (int_range 1 6) items_gen)
    (fun (m, items) ->
      same_partition (Heuristics.ltf ~m items)
        (greedy_reference ~m (List.sort Task.compare_item_weight_desc items))
      && same_partition (Heuristics.greedy_unsorted ~m items)
           (greedy_reference ~m items))

let hetero_proc =
  Rt_power.Processor.xscale ~dormancy:Rt_power.Processor.Dormant_disable

(* LEUF: LTF on the estimated times, recorded with the items' weights *)
let leuf_reference proc ~m ~horizon items =
  let times = Hetero.estimated_times proc ~m ~horizon items in
  let time_of (it : Task.item) =
    match List.assoc_opt it.item_id times with Some t -> t | None -> 0.
  in
  let sorted =
    List.sort
      (fun a b ->
        let c = Float.compare (time_of b) (time_of a) in
        if c <> 0 then c else compare a.Task.item_id b.Task.item_id)
      items
  in
  let est_load = Array.make m 0. in
  List.fold_left
    (fun p it ->
      let best = ref 0 in
      Array.iteri (fun j l -> if Fc.exact_lt l est_load.(!best) then best := j) est_load;
      est_load.(!best) <- est_load.(!best) +. time_of it;
      Partition.add p !best it)
    (Partition.empty ~m) sorted

let prop_leuf_matches_reference =
  qtest ~count:100 "Hetero.leuf = estimated-time Partition.add fold"
    QCheck2.Gen.(
      triple (int_range 1 4) items_gen (oneofl [ 0.5; 1.; 1.; 2.; 3. ]))
    (fun (m, items, f) ->
      let items =
        List.mapi
          (fun k (it : Task.item) ->
            Task.item ~power_factor:(if k mod 2 = 0 then 1. else f)
              ~id:it.item_id ~weight:it.weight ())
          items
      in
      same_partition
        (Hetero.leuf hetero_proc ~m ~horizon:1. items)
        (leuf_reference hetero_proc ~m ~horizon:1. items))

(* ------------------------------------------------------------------ *)
(* Reference: QoS degradation over item lists, re-packed per probe *)

module Qos = Rt_core.Qos
module Problem = Rt_core.Problem

let qos_reference (p : Problem.t) (tasks : Qos.qtask list) =
  let back = Array.of_list (List.map (fun (t : Qos.qtask) -> t.Qos.id) tasks) in
  let menus = Array.of_list (List.map (fun (t : Qos.qtask) -> t.Qos.levels) tasks) in
  let n = Array.length menus in
  let idx = Array.make n 0 in
  let level i = List.nth menus.(i) idx.(i) in
  let items_of_choices () =
    List.filter_map
      (fun i ->
        let l = level i in
        if Fc.exact_gt l.Qos.weight 0. then
          Some (Task.item ~id:i ~weight:l.Qos.weight ())
        else None)
      (List.init n Fun.id)
  in
  let pack_cost () =
    let part =
      greedy_reference ~m:p.Problem.m
        (List.sort Task.compare_item_weight_desc (items_of_choices ()))
    in
    if Fc.gt (Partition.makespan part) (Problem.capacity p) then
      (part, Float.infinity)
    else begin
      let energy =
        Array.fold_left
          (fun acc l -> acc +. Problem.bucket_energy p l)
          0. (Partition.loads part)
      in
      let penalty =
        List.fold_left
          (fun acc i -> acc +. (level i).Qos.level_penalty)
          0. (List.init n Fun.id)
      in
      (part, energy +. penalty)
    end
  in
  let degradable i = idx.(i) < List.length menus.(i) - 1 in
  let rec loop () =
    let _, current = pack_cost () in
    let best = ref None in
    for i = 0 to n - 1 do
      if degradable i then begin
        idx.(i) <- idx.(i) + 1;
        let _, c = pack_cost () in
        idx.(i) <- idx.(i) - 1;
        match !best with
        | Some (_, cb) when Fc.exact_le cb c -> ()
        | _ -> best := Some (i, c)
      end
    done;
    match !best with
    | Some (i, c)
      when Fc.exact_lt c (current -. (1e-12 *. Float.max 1. current))
           || Fc.exact_eq current Float.infinity ->
        if Fc.exact_eq c Float.infinity && Fc.exact_eq current Float.infinity
        then begin
          let heaviest = ref None in
          for i = 0 to n - 1 do
            if degradable i then begin
              let drop =
                (level i).Qos.weight -. (List.nth menus.(i) (idx.(i) + 1)).Qos.weight
              in
              match !heaviest with
              | Some (_, d) when Fc.exact_ge d drop -> ()
              | _ -> heaviest := Some (i, drop)
            end
          done;
          match !heaviest with
          | Some (i, _) ->
              idx.(i) <- idx.(i) + 1;
              loop ()
          | None -> ()
        end
        else begin
          idx.(i) <- idx.(i) + 1;
          loop ()
        end
    | _ -> ()
  in
  loop ();
  let part, _ = pack_cost () in
  ( List.init n (fun i -> (back.(i), idx.(i))),
    Partition.of_buckets
      (Array.init (Partition.m part) (fun j ->
           List.map
             (fun (it : Task.item) ->
               Task.item ~id:back.(it.item_id) ~weight:it.weight ())
             (Partition.bucket part j))) )

let prop_qos_matches_reference =
  qtest ~count:150 "Qos.greedy_degrade = list-based pack_cost greedy"
    QCheck2.Gen.(
      quad (int_range 1 3) items_gen
        (list_size (return 30) (pair (int_range 2 5) (oneofl [ 0.5; 1.; 2.; 3. ])))
        (oneofl [ 1.; 1.; 4.; 10. ]))
    (fun (m, items, menus, pen) ->
      let tasks =
        List.mapi
          (fun k (it : Task.item) ->
            let it =
              Task.item ~penalty:(pen *. float_of_int (1 + (k mod 3)))
                ~id:it.item_id ~weight:it.weight ()
            in
            match List.nth menus k with
            | 2, _ -> Qos.of_item it
            | steps, curve -> Qos.graceful ~steps ~curve it)
          items
      in
      match Problem.make ~proc:(Rt_power.Processor.cubic ()) ~m ~horizon:100. [] with
      | Error _ -> false
      | Ok p ->
          let s = Qos.greedy_degrade p tasks in
          let choices, partition = qos_reference p tasks in
          List.map (fun c -> (c.Qos.task_id, c.Qos.level_index)) s.Qos.choices
          = choices
          && same_partition s.Qos.partition partition)

let () =
  Alcotest.run "kernels"
    [
      ( "edf-density",
        [
          prop_density_matches_list;
          prop_exec_density_matches_list;
          prop_shed_matches_reference;
        ] );
      ( "ltf",
        [
          prop_ltf_matches_reference;
          prop_leuf_matches_reference;
          prop_qos_matches_reference;
        ] );
    ]
