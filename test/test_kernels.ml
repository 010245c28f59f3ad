(* Differential tests for the shared kernels: the EDF density module
   (Rt_prelude.Edf_density, behind admission, re-homing and online
   shedding), the LTF packer (Rt_partition.Ltf, behind Heuristics.ltf,
   Hetero.leuf and the QoS degradation probes), the YDS critical-
   interval sweep (Rt_online.Yds) and the bucket-energy evaluator
   (Rt_speed.Energy_rate). Each is checked against a
   straightforward list implementation kept here as the reference — for
   exact float equality wherever the two sum in the same order, or the
   sums are exact. The generators draw deadlines and weights from small
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


(* ------------------------------------------------------------------ *)
(* Reference: YDS over job lists, every window re-summed *)

module Job = Rt_online.Job
module Yds = Rt_online.Yds

(* mutable job view on the compressed timeline *)
type jv = { mutable a : float; mutable d : float; c : float }

(* the maximum-intensity interval over arrivals × deadlines, each pair's
   work re-summed over the whole list in list order; ties broken toward
   the earliest interval *)
let yds_critical_reference jvs =
  let starts = List.sort_uniq Float.compare (List.map (fun j -> j.a) jvs) in
  let ends = List.sort_uniq Float.compare (List.map (fun j -> j.d) jvs) in
  let best = ref None in
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          if Fc.exact_gt t2 t1 then begin
            let work =
              List.fold_left
                (fun acc j ->
                  if Fc.exact_ge j.a t1 && Fc.exact_le j.d t2 then acc +. j.c
                  else acc)
                0. jvs
            in
            if Fc.exact_gt work 0. then begin
              let intensity = work /. (t2 -. t1) in
              match !best with
              | Some (bi, _, _, _) when Fc.exact_ge bi (intensity -. 1e-15) -> ()
              | _ -> best := Some (intensity, t1, t2, work)
            end
          end)
        ends)
    starts;
  !best

let yds_blocks_reference jobs =
  let jvs =
    List.map
      (fun (j : Job.t) -> { a = j.Job.arrival; d = j.Job.deadline; c = j.Job.cycles })
      jobs
  in
  let rec go jvs acc =
    match yds_critical_reference jvs with
    | None -> List.rev acc
    | Some (intensity, t1, t2, work) ->
        let length = t2 -. t1 in
        let survivors =
          List.filter
            (fun j -> not (Fc.exact_ge j.a t1 && Fc.exact_le j.d t2))
            jvs
        in
        let squeeze t =
          if Fc.exact_le t t1 then t
          else if Fc.exact_ge t t2 then t -. length
          else t1
        in
        List.iter
          (fun j ->
            j.a <- squeeze j.a;
            j.d <- squeeze j.d)
          survivors;
        go survivors ({ Yds.intensity; length; work } :: acc)
  in
  go jvs []

let yds_energy_reference ~(proc : Rt_power.Processor.t) jobs =
  let bs = yds_blocks_reference jobs in
  let s_max = Rt_power.Processor.s_max proc in
  match bs with
  | b :: _ when Fc.gt b.Yds.intensity s_max ->
      Error "Yds.energy: infeasible (peak intensity above s_max)"
  | _ ->
      let model = proc.Rt_power.Processor.model in
      let s_crit, leak_while_idle =
        match proc.Rt_power.Processor.dormancy with
        | Rt_power.Processor.Dormant_enable _ ->
            (Rt_power.Processor.critical_speed proc, 0.)
        | Rt_power.Processor.Dormant_disable ->
            ( Rt_power.Processor.s_min proc,
              Rt_power.Power_model.power model 0. )
      in
      Ok
        (List.fold_left
           (fun acc (b : Yds.block) ->
             let s = Float.min s_max (Float.max s_crit b.Yds.intensity) in
             if Fc.exact_le s 0. then acc
             else
               let busy = b.Yds.work /. s in
               acc
               +. (busy *. Rt_power.Power_model.power model s)
               +. ((b.Yds.length -. busy) *. leak_while_idle))
           0. bs)

let close_rel a b =
  Fc.exact_le (Float.abs (a -. b)) (1e-12 *. Float.max (Float.abs a) (Float.abs b))

let same_blocks eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Yds.block) (y : Yds.block) ->
         eq x.Yds.intensity y.Yds.intensity
         && eq x.Yds.length y.Yds.length
         && eq x.Yds.work y.Yds.work)
       a b

let jobs_of triples =
  List.mapi
    (fun id (arrival, span, cycles) ->
      Job.make ~id ~arrival ~cycles ~deadline:(arrival +. span) ~penalty:0.)
    triples

(* integer times and cycles from small ranges: arrivals and deadlines are
   shared, windows nest, equal intensities tie exactly, and every sum is
   exact in floating point — so any difference is the tie-break *)
let int_jobs_gen =
  QCheck2.Gen.(
    map jobs_of
      (list_size (int_range 0 18)
         (triple
            (map float_of_int (int_range 0 12))
            (map float_of_int (int_range 1 8))
            (map float_of_int (oneofl [ 1; 2; 2; 3; 4; 6 ])))))

let float_jobs_gen =
  QCheck2.Gen.(
    map jobs_of
      (list_size (int_range 0 25)
         (triple (float_range 0. 100.) (float_range 0.5 30.)
            (float_range 0.1 20.))))

let prop_yds_integer_bit_identical =
  qtest "Yds.blocks = list re-sum, bit for bit on integer instances"
    int_jobs_gen (fun jobs ->
      same_blocks same_bits (Yds.blocks jobs) (yds_blocks_reference jobs))

let prop_yds_float_close =
  qtest "Yds.blocks = list re-sum to 1e-12 relative on float instances"
    float_jobs_gen (fun jobs ->
      same_blocks close_rel (Yds.blocks jobs) (yds_blocks_reference jobs))

(* times on a 0.1 grid: shared arrivals and deadlines that are not exact
   in binary, so an excision's rounded shift (t - (t2 - t1)) can carry a
   later time below a window's start while the times inside the window
   land exactly on it. Windows of equal intensity are common here, and
   their computed intensities differ by rounding noise that the 1e-15
   tie rule cannot absorb at intensities above about 8, so one kernel may
   extract a window whole and the other in two equal-intensity pieces.
   The comparison therefore merges consecutive blocks of equal intensity:
   it checks the speed profile, which is what the energy depends on. *)
let decimal_jobs_gen =
  QCheck2.Gen.(
    map jobs_of
      (list_size (int_range 0 18)
         (triple
            (map (fun k -> float_of_int k *. 0.1) (int_range 0 6))
            (map (fun k -> float_of_int k *. 0.1) (int_range 1 9))
            (oneofl [ 0.01; 0.01; 0.3; 9. ]))))

let merge_equal_intensity blocks =
  List.rev
    (List.fold_left
       (fun acc (b : Yds.block) ->
         match acc with
         | (p : Yds.block) :: rest
           when close_rel p.Yds.intensity b.Yds.intensity ->
             {
               p with
               Yds.length = p.Yds.length +. b.Yds.length;
               work = p.Yds.work +. b.Yds.work;
             }
             :: rest
         | _ -> b :: acc)
       [] blocks)

let prop_yds_decimal_close =
  qtest "Yds.blocks speed profile = list re-sum to 1e-12 on a 0.1 time grid"
    decimal_jobs_gen (fun jobs ->
      same_blocks close_rel
        (merge_equal_intensity (Yds.blocks jobs))
        (merge_equal_intensity (yds_blocks_reference jobs)))

(* the first excision removes [0.1, 1.0]; J1's deadline shifts to
   1.0 - 0.9 = 0.09999999999999998 while J2's lands on 0.1, so the two
   swap places in deadline order *)
let test_yds_rounded_squeeze () =
  let jobs =
    [
      Job.make ~id:0 ~arrival:0.1 ~deadline:1.0 ~cycles:9. ~penalty:0.;
      Job.make ~id:1 ~arrival:0. ~deadline:1.0 ~cycles:0.01 ~penalty:0.;
      Job.make ~id:2 ~arrival:0. ~deadline:0.5 ~cycles:0.01 ~penalty:0.;
    ]
  in
  let bs = Yds.blocks jobs in
  Alcotest.(check int) "two blocks" 2 (List.length bs);
  Alcotest.(check bool) "matches the list re-sum" true
    (same_blocks close_rel bs (yds_blocks_reference jobs))

let prop_yds_energy_close =
  qtest ~count:150 "Yds.energy = list re-sum energy to 1e-12 on Job.stream"
    QCheck2.Gen.(
      quad (int_range 1 10_000) (int_range 1 40) (float_range 0.005 0.04) bool)
    (fun (seed, n, rate, dormant) ->
      let rng = Rt_prelude.Rng.create ~seed in
      let jobs =
        Job.stream rng ~n ~rate ~s_max:1. ~mean_cycles:20. ~slack_lo:1.5
          ~slack_hi:8. ~penalty_factor:1.
      in
      let proc =
        Rt_power.Processor.xscale
          ~dormancy:
            (if dormant then
               Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. }
             else Rt_power.Processor.Dormant_disable)
      in
      match (Yds.energy ~proc jobs, yds_energy_reference ~proc jobs) with
      | Ok e, Ok r -> close_rel e r
      | Error e, Error r -> String.equal e r
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Bucket energy: the scalar evaluator against the plan, and the level
   rate against a brute-force two-point mix *)

module Energy_rate = Rt_speed.Energy_rate
module Power_model = Rt_power.Power_model
module Processor = Rt_power.Processor

let enable = Processor.Dormant_enable { t_sw = 0.; e_sw = 0. }
let disable = Processor.Dormant_disable

let energy_procs =
  let leaky = Power_model.make ~p_ind:0.1 ~coeff:1. ~alpha:3. () in
  (* a linear term makes the critical speed a numeric minimizer *)
  let linear =
    Power_model.make ~p_ind:0.05 ~linear:0.2 ~coeff:1.2 ~alpha:2.5 ()
  in
  let ideal model ~s_min ~s_max dormancy =
    Processor.make ~model ~domain:(Processor.Ideal { s_min; s_max }) ~dormancy
  in
  let levels model ls dormancy =
    Processor.make ~model ~domain:(Processor.Levels ls) ~dormancy
  in
  [
    ("xscale enable", Processor.xscale ~dormancy:enable);
    ("xscale disable", Processor.xscale ~dormancy:disable);
    ("xscale levels enable", Processor.xscale_levels ~dormancy:enable);
    ("xscale levels disable", Processor.xscale_levels ~dormancy:disable);
    ( "cubic no leakage enable",
      ideal (Power_model.make ~coeff:1. ~alpha:3. ()) ~s_min:0. ~s_max:1. enable
    );
    ("cubic disable", Processor.cubic ~p_ind:0.1 ());
    ("s_min enable", ideal leaky ~s_min:0.3 ~s_max:1. enable);
    ("s_min disable", ideal leaky ~s_min:0.3 ~s_max:1. disable);
    ("linear enable", ideal linear ~s_min:0. ~s_max:1.5 enable);
    ("linear disable", ideal linear ~s_min:0.2 ~s_max:1.5 disable);
    ( "linear levels enable",
      levels linear [| 0.1; 0.35; 0.5; 0.9; 1.5 |] enable );
  ]

let energy_loads (proc : Processor.t) =
  let top = Processor.s_max proc in
  let grid = Rt_prelude.Math_util.frange ~lo:0. ~hi:top ~steps:97 in
  let levels =
    match proc.domain with
    | Processor.Levels ls -> Array.to_list ls
    | Processor.Ideal _ -> []
  in
  [ 0.; -1e-17; Processor.s_min proc; Processor.speed_floor proc; top ]
  @ levels @ grid

(* the level rate as the cheapest mix of any two operating points
   (idle/sleep at speed 0, or a level) that delivers [u] *)
let brute_level_rate (proc : Processor.t) u =
  let u = Float.max 0. u in
  let idle = Processor.idle_rate proc in
  let points =
    match proc.domain with
    | Processor.Levels ls ->
        (0., idle)
        :: List.map
             (fun l -> (l, Power_model.power proc.model l))
             (Array.to_list ls)
    | Processor.Ideal _ -> invalid_arg "brute_level_rate: levels only"
  in
  List.fold_left
    (fun best (x1, y1) ->
      List.fold_left
        (fun best (x2, y2) ->
          if Fc.approx_eq x1 u && Fc.approx_eq x2 u then Float.min best y1
          else if Fc.exact_le x1 u && Fc.exact_lt u x2 then
            Float.min best (y1 +. ((u -. x1) /. (x2 -. x1) *. (y2 -. y1)))
          else best)
        best points)
    Float.infinity points

let close_rel_or_zero a b =
  Fc.exact_le (Float.abs (a -. b))
    (1e-12 *. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b)))

let check_energy_proc (name, (proc : Processor.t)) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  List.iter
    (fun u ->
      let plan =
        match Energy_rate.optimal proc ~u with
        | Some p -> p
        | None -> fail "no plan at u = %h" u
      in
      List.iter
        (fun horizon ->
          let e = Energy_rate.prepare_energy proc ~horizon u in
          if not (same_bits e (plan.Energy_rate.rate *. horizon)) then
            fail "prepare_energy %h <> optimal rate %h * %g at u = %h" e
              plan.Energy_rate.rate horizon u)
        [ 1.; 0.37; 10.; 1000. ];
      (match Energy_rate.validate proc ~u plan with
      | Ok () -> ()
      | Error e -> fail "plan at u = %h invalid: %s" u e);
      match proc.domain with
      | Processor.Levels _ ->
          let brute = brute_level_rate proc u in
          if not (close_rel_or_zero plan.Energy_rate.rate brute) then
            fail "level rate %h <> brute-force mix %h at u = %h"
              plan.Energy_rate.rate brute u
      | Processor.Ideal _ -> ())
    (energy_loads proc);
  let over = (Processor.s_max proc *. 1.01) +. 1e-6 in
  if Option.is_some (Energy_rate.optimal proc ~u:over) then
    fail "a plan above s_max";
  match Energy_rate.prepare_energy proc ~horizon:1. over with
  | _ -> fail "prepare_energy above s_max did not raise"
  | exception Invalid_argument _ -> ()

let test_energy_kernel () = List.iter check_energy_proc energy_procs

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
      ( "yds",
        [
          prop_yds_integer_bit_identical;
          prop_yds_float_close;
          prop_yds_decimal_close;
          Alcotest.test_case "rounded squeeze reorders deadlines" `Quick
            test_yds_rounded_squeeze;
          prop_yds_energy_close;
        ] );
      ( "energy",
        [
          Alcotest.test_case "prepare_energy = optimal rate, bit for bit" `Quick
            test_energy_kernel;
        ] );
    ]
