(* Tests for rt_partition: the partition container, the heuristics (LTF,
   RAND, fit family) and the heterogeneous-power (LEUF) solver. *)

open Rt_task
open Rt_partition
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let items_of weights =
  List.mapi (fun id w -> Task.item ~id ~weight:w ()) weights

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_basics () =
  let p = Partition.empty ~m:3 in
  check_int "m" 3 (Partition.m p);
  let it = Task.item ~id:5 ~weight:0.4 () in
  let p = Partition.add p 1 it in
  check_float 1e-12 "load" 0.4 (Partition.load p 1);
  check_float 1e-12 "makespan" 0.4 (Partition.makespan p);
  check_int "size" 1 (Partition.size p);
  check_int "placed on processor 1" 1 (List.length (Partition.bucket p 1))

let test_partition_of_buckets_rejects_duplicates () =
  let it = Task.item ~id:1 ~weight:0.1 () in
  match Partition.of_buckets [| [ it ]; [ it ] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate ids must be rejected"

let test_equal_shape () =
  let a = Task.item ~id:0 ~weight:0.1 () in
  let b = Task.item ~id:1 ~weight:0.2 () in
  let p1 = Partition.of_buckets [| [ a; b ]; [] |] in
  let p2 = Partition.of_buckets [| [ b; a ]; [] |] in
  let p3 = Partition.of_buckets [| [ a ]; [ b ] |] in
  check_bool "order ignored" true (Partition.equal_shape p1 p2);
  check_bool "different placement" false (Partition.equal_shape p1 p3)

(* ------------------------------------------------------------------ *)
(* Heuristics *)

let test_ltf_balances () =
  (* 3,3,2,2,2 on 2 processors is the tight Graham instance: OPT = 6 but
     LPT gives 7 = (4/3 - 1/6)·6, exactly the bound *)
  let items = items_of [ 3.; 3.; 2.; 2.; 2. ] in
  let p = Heuristics.ltf ~m:2 items in
  check_float 1e-12 "tight Graham makespan" 7. (Partition.makespan p);
  check_int "all placed" 5 (Partition.size p);
  (* a genuinely balanced case *)
  let q = Heuristics.ltf ~m:2 (items_of [ 4.; 3.; 3.; 2. ]) in
  check_float 1e-12 "perfect balance" 6. (Partition.makespan q)

let test_unsorted_vs_ltf () =
  (* adversarial order makes the unsorted greedy strictly worse *)
  let items = items_of [ 2.; 2.; 2.; 3.; 3. ] in
  let ltf = Heuristics.ltf ~m:2 items in
  let unsorted = Heuristics.greedy_unsorted ~m:2 items in
  check_bool "ltf at least as good" true
    (Partition.makespan ltf <= Partition.makespan unsorted +. 1e-12)

(* brute-force optimal makespan with processor-symmetry breaking *)
let optimal_makespan ~m weights =
  let arr = Array.of_list weights in
  let loads = Array.make m 0. in
  let best = ref Float.infinity in
  let rec go i used =
    if i = Array.length arr then
      best := Float.min !best (Array.fold_left Float.max 0. loads)
    else
      for j = 0 to min (m - 1) used do
        loads.(j) <- loads.(j) +. arr.(i);
        if Array.fold_left Float.max 0. loads < !best then go (i + 1) (max used (j + 1));
        loads.(j) <- loads.(j) -. arr.(i)
      done
  in
  go 0 0;
  !best

let prop_ltf_graham_bound =
  qtest ~count:80 "LTF satisfies Graham's (4/3 - 1/3m) makespan bound vs OPT"
    QCheck2.Gen.(
      pair (int_range 1 3) (list_size (int_range 1 9) (float_range 0.1 1.)))
    (fun (m, weights) ->
      let items = items_of weights in
      let p = Heuristics.ltf ~m items in
      let opt = optimal_makespan ~m weights in
      let bound = (4. /. 3.) -. (1. /. (3. *. float_of_int m)) in
      Partition.makespan p <= (bound *. opt) +. 1e-9)

let prop_greedy_partitions_complete =
  qtest "greedy partitions place every item exactly once"
    QCheck2.Gen.(
      pair (int_range 1 6) (list_size (int_range 0 20) (float_range 0.05 1.)))
    (fun (m, weights) ->
      let items = items_of weights in
      let p = Heuristics.ltf ~m items in
      Partition.size p = List.length items
      && List.sort compare
           (List.map
              (fun (i : Task.item) -> i.Task.item_id)
              (Partition.all_items p))
         = List.sort compare (List.map (fun (i : Task.item) -> i.Task.item_id) items))

let test_random_is_a_partition () =
  let rng = Rt_prelude.Rng.create ~seed:4 in
  let items = items_of [ 0.1; 0.2; 0.3; 0.4 ] in
  let p = Heuristics.random rng ~m:3 items in
  check_int "all placed" 4 (Partition.size p)

let capacity_respected ~capacity p =
  Array.for_all (fun l -> Fc.leq l capacity) (Partition.loads p)

let test_first_fit () =
  (* already weight-descending, so the sort keeps this order *)
  let items = items_of [ 0.6; 0.5; 0.4; 0.3 ] in
  let p, rejected = Heuristics.first_fit_decreasing ~m:2 ~capacity:1.0 items in
  (* 0.6 -> P0; 0.5 -> P1; 0.4 -> P0; 0.3 -> P1 (0.4 would overflow P0) *)
  check_int "no rejections" 0 (List.length rejected);
  check_float 1e-12 "P0 load" 1.0 (Partition.load p 0);
  check_float 1e-12 "P1 load" 0.8 (Partition.load p 1);
  check_bool "capacity respected" true (capacity_respected ~capacity:1.0 p)

let test_first_fit_rejects () =
  let items = items_of [ 0.9; 0.9; 0.9 ] in
  let _, rejected = Heuristics.first_fit_decreasing ~m:2 ~capacity:1.0 items in
  check_int "third does not fit" 1 (List.length rejected)

let prop_fit_respects_capacity =
  qtest "all fit heuristics respect capacity and account every item"
    QCheck2.Gen.(
      pair (int_range 1 5) (list_size (int_range 0 15) (float_range 0.05 1.4)))
    (fun (m, weights) ->
      let items = items_of weights in
      let p, rejected = Heuristics.first_fit_decreasing ~m ~capacity:1.0 items in
      capacity_respected ~capacity:1.0 p
      && Partition.size p + List.length rejected = List.length items)

(* ------------------------------------------------------------------ *)
(* Hetero (LEUF substrate) *)

let hetero_proc =
  Rt_power.Processor.xscale ~dormancy:Rt_power.Processor.Dormant_disable

let hetero_items factors weights =
  List.mapi
    (fun id (f, w) -> Task.item ~power_factor:f ~id ~weight:w ())
    (List.combine factors weights |> List.map (fun (f, w) -> (f, w)))

let test_hetero_homogeneous_matches_common_speed () =
  (* with all factors 1 the per-task speeds collapse to the common speed *)
  let items = items_of [ 0.2; 0.3 ] in
  match Hetero.processor_speeds hetero_proc ~horizon:10. items with
  | None -> Alcotest.fail "feasible"
  | Some a ->
      List.iter
        (fun (_, s) -> check_float 1e-6 "common speed 0.5" 0.5 s)
        a.Hetero.speeds;
      check_float 1e-6 "time fills horizon" 10. a.Hetero.time_used

let test_hetero_factors_order_speeds () =
  (* hungrier tasks run slower: s_i ∝ f_i^(-1/alpha) *)
  let items = hetero_items [ 1.0; 8.0 ] [ 0.2; 0.2 ] in
  match Hetero.processor_speeds hetero_proc ~horizon:10. items with
  | None -> Alcotest.fail "feasible"
  | Some a -> (
      match a.Hetero.speeds with
      | [ (0, s0); (1, s1) ] ->
          check_bool "high-factor task slower" true (s1 < s0);
          (* f s^alpha equal across tasks: s0/s1 = 8^(1/3) = 2 *)
          check_float 1e-3 "KKT ratio" 2. (s0 /. s1)
      | _ -> Alcotest.fail "two speeds expected")

let test_hetero_infeasible () =
  let items = items_of [ 0.8; 0.8 ] in
  check_bool "over s_max infeasible" true
    (Hetero.processor_speeds hetero_proc ~horizon:1. items = None)

let test_hetero_energy_beats_common_speed () =
  (* with heterogeneous factors, per-task KKT speeds beat one common speed *)
  let items = hetero_items [ 0.5; 4.0 ] [ 0.3; 0.3 ] in
  match Hetero.processor_speeds hetero_proc ~horizon:1. items with
  | None -> Alcotest.fail "feasible"
  | Some a ->
      let common =
        (* both at speed 0.6: per-task energy = w/s · f·Pd(s), plus no
           leakage here (dormant-disable charges leakage separately) *)
        List.fold_left
          (fun acc (it : Task.item) ->
            acc
            +. (it.Task.weight /. 0.6
               *. (it.Task.item_power_factor
                  *. Rt_power.Power_model.dynamic_power
                       hetero_proc.Rt_power.Processor.model 0.6)))
          0. items
      in
      check_bool "KKT speeds no worse" true
        (Fc.leq ~eps:1e-9 a.Hetero.energy common)

let test_leuf_produces_feasible_partition () =
  let rng = Rt_prelude.Rng.create ~seed:12 in
  let items =
    Gen.items rng ~n:12 ~weight_lo:0.05 ~weight_hi:0.4
    |> Gen.heterogeneous_power_factors rng ~lo:0.5 ~hi:3.
  in
  let p = Hetero.leuf hetero_proc ~m:4 ~horizon:1. items in
  check_int "all items placed" 12 (Partition.size p);
  match Hetero.total_energy hetero_proc ~horizon:1. p with
  | Some e -> check_bool "finite energy" true (Float.is_finite e)
  | None -> Alcotest.fail "LEUF produced an infeasible partition"

let prop_estimated_times_capped =
  qtest "estimated execution times never exceed the horizon"
    QCheck2.Gen.(int_range 1 200)
    (fun seed ->
      let rng = Rt_prelude.Rng.create ~seed in
      let items =
        Gen.items rng ~n:8 ~weight_lo:0.05 ~weight_hi:0.6
        |> Gen.heterogeneous_power_factors rng ~lo:0.5 ~hi:2.
      in
      let times = Hetero.estimated_times hetero_proc ~m:3 ~horizon:5. items in
      List.length times = 8
      && List.for_all
           (fun (_, t) -> Fc.geq ~eps:1e-9 t 0. && Fc.leq ~eps:1e-9 t 5.)
           times)

(* ------------------------------------------------------------------ *)
(* Migration (McNaughton + migratory optimum) *)

let mig_proc = Rt_power.Processor.cubic ()

let test_migration_balanced () =
  (* total 1.0 on 2 processors, no dominant task: everything at 0.5 *)
  let items = items_of [ 0.4; 0.3; 0.3 ] in
  match Migration.optimal ~proc:mig_proc ~m:2 ~frame:10. items with
  | Error e -> Alcotest.fail e
  | Ok s ->
      List.iter (fun (_, sp) -> check_float 1e-6 "common speed" 0.5 sp) s.Migration.speeds;
      (* energy = W/s · P(s) = 10·1.0/0.5 · 0.125 = 2.5 *)
      check_float 1e-6 "energy" 2.5 s.Migration.energy;
      check_bool "validates" true
        (Migration.validate ~proc:mig_proc ~m:2 ~frame:10. items s = Ok ())

let test_migration_dominant_task () =
  (* w = 0.9 dominates the 0.5 average: it must run at 0.9, the rest
     slower — strictly better than a common speed of 0.9 *)
  let items = items_of [ 0.9; 0.1 ] in
  match Migration.optimal ~proc:mig_proc ~m:2 ~frame:1. items with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_float 1e-6 "heavy at its weight" 0.9
        (List.assoc 0 s.Migration.speeds);
      check_bool "light one slower" true (List.assoc 1 s.Migration.speeds < 0.9);
      let common = 1.0 /. 0.9 *. (0.9 ** 3.) in
      check_bool "beats the common-speed schedule" true
        (s.Migration.energy < common -. 1e-9);
      check_bool "validates" true
        (Migration.validate ~proc:mig_proc ~m:2 ~frame:1. items s = Ok ())

let test_migration_infeasible () =
  check_bool "single item above s_max" true
    (Result.is_error
       (Migration.optimal ~proc:mig_proc ~m:4 ~frame:1. (items_of [ 1.2 ])));
  check_bool "total above capacity" true
    (Result.is_error
       (Migration.optimal ~proc:mig_proc ~m:2 ~frame:1.
          (items_of [ 0.9; 0.8; 0.8 ])))

let test_migration_empty () =
  match Migration.optimal ~proc:mig_proc ~m:3 ~frame:1. [] with
  | Ok s -> check_float 1e-12 "empty is free" 0. s.Migration.energy
  | Error e -> Alcotest.fail e

let prop_migration_wraparound_valid =
  qtest "wrap-around schedules validate on random feasible instances"
    QCheck2.Gen.(
      pair (int_range 1 5) (list_size (int_range 1 12) (float_range 0.05 0.8)))
    (fun (m, weights) ->
      let items = items_of weights in
      match Migration.optimal ~proc:mig_proc ~m ~frame:100. items with
      | Error _ ->
          (* only legitimate when genuinely infeasible *)
          let total = List.fold_left ( +. ) 0. weights in
          total /. float_of_int m > 1. -. 1e-9
          || List.exists (fun w -> w > 1. -. 1e-9) weights
      | Ok s -> Migration.validate ~proc:mig_proc ~m ~frame:100. items s = Ok ())

let prop_migration_lower_bounds_partition =
  qtest "the migratory optimum never exceeds a partitioned schedule's energy"
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_range 1 10) (float_range 0.05 0.5)))
    (fun (m, weights) ->
      let items = items_of weights in
      let part = Heuristics.ltf ~m items in
      if Rt_prelude.Float_cmp.gt (Partition.makespan part) 1. then true
      else begin
        let part_energy =
          Array.fold_left
            (fun acc u ->
              match Rt_speed.Energy_rate.energy mig_proc ~u ~horizon:100. with
              | Some e -> acc +. e
              | None -> Float.infinity)
            0.
            (Partition.loads part)
        in
        match Migration.energy_lower_bound ~proc:mig_proc ~m ~frame:100. items with
        | None -> false
        | Some lb -> Fc.leq ~eps:1e-6 lb part_energy
      end)

let () =
  Alcotest.run "rt_partition"
    [
      ( "partition",
        [
          Alcotest.test_case "basics" `Quick test_partition_basics;
          Alcotest.test_case "duplicate rejection" `Quick
            test_partition_of_buckets_rejects_duplicates;
          Alcotest.test_case "equal shape" `Quick test_equal_shape;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "ltf balances" `Quick test_ltf_balances;
          Alcotest.test_case "ltf vs unsorted" `Quick test_unsorted_vs_ltf;
          prop_ltf_graham_bound;
          prop_greedy_partitions_complete;
          Alcotest.test_case "random places all" `Quick test_random_is_a_partition;
          Alcotest.test_case "first fit" `Quick test_first_fit;
          Alcotest.test_case "first fit rejects" `Quick test_first_fit_rejects;
          prop_fit_respects_capacity;
        ] );
      ( "hetero",
        [
          Alcotest.test_case "homogeneous = common speed" `Quick
            test_hetero_homogeneous_matches_common_speed;
          Alcotest.test_case "KKT speed ordering" `Quick
            test_hetero_factors_order_speeds;
          Alcotest.test_case "infeasible detection" `Quick test_hetero_infeasible;
          Alcotest.test_case "beats common speed" `Quick
            test_hetero_energy_beats_common_speed;
          Alcotest.test_case "leuf feasible" `Quick
            test_leuf_produces_feasible_partition;
          prop_estimated_times_capped;
        ] );
      ( "migration",
        [
          Alcotest.test_case "balanced" `Quick test_migration_balanced;
          Alcotest.test_case "dominant task" `Quick test_migration_dominant_task;
          Alcotest.test_case "infeasible" `Quick test_migration_infeasible;
          Alcotest.test_case "empty" `Quick test_migration_empty;
          prop_migration_wraparound_valid;
          prop_migration_lower_bounds_partition;
        ] );
    ]
