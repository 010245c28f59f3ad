(* Tests for Rt_core.Qos: multi-level service degradation. *)

open Rt_task
open Rt_core
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic = Rt_power.Processor.cubic ()

let problem_exn ~m =
  match Problem.make ~proc:cubic ~m ~horizon:100. [] with
  | Ok p -> p
  | Error e -> Alcotest.failf "problem: %s" e

let items_of specs =
  List.mapi (fun id (w, pen) -> Task.item ~penalty:pen ~id ~weight:w ()) specs

(* ------------------------------------------------------------------ *)

let test_menu_constructors () =
  let it = Task.item ~penalty:8. ~id:3 ~weight:0.6 () in
  let b = Qos.of_item it in
  check_int "binary menu" 2 (List.length b.Qos.levels);
  let g = Qos.graceful ~steps:4 it in
  check_int "graceful menu" 4 (List.length g.Qos.levels);
  (* first level = full service, last = full rejection *)
  (match g.Qos.levels with
  | first :: _ ->
      check_float 1e-9 "full weight" 0.6 first.Qos.weight;
      check_float 1e-9 "no penalty at full service" 0. first.Qos.level_penalty
  | [] -> Alcotest.fail "levels");
  (match List.rev g.Qos.levels with
  | last :: _ ->
      check_float 1e-9 "zero weight" 0. last.Qos.weight;
      check_float 1e-9 "full penalty" 8. last.Qos.level_penalty
  | [] -> Alcotest.fail "levels");
  (* a zero-weight item has no service to degrade: every level would
     have weight 0 *)
  match Qos.graceful (Task.item ~penalty:1. ~id:0 ~weight:0. ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate weights must be rejected"

let test_greedy_light_load_full_service () =
  let p = problem_exn ~m:2 in
  let tasks = List.map (Qos.graceful ~steps:4) (items_of [ (0.3, 50.); (0.2, 40.) ]) in
  let s = Qos.greedy_degrade p tasks in
  check_bool "validates" true (Qos.validate p tasks s = Ok ());
  check_bool "everything at full service" true
    (List.for_all (fun c -> c.Qos.level_index = 0) s.Qos.choices)

let test_greedy_overload_degrades () =
  let p = problem_exn ~m:1 in
  (* total weight 1.8 on one unit processor: must shed at least 0.8 *)
  let tasks =
    List.map (Qos.graceful ~steps:5) (items_of [ (0.9, 30.); (0.9, 30.) ])
  in
  let s = Qos.greedy_degrade p tasks in
  check_bool "validates" true (Qos.validate p tasks s = Ok ());
  check_bool "someone degraded" true
    (List.exists (fun c -> c.Qos.level_index > 0) s.Qos.choices)

let test_cost_catches_mismatched_partition () =
  let p = problem_exn ~m:1 in
  (* penalty far above the energy: full service is chosen *)
  let tasks = List.map Qos.of_item (items_of [ (0.5, 500.) ]) in
  let s = Qos.greedy_degrade p tasks in
  check_int "full service chosen" 0 (List.hd s.Qos.choices).Qos.level_index;
  (* swap the partition for an empty one while claiming full service *)
  let broken =
    { s with Qos.partition = Rt_partition.Partition.empty ~m:1 }
  in
  check_bool "mismatch caught" true (Result.is_error (Qos.cost p tasks broken))

let prop_exhaustive_beats_greedy =
  qtest ~count:30 "exhaustive <= greedy on random graceful menus"
    QCheck2.Gen.(pair (int_range 1 5000) (float_range 0.8 2.0))
    (fun (seed, load) ->
      let rng = Rt_prelude.Rng.create ~seed in
      let items =
        Gen.items rng ~n:4 ~weight_lo:0.2 ~weight_hi:0.7
        |> Penalty.assign
             (Penalty.Proportional { factor = 1.2; jitter = 0.2 })
             rng ~proc:cubic ~horizon:100.
      in
      ignore load;
      let tasks = List.map (Qos.graceful ~steps:3) items in
      let p = problem_exn ~m:2 in
      let sg = Qos.greedy_degrade p tasks in
      let se = Qos.exhaustive p tasks in
      match (Qos.cost p tasks sg, Qos.cost p tasks se) with
      | Ok cg, Ok ce -> Fc.leq ~eps:1e-6 ce cg
      | _ -> false)

let prop_richer_menus_never_hurt =
  qtest ~count:30 "the multi-level optimum never exceeds the binary optimum"
    QCheck2.Gen.(int_range 1 5000)
    (fun seed ->
      let rng = Rt_prelude.Rng.create ~seed in
      let items =
        Gen.items rng ~n:4 ~weight_lo:0.3 ~weight_hi:0.8
        |> Penalty.assign
             (Penalty.Proportional { factor = 1.5; jitter = 0.2 })
             rng ~proc:cubic ~horizon:100.
      in
      let p = problem_exn ~m:1 in
      let binary = List.map Qos.of_item items in
      let multi = List.map (Qos.graceful ~steps:4) items in
      let cb = Qos.cost p binary (Qos.exhaustive p binary) in
      let cm = Qos.cost p multi (Qos.exhaustive p multi) in
      match (cb, cm) with
      | Ok b, Ok m -> Fc.leq ~eps:1e-6 m b
      | _ -> false)

let prop_greedy_solutions_validate =
  qtest ~count:40 "greedy degradation always yields a valid solution"
    QCheck2.Gen.(triple (int_range 1 10_000) (int_range 1 3) (int_range 2 6))
    (fun (seed, m, steps) ->
      let rng = Rt_prelude.Rng.create ~seed in
      let items =
        Gen.items rng ~n:8 ~weight_lo:0.1 ~weight_hi:0.9
        |> Penalty.assign
             (Penalty.Uniform { lo = 0.2; hi = 2. })
             rng ~proc:cubic ~horizon:100.
      in
      let tasks = List.map (Qos.graceful ~steps) items in
      let p = problem_exn ~m in
      let s = Qos.greedy_degrade p tasks in
      Qos.validate p tasks s = Ok ())

let () =
  Alcotest.run "rt_core_qos"
    [
      ( "qos",
        [
          Alcotest.test_case "menu constructors" `Quick test_menu_constructors;
          Alcotest.test_case "light load full service" `Quick
            test_greedy_light_load_full_service;
          Alcotest.test_case "overload degrades" `Quick
            test_greedy_overload_degrades;
          Alcotest.test_case "mismatched partition caught" `Quick
            test_cost_catches_mismatched_partition;
          prop_exhaustive_beats_greedy;
          prop_richer_menus_never_hurt;
          prop_greedy_solutions_validate;
        ] );
    ]
