open Rt_task

type policy = No_op | Shed_density | Shed_marginal | Repartition_ltf

let policy_name = function
  | No_op -> "no-op"
  | Shed_density -> "shed-density"
  | Shed_marginal -> "shed-marginal"
  | Repartition_ltf -> "repartition-ltf"

let all_policies = [ No_op; Shed_density; Shed_marginal; Repartition_ltf ]

type report = {
  misses : int list;
  shed : int list;
  extra_penalty : float;
  energy_fault_free : float;
  energy_faulty : float;
  energy_delta : float;
  residual : Rt_core.Solution.t option;
}

let heuristic = function
  | No_op -> None
  | Shed_density -> Some Rt_core.Greedy.density_reject
  | Shed_marginal -> Some Rt_core.Greedy.marginal_greedy
  | Repartition_ltf -> Some Rt_core.Greedy.ltf_reject

let diff_ids a b = List.filter (fun x -> not (List.mem x b)) a

let sorted_dedup l = List.sort_uniq compare l

(* The residual instance: every original item, weights inflated by the
   scenario's overrun factors, to be re-packed on the surviving (derated)
   platform. Ids and penalties are preserved so shed sets and penalty
   deltas can be traced back to the original instance. *)
let residual_problem (p : Rt_core.Problem.t) sc =
  let survivors = Fault.surviving sc ~m:p.Rt_core.Problem.m in
  match survivors with
  | [] -> Error "Degrade: no surviving processors"
  | _ -> (
      match Fault.derated_proc sc p.Rt_core.Problem.proc with
      | Error e -> Error ("Degrade: " ^ e)
      | Ok proc' ->
          let items' =
            List.map
              (fun (it : Task.item) ->
                {
                  it with
                  weight = it.weight *. Fault.overrun_factor sc it.item_id;
                })
              p.Rt_core.Problem.items
          in
          (match
             Rt_core.Problem.make ~proc:proc' ~m:(List.length survivors)
               ~horizon:p.Rt_core.Problem.horizon items'
           with
          | Ok p' -> Ok p'
          | Error e -> Error ("Degrade: residual instance: " ^ e)))

let recover_frame (p : Rt_core.Problem.t) sc
    ~(baseline : Rt_core.Solution.t) policy =
  let ( let* ) = Result.bind in
  let* () = Fault.validate ~m:p.Rt_core.Problem.m sc in
  let* base_cost =
    match Rt_core.Solution.cost p baseline with
    | Ok c -> Ok c
    | Error e -> Error ("Degrade: infeasible baseline: " ^ e)
  in
  let proc = p.Rt_core.Problem.proc in
  let frame_length = p.Rt_core.Problem.horizon in
  match heuristic policy with
  | None ->
      (* ride out the faults on the original plan and count the damage *)
      let* sim =
        Rt_sim.Frame_sim.build ~proc ~frame_length
          baseline.Rt_core.Solution.partition
      in
      let* rep =
        Rt_sim.Frame_sim.run_injected
          ~inject:(Fault.frame_injection sc ~proc)
          sim
      in
      Ok
        {
          misses = sorted_dedup rep.Rt_sim.Frame_sim.missed;
          shed = [];
          extra_penalty = 0.;
          energy_fault_free = base_cost.Rt_core.Solution.energy;
          energy_faulty = rep.Rt_sim.Frame_sim.faulty_energy;
          energy_delta =
            rep.Rt_sim.Frame_sim.faulty_energy
            -. base_cost.Rt_core.Solution.energy;
          residual = None;
        }
  | Some alg ->
      let* p' = residual_problem p sc in
      let s' = alg p' in
      let* cost' =
        match Rt_core.Solution.cost p' s' with
        | Ok c -> Ok c
        | Error e -> Error ("Degrade: residual solution: " ^ e)
      in
      (* replay the degraded plan concretely: the plan was built against
         inflated weights on the derated platform, but the verdict uses the
         ORIGINAL weights times the scenario's overruns, so the check is
         honest rather than circular *)
      let proc' = p'.Rt_core.Problem.proc in
      let* sim' =
        Rt_sim.Frame_sim.build ~proc:proc' ~frame_length
          s'.Rt_core.Solution.partition
      in
      let nominal id =
        match Rt_core.Problem.item p id with
        | Some it -> it.weight
        | None -> 0.
      in
      let* rep =
        Rt_sim.Frame_sim.run_injected ~nominal
          ~inject:
            {
              Rt_sim.Frame_sim.overrun = Fault.overrun_factor sc;
              crash = (fun _ -> None);
              speed_cap = Fault.speed_cap sc proc;
            }
          sim'
      in
      Ok
        {
          misses = sorted_dedup rep.Rt_sim.Frame_sim.missed;
          shed =
            diff_ids
              (Rt_core.Solution.rejected_ids s')
              (Rt_core.Solution.rejected_ids baseline);
          extra_penalty =
            cost'.Rt_core.Solution.penalty
            -. base_cost.Rt_core.Solution.penalty;
          energy_fault_free = base_cost.Rt_core.Solution.energy;
          energy_faulty = rep.Rt_sim.Frame_sim.faulty_energy;
          energy_delta =
            rep.Rt_sim.Frame_sim.faulty_energy
            -. base_cost.Rt_core.Solution.energy;
          residual = Some s';
        }

(* ------------------------------------------------------------------ *)
(* Periodic side: per-processor EDF over one hyper-period.             *)

let edf_energy (proc : Rt_power.Processor.t) (o : Rt_sim.Edf_sim.outcome) =
  o.Rt_sim.Edf_sim.exec_energy
  +.
  match proc.dormancy with
  | Rt_power.Processor.Dormant_enable _ -> o.Rt_sim.Edf_sim.idle_energy_sleep
  | Rt_power.Processor.Dormant_disable -> o.Rt_sim.Edf_sim.idle_energy_awake

let speed_for (proc : Rt_power.Processor.t) load =
  match Rt_power.Processor.nearest_level_above proc load with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf
           "Degrade: load %.6g exceeds the platform's top speed %.6g" load
           (Rt_power.Processor.s_max proc))

(* Simulate every bucket of a partition under per-processor injections;
   collect miss ids and total energy. *)
let simulate_buckets ~proc ~horizon ~tasks ~inject_of part =
  let ( let* ) = Result.bind in
  let m = Rt_partition.Partition.m part in
  let rec go j misses energy =
    if j = m then Ok (sorted_dedup misses, energy)
    else begin
      let bucket = Rt_partition.Partition.bucket part j in
      let btasks =
        List.filter_map
          (fun (it : Task.item) -> Taskset.periodic_by_id tasks it.item_id)
          bucket
      in
      let* speed = speed_for proc (Rt_partition.Partition.load part j) in
      let* o =
        Rt_sim.Edf_sim.run_injected ~horizon ~proc ~speed
          ~inject:(inject_of j) btasks
      in
      let bucket_misses =
        List.map
          (fun (ms : Rt_sim.Edf_sim.miss) -> ms.Rt_sim.Edf_sim.task_id)
          o.Rt_sim.Edf_sim.misses
      in
      go (j + 1) (bucket_misses @ misses) (energy +. edf_energy proc o)
    end
  in
  go 0 [] 0.

let recover_periodic ~proc ~m ~(tasks : Task.periodic list) sc policy =
  let ( let* ) = Result.bind in
  let* () = Fault.validate ~m sc in
  let* hp =
    match Taskset.hyper_period_checked tasks with
    | Ok hp -> Ok hp
    | Error e -> Error ("Degrade: " ^ e)
  in
  let horizon = float_of_int hp in
  let* p = Rt_core.Problem.of_periodic ~proc ~m tasks in
  (* accept-as-much-as-possible is the nominal plan the faults disrupt *)
  let baseline = Rt_core.Greedy.ltf_reject p in
  let* base_cost =
    match Rt_core.Solution.cost p baseline with
    | Ok c -> Ok c
    | Error e -> Error ("Degrade: baseline: " ^ e)
  in
  let* _, energy_fault_free =
    simulate_buckets ~proc ~horizon ~tasks
      ~inject_of:(fun _ -> Rt_sim.Edf_sim.no_injection)
      baseline.Rt_core.Solution.partition
  in
  match heuristic policy with
  | None ->
      let* misses, energy_faulty =
        simulate_buckets ~proc ~horizon ~tasks
          ~inject_of:(fun j -> Fault.edf_injection sc ~proc ~proc_index:j)
          baseline.Rt_core.Solution.partition
      in
      Ok
        {
          misses;
          shed = [];
          extra_penalty = 0.;
          energy_fault_free;
          energy_faulty;
          energy_delta = energy_faulty -. energy_fault_free;
          residual = None;
        }
  | Some alg ->
      let* p' = residual_problem p sc in
      let s' = alg p' in
      let* cost' =
        match Rt_core.Solution.cost p' s' with
        | Ok c -> Ok c
        | Error e -> Error ("Degrade: residual solution: " ^ e)
      in
      let proc' = p'.Rt_core.Problem.proc in
      (* survivors carry the overruns but, having been re-planned on the
         derated platform, see no crash and no cap beyond their own s_max *)
      let* misses, energy_faulty =
        simulate_buckets ~proc:proc' ~horizon ~tasks
          ~inject_of:(fun _ ->
            {
              Rt_sim.Edf_sim.overrun = Fault.overrun_factor sc;
              crash_at = None;
              speed_cap = None;
            })
          s'.Rt_core.Solution.partition
      in
      Ok
        {
          misses;
          shed =
            diff_ids
              (Rt_core.Solution.rejected_ids s')
              (Rt_core.Solution.rejected_ids baseline);
          extra_penalty =
            cost'.Rt_core.Solution.penalty
            -. base_cost.Rt_core.Solution.penalty;
          energy_fault_free;
          energy_faulty;
          energy_delta = energy_faulty -. energy_fault_free;
          residual = Some s';
        }

(* ------------------------------------------------------------------ *)
(* Online re-planning for the streaming service (lib/serve). *)

module Fc = Rt_prelude.Float_cmp

type residual_job = {
  rj_id : int;
  rj_remaining : float;
  rj_deadline : float;
  rj_penalty : float;
}

let shed_online ~now ~cap jobs =
  let arr = Array.of_list jobs in
  let n = Array.length arr in
  (* deadline order with ties broken by input position; each round reads
     the kept jobs off it, so survivors are summed in that order *)
  let by_deadline = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare arr.(a).rj_deadline arr.(b).rj_deadline in
      if c <> 0 then c else Int.compare a b)
    by_deadline;
  let dropped = Array.make n false in
  (* density of the kept set: compacted in deadline order into scratch
     arrays, then one {!Rt_prelude.Edf_density} walk *)
  let remaining = Array.make n 0. in
  let deadlines = Array.make n 0. in
  let density () =
    let len = ref 0 in
    Array.iter
      (fun p ->
        if not dropped.(p) then begin
          remaining.(!len) <- arr.(p).rj_remaining;
          deadlines.(!len) <- arr.(p).rj_deadline;
          incr len
        end)
      by_deadline;
    Rt_prelude.Edf_density.density ~now ~remaining ~deadlines ~len:!len
  in
  (* cheapest rejection value per remaining cycle goes first — the online
     restatement of Shed_density's penalty-per-weight order; ties break
     on id (then position, matching the stable list sort this replaces)
     so the shed set is deterministic *)
  let drop_order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c =
        Float.compare
          (arr.(a).rj_penalty /. arr.(a).rj_remaining)
          (arr.(b).rj_penalty /. arr.(b).rj_remaining)
      in
      if c <> 0 then c
      else begin
        let c = compare arr.(a).rj_id arr.(b).rj_id in
        if c <> 0 then c else Int.compare a b
      end)
    drop_order;
  let rec go shed di =
    if Fc.leq (density ()) cap then List.rev shed
    else if di >= n then List.rev shed (* kept is empty or cap < 0 *)
    else begin
      let id = arr.(drop_order.(di)).rj_id in
      for k = 0 to n - 1 do
        if arr.(k).rj_id = id then dropped.(k) <- true
      done;
      go (id :: shed) (di + 1)
    end
  in
  go [] 0
