(* frame-plan: the paper's offline heuristics on a seeded batch of frames.

   The batch is stratified so that seeds change the frames but not the
   mix: 64 frames of n = 40, 8 of n = 200 and one of n = 1000, with m
   alternating 8 and 16, the four default penalty models in turn, and
   loads spread evenly over [1.2, 2.0] with a seeded jitter inside each
   frame's share of the range. Many small frames and a single large one
   keep the batch time from hanging on a few instances: a seed should
   change the frames, not the figures. Each frame is
   planned with ltf-ls (the CLI default), marginal-ls and density-ls: the
   greedy, then [Local_search.improve_budgeted]. n = 1000 frames skip
   density-ls, whose repair alone takes 0.5-0.65 s there and would
   dominate the batch; every fourth n = 40 frame also gets
   [Qos.greedy_degrade] over graceful 4-level menus (3 s at n = 200, so
   small frames only). Every plan is checked by [Solution.validate] and
   against [Bounds.lower_bound]. An operation is one plan. Nearly nine in
   ten plans are the ~1 ms n = 40 ones, so the median plan latency falls
   well inside that cluster (at one in two it sat on the edge between the
   fast and the slow plans and jumped between them), and the tail, the
   11th largest, falls in the middle of the 24 n = 200 plans (among the
   slowest few of 48 it moved by a quarter from seed to seed). *)

module P = Rt_core.Problem
module Greedy = Rt_core.Greedy
module Ls = Rt_core.Local_search
module Qos = Rt_core.Qos
module Solution = Rt_core.Solution
open Workload

let now = Meter.now

let strata = [ (40, 64); (200, 8); (1000, 1) ]
let algorithms =
  [
    ("ltf-ls", Greedy.ltf_reject, "greedy.ltf_reject_ms");
    ("marginal-ls", Greedy.marginal_greedy, "greedy.marginal_greedy_ms");
    ("density-ls", Greedy.density_reject, "greedy.density_reject_ms");
  ]

type frame = {
  problem : P.t;
  plans : (string * Greedy.algorithm * string) list;
  menus : Qos.qtask list option;
}

let frames ~seed =
  let rng = Rt_prelude.Rng.create ~seed in
  let models = Array.of_list Rt_task.Penalty.default_models in
  List.concat_map
    (fun (n, count) ->
      List.init count (fun i ->
          let load =
            1.2
            +. 0.8
               *. (float_of_int i +. Rt_prelude.Rng.float rng ~lo:0.25 ~hi:0.75)
               /. float_of_int count
          in
          let problem =
            Rt_expkit.Instances.frame_instance
              ~penalty_model:(snd models.(i mod Array.length models))
              ~proc ~seed:(Rt_prelude.Rng.int rng ~lo:0 ~hi:(1_000_000_000)) ~n
              ~m:(if i mod 2 = 0 then 8 else 16)
              ~load ()
          in
          {
            problem;
            plans =
              (if n >= 1000 then
                 List.filter (fun (name, _, _) -> name <> "density-ls") algorithms
               else algorithms);
            menus =
              (if n <= 40 && i mod 4 = 0 then
                 Some (List.map Qos.graceful problem.P.items)
               else None);
          }))
    strata

let ms = 1e3

type state = {
  frames : frame list;
  mutable costs : float list option;  (** first batch's plan costs *)
}

let batch st r =
  let time = Hashtbl.create 8 in
  let add k d =
    Hashtbl.replace time k (d +. Option.value (Hashtbl.find_opt time k) ~default:0.)
  in
  (* time [f] as layer [name] (a span when tracing) *)
  let timed name key f =
    Meter.span name (fun () ->
        let t0 = now () in
        let v = f () in
        add key (now () -. t0);
        v)
  in
  (* newest first; every unit and operation gets an entry, [infinity]
     when it fails, so the order repeats across batches *)
  let work = ref [] and lat = ref [] and costs = ref [] in
  (* a unit starts after a run of the reference kernel; its time is
     reference-scaled (Meter.scale) *)
  let start () =
    Meter.calibrate ();
    now ()
  in
  let unit_done t0 =
    let d = now () -. t0 in
    work := (d *. Meter.scale ()) :: !work
  in
  let op_done t0 =
    unit_done t0;
    lat := List.hd !work :: !lat
  in
  let op_failed () =
    work := infinity :: !work;
    lat := infinity :: !lat
  in
  let cost_sum = ref 0. and lb_sum = ref 0. and moves = ref 0 in
  let failed what msg =
    Report.op_failed r ~n:1 what msg;
    op_failed ()
  in
  let batch_gc () =
    List.iteri
      (fun fi fr ->
        let p = fr.problem in
        let what name = Printf.sprintf "frame %d (n=%d) %s" fi (List.length p.P.items) name in
        let t0 = start () in
        match
          Meter.within ~seconds:call_deadline (fun () ->
              timed "bounds" "bounds.lower_bound_ms" (fun () ->
                  Rt_core.Bounds.lower_bound p))
        with
        | Error msg ->
            (* the frame's plans cannot be checked: they fail with it *)
            let ops = List.length fr.plans + Option.fold ~none:0 ~some:(fun _ -> 1) fr.menus in
            Report.attempt r ops;
            Report.op_failed r ~n:ops (what "lower bound") msg;
            work := infinity :: !work;
            for _ = 1 to ops do op_failed () done
        | Ok lb ->
            unit_done t0;
            List.iter
              (fun (name, alg, key) ->
                Report.attempt r 1;
                let t0 = start () in
                match
                  Meter.within ~seconds:call_deadline (fun () ->
                      let s0 = timed "greedy" key (fun () -> alg p) in
                      let b =
                        timed "local_search" "local_search.improve_ms" (fun () ->
                            Ls.improve_budgeted p s0)
                      in
                      match b with
                      | Error e -> Error e
                      | Ok b ->
                          let v =
                            timed "solution" "solution.validate_ms" (fun () ->
                                Solution.validate p b.Ls.solution)
                          in
                          Ok (b, v))
                with
                | Error msg | Ok (Error msg) -> failed (what name) msg
                | Ok (Ok (b, v)) -> (
                    op_done t0;
                    moves := !moves + b.Ls.moves;
                    Report.check r (v = Ok ()) "%s: plan fails Solution.validate"
                      (what name);
                    match Solution.cost p b.Ls.solution with
                    | Error msg -> Report.check r false "%s: %s" (what name) msg
                    | Ok c ->
                        Report.check r
                          (c.Solution.total >= lb *. (1. -. 1e-9))
                          "%s: cost %.9g below the lower bound %.9g" (what name)
                          c.Solution.total lb;
                        costs := c.Solution.total :: !costs;
                        cost_sum := !cost_sum +. c.Solution.total;
                        lb_sum := !lb_sum +. lb))
              fr.plans;
            Option.iter
              (fun menus ->
                Report.attempt r 1;
                let t0 = start () in
                match
                  Meter.within ~seconds:call_deadline (fun () ->
                      let s =
                        timed "qos" "qos.greedy_degrade_ms" (fun () ->
                            Qos.greedy_degrade p menus)
                      in
                      Meter.span "qos" (fun () -> Qos.validate p menus s))
                with
                | Error msg -> failed (what "qos") msg
                | Ok v ->
                    op_done t0;
                    Report.check r (v = Ok ()) "%s: degradation plan fails Qos.validate"
                      (what "qos"))
              fr.menus)
      st.frames
  in
  let (), g = Meter.gc_of batch_gc in
  let plans = List.length !lat in
  (match st.costs with
  | None -> st.costs <- Some !costs
  | Some first ->
      Report.check r (first = !costs) "frame-plan: plan costs differ between batches");
  if !Meter.tracing then begin
    Report.gc r ~ops:plans g;
    List.iter
      (fun key ->
        Report.layer r key (ms *. Option.value (Hashtbl.find_opt time key) ~default:0.))
      ([
         "bounds.lower_bound_ms";
         "local_search.improve_ms";
         "solution.validate_ms";
         "qos.greedy_degrade_ms";
       ]
      @ List.map (fun (_, _, k) -> k) algorithms);
    Report.layer r "local_search.moves" (float_of_int !moves)
  end;
  {
    work = Array.of_list (List.rev !work);
    latency = Array.of_list (List.rev !lat);
    cost_ratio_lb = !cost_sum /. !lb_sum;
  }

let workload =
  {
    name = "frame-plan";
    setup =
      (fun ~seed ->
        let st = { frames = frames ~seed; costs = None } in
        { batch = batch st; finish = ignore; dispose = ignore });
  }
