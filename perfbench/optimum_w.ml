(* optimum: the oracle side. Per batch:
   - sequential [Exact.branch_and_bound_budgeted] to a proven optimum on
     150 small frames (n = 12, m = 4, loads spread evenly over
     [1.2, 2.0] with a seeded jitter, the four default penalty models in
     turn);
   - [Par_search.solve_stats] on the same frames with a pool of nproc
     domains (work stealing at nproc only: more domains than cores
     measures the scheduler, not the search);
   - [Serve.run] with [yds_bound] on m = 1 streams, whose YDS bound on the
     admitted set is O(n^3).
   Many small solves rather than a few n = 16 ones: branch-and-bound time
   varies about tenfold between n = 16 instances (0.19-2.1 s), so a batch
   of a few would make the figures depend on the seed more than on the
   code; the same holds for YDS, cubic in the admitted count, hence many
   200-job streams rather than a few 400-job ones. An operation is one
   solve or one stream. *)

module P = Rt_core.Problem
module Exact = Rt_core.Exact
module Par = Rt_parallel.Par_search
module Pool = Rt_parallel.Pool
module Adm = Rt_online.Admission
module Serve = Rt_serve.Serve
open Workload

let now = Meter.now
let strata = [ (12, 150) ]
let yds_streams = 24
let yds_jobs = 200
let frontier_n = 22
let frontier_budget = 0.25

type state = {
  frames : P.t array;
  streams : Rt_online.Job.t list array;
  frontier : P.t;
  mutable tie_noted : bool;
}

let gen_frames ~rng ~n ~count ~m =
  let models = Array.of_list Rt_task.Penalty.default_models in
  List.init count (fun i ->
      let load =
        1.2
        +. 0.8
           *. (float_of_int i +. Rt_prelude.Rng.float rng ~lo:0.25 ~hi:0.75)
           /. float_of_int count
      in
      Rt_expkit.Instances.frame_instance
        ~penalty_model:(snd models.(i mod Array.length models))
        ~proc ~seed:(Rt_prelude.Rng.int rng ~lo:0 ~hi:(1_000_000_000)) ~n ~m ~load ())

let setup ~seed =
  let rng = Rt_prelude.Rng.create ~seed in
  let frames =
    Array.of_list
      (List.concat_map (fun (n, count) -> gen_frames ~rng ~n ~count ~m:4) strata)
  in
  let streams =
    Array.init yds_streams (fun _ ->
        Rt_online.Job.stream
          (Rt_prelude.Rng.create ~seed:(Rt_prelude.Rng.int rng ~lo:0 ~hi:(1_000_000_000)))
          ~n:yds_jobs ~rate:(1.4 /. 25.) ~s_max:1. ~mean_cycles:25. ~slack_lo:1.2
          ~slack_hi:4. ~penalty_factor:1.3)
  in
  let frontier =
    List.hd (gen_frames ~rng ~n:frontier_n ~count:1 ~m:4)
  in
  { frames; streams; frontier; tie_noted = false }

let yds_config = { Serve.default_config with policy = Adm.Profitable; yds_bound = true }

let total p s =
  match Rt_core.Solution.cost p s with Ok c -> c.Rt_core.Solution.total | Error _ -> nan

let batch st r =
  let k = Array.length st.frames in
  let tracing = !Meter.tracing in
  (* every operation's seconds, newest first, in an order that repeats
     across batches *)
  let lat = ref [] in
  (* one operation: the reference kernel, then [f] timed; the raw seconds
     are added to [total], the reference-scaled ones (Meter.scale) are
     the operation's *)
  let op total f =
    Meter.calibrate ();
    let t0 = now () in
    let v = f () in
    let d = now () -. t0 in
    total := !total +. d;
    lat := (d *. Meter.scale ()) :: !lat;
    v
  in
  (* the operation just timed got no answer *)
  let failed ~what msg =
    Report.op_failed r ~n:1 what msg;
    lat := infinity :: List.tl !lat
  in
  (* sequential branch and bound, then the YDS streams: one domain, so
     their GC counts repeat *)
  let seq_nodes = ref 0 and seq_s = ref 0. in
  let opt_sum = ref 0. and lb_sum = ref 0. in
  let yds_s = ref 0. and yds_energy_s = ref 0. and yds_jobs = ref 0 in
  let online = ref 0. and offline = ref 0. in
  let sequential () =
    let optima =
      Array.mapi
        (fun i p ->
          Report.attempt r 1;
          let res =
            op seq_s (fun () ->
                Meter.span "exact" (fun () ->
                    Exact.branch_and_bound_budgeted ~time_budget:call_deadline p))
          in
          match res with
          | Ok b when not b.Exact.exhausted ->
              seq_nodes := !seq_nodes + b.nodes;
              opt_sum := !opt_sum +. total p b.solution;
              lb_sum := !lb_sum +. Rt_core.Bounds.lower_bound p;
              Some b.solution
          | Ok _ ->
              failed ~what:(Printf.sprintf "exact frame %d" i)
                "no proven optimum within the deadline";
              None
          | Error msg ->
              failed ~what:(Printf.sprintf "exact frame %d" i) msg;
              None)
        st.frames
    in
    Array.iteri
      (fun i jobs ->
        Report.attempt r 1;
        let what = Printf.sprintf "yds stream %d" i in
        let res =
          op yds_s (fun () ->
              Meter.within ~seconds:call_deadline (fun () ->
                  if not tracing then
                    Serve.run ~proc ~config:yds_config (Rt_serve.Source.of_list jobs)
                  else
                    (* traced: the same work with YDS called on its own *)
                    match
                      Meter.span "serve" (fun () ->
                          Serve.run ~proc
                            ~config:{ yds_config with yds_bound = false }
                            (Rt_serve.Source.of_list jobs))
                    with
                    | Error _ as e -> e
                    | Ok rep ->
                        let ids = Hashtbl.create 256 in
                        List.iter
                          (fun id -> Hashtbl.replace ids id ())
                          rep.outcome.Adm.admitted;
                        let admitted =
                          List.filter
                            (fun (j : Rt_online.Job.t) -> Hashtbl.mem ids j.id)
                            jobs
                        in
                        let t1 = now () in
                        let e =
                          Meter.span "yds" (fun () ->
                              Rt_online.Yds.energy ~proc admitted)
                        in
                        yds_energy_s := !yds_energy_s +. (now () -. t1);
                        yds_jobs := !yds_jobs + List.length admitted;
                        Ok { rep with yds_energy = Result.to_option e }))
        in
        match res with
        | Error msg -> failed ~what msg
        | Ok (Error e) -> failed ~what (Adm.error_to_string e)
        | Ok (Ok rep) -> (
            match rep.yds_energy with
            | None -> Report.check r false "%s: no YDS energy" what
            | Some y ->
                Report.check r
                  (y <= rep.outcome.energy *. (1. +. 1e-9))
                  "%s: YDS energy %.9g above the online energy %.9g" what y
                  rep.outcome.energy;
                online := !online +. rep.outcome.energy;
                offline := !offline +. y))
      st.streams;
    optima
  in
  let optima, g = Meter.gc_of sequential in
  (* The same frames on the work-stealing search, on a pool that lives for
     this phase only: while idle pool domains exist, every minor
     collection of the sequential phases is a stop-the-world handshake
     with them, which made the YDS streams' times vary 2x from batch to
     batch on a shared 2-core machine. *)
  Pool.with_pool ~domains:(Domain.recommended_domain_count ()) @@ fun pool ->
  let par_nodes = ref 0 and par_s = ref 0. in
  let steals = ref 0 and splits = ref 0 and pruned = ref 0 and ties = ref 0 in
  Array.iteri
    (fun i p ->
      Report.attempt r 1;
      let what = Printf.sprintf "work-stealing frame %d" i in
      let res =
        op par_s (fun () ->
            Meter.span "par_search" (fun () ->
                Par.solve_stats ~pool ~time_budget:call_deadline p))
      in
      match res with
      | Error msg -> failed ~what msg
      | Ok (b, _) when b.Exact.exhausted ->
          failed ~what "no proven optimum within the deadline"
      | Ok (b, stats) -> (
          par_nodes := !par_nodes + b.nodes;
          steals := !steals + List.fold_left ( + ) 0 stats.Par.steals;
          splits := !splits + stats.splits;
          pruned := !pruned + stats.pruned;
          match optima.(i) with
          | None -> ()
          | Some s ->
              let seq = total p s and par = total p b.solution in
              Report.check r
                (Float.abs (seq -. par) <= 1e-9 *. Float.abs seq)
                "%s: cost %.17g differs from the sequential optimum %.17g" what
                par seq;
              if not (Report.same s b.solution) then begin
                incr ties;
                if not st.tie_noted then begin
                  st.tie_noted <- true;
                  Printf.printf
                    "note: %s: the work-stealing solution is not \
                     byte-identical to the sequential one (costs %.17g and \
                     %.17g), which Par_search promises for completed runs\n"
                    what par seq
                end
              end))
    st.frames;
  if tracing then begin
    Report.gc r ~ops:(k + yds_streams) g;
    Report.layer r "exact.nodes" (float_of_int !seq_nodes);
    Report.layer r "exact.nodes_per_s" (float_of_int !seq_nodes /. !seq_s);
    Report.layer r "exact.solve_s" !seq_s;
    Report.layer r "par_search.nodes_per_s" (float_of_int !par_nodes /. !par_s);
    Report.layer r "par_search.solve_s" !par_s;
    Report.layer r "par_search.steals" (float_of_int !steals);
    Report.layer r "par_search.splits" (float_of_int !splits);
    Report.layer r "par_search.pruned" (float_of_int !pruned);
    Report.layer r "par_search.tie_mismatch" (float_of_int !ties);
    Report.layer r "yds.solve_s" !yds_s;
    Report.layer r "yds.energy_s" !yds_energy_s;
    Report.layer r "yds.jobs" (float_of_int !yds_jobs);
    Report.layer r "yds.online_ratio" (!online /. !offline);
    (* past the exact frontier: does the anytime budget hold? *)
    Meter.trace_only @@ fun () ->
    let t0 = now () in
    (match
       Meter.span "par_search" (fun () ->
           Par.solve_stats ~pool ~time_budget:frontier_budget st.frontier)
     with
    | Error msg -> Report.op_failed r ~n:1 "budgeted frontier search" msg
    | Ok _ -> ());
    Report.layer r "par_search.budget_overrun" ((now () -. t0) /. frontier_budget)
  end;
  let lat = Array.of_list (List.rev !lat) in
  { work = lat; latency = lat; cost_ratio_lb = !opt_sum /. !lb_sum }

let workload =
  {
    name = "optimum";
    setup =
      (fun ~seed ->
        let st = setup ~seed in
        { batch = batch st; finish = ignore; dispose = ignore });
  }
