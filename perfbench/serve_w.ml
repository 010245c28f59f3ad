(* The streaming admission service, [Rt_serve.Serve], on two workloads.

   serve-open: the transparent service (m = 4, [Profitable], queue,
   watchdog, overload detector and faults all off) fed open loop. The
   materialized stream is wrapped in [Source.of_seq]; the wrapper releases
   job k at its scheduled wall time t0 + k / rate. The engine decides each
   arrival before it pulls the next, so job k's verdict time is the next
   pull, and its latency runs from its scheduled time to that pull: time
   spent queued behind a stall counts. A closed-loop pass over the same
   stream gives the saturation throughput.

   serve-faults: the same executor behind every robustness mechanism,
   closed loop: offered load above capacity, a bounded ingress queue, a
   decision rate below the arrival rate, the overload detector, and a
   dense timed fault schedule (derates, one crash, overruns aimed at
   recently arrived jobs). The queue holds 8: a job waits about
   capacity / decision rate, and at 64 nearly every job outwaited its
   deadline (122 of 40k admitted), leaving nothing pending for the
   faults to strike. *)

module Job = Rt_online.Job
module Adm = Rt_online.Admission
module Exec = Rt_online.Admission.Exec
module Serve = Rt_serve.Serve
module Source = Rt_serve.Source
module Fault = Rt_fault.Fault
open Workload

let now = Meter.now
let m = 4
let mean_cycles = 25.

(* Arrivals per stream-time unit that offer [load] per processor. *)
let rate_of_load load = float_of_int m *. load /. mean_cycles

let stream ~seed ~n ~load =
  Array.of_list
    (Job.stream (Rt_prelude.Rng.create ~seed) ~n ~rate:(rate_of_load load)
       ~s_max:1. ~mean_cycles ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3)

let sum = Array.fold_left ( +. ) 0.

(* The jobs a pass feeds, and the index of the last one the engine
   pulled. *)
type feed = { jobs : Job.t array; mutable last : int }

(* [Serve.run] under a deadline. When it fails or overruns, the job last
   pulled and every later one got no verdict: each is a failed
   operation. *)
let serve r ~what ~config feed seq =
  feed.last <- -1;
  let t0 = now () in
  let res =
    Meter.within ~seconds:call_deadline (fun () ->
        Serve.run ~proc ~config (Source.of_seq seq))
  in
  let wall = now () -. t0 in
  let lost msg =
    let k = max 0 feed.last in
    let j = feed.jobs.(k) in
    Report.op_failed r ~n:(Array.length feed.jobs - k) what
      (Printf.sprintf "Serve.run %s; last job pulled: #%d (id %d, arrival %.9g)"
         msg k j.Job.id j.Job.arrival);
    None
  in
  match res with
  | Ok (Ok rep) -> Some (rep, wall)
  | Ok (Error e) -> lost ("failed: " ^ Adm.error_to_string e)
  | Error msg -> lost msg

(* Serve.run inside a "serve" span, with the decision time the report
   measures about itself charged to the executor. *)
let traced_serve r ~what ~config feed seq =
  Meter.span "serve" (fun () ->
      let res = serve r ~what ~config feed seq in
      Option.iter
        (fun ((rep : Serve.report), _) -> Meter.charge "exec" (sum rep.tier_wall))
        res;
      res)

(* The closed passes are timed in chunks of jobs, the units whose best
   time a run keeps: a few milliseconds each, short against the machine's
   slow spells, long enough to include the pass's own pauses. The
   reference kernel runs at each chunk boundary, outside the timed span. *)
let chunk = 1000
let chunk_count n = (n + chunk - 1) / chunk

(* A closed pass's timing: each job's reference-scaled seconds, from its
   pull to the next one. *)
type timing = { job_s : float array; mutable resume : float; mutable scale : float }

let timing n = { job_s = Array.make n 0.; resume = 0.; scale = 1. }

let chunks tm =
  let n = Array.length tm.job_s in
  Array.init (chunk_count n) (fun c ->
      let s = ref 0. in
      for k = c * chunk to min n ((c + 1) * chunk) - 1 do
        s := !s +. tm.job_s.(k)
      done;
      !s)

(* Closed loop: the next job is ready the moment the engine asks. *)
let closed ?timing feed =
  let jobs = feed.jobs in
  let n = Array.length jobs in
  let rec pull k () =
    Option.iter
      (fun tm ->
        let t = now () in
        if k > 0 then tm.job_s.(k - 1) <- (t -. tm.resume) *. tm.scale;
        if k mod chunk = 0 && k < n then begin
          Meter.calibrate ();
          tm.scale <- Meter.scale ()
        end;
        tm.resume <- now ())
      timing;
    if k >= n then Seq.Nil
    else begin
      feed.last <- k;
      Seq.Cons (jobs.(k), pull (k + 1))
    end
  in
  pull 0

let outcome_of = Option.map (fun ((rep : Serve.report), _) -> rep.outcome)

let ratio_lb (rep : Serve.report) = rep.outcome.Adm.total /. rep.lower_bound

let record_counts r (rep : Serve.report) =
  Report.layer r "serve.shed" (float_of_int rep.shed);
  Report.layer r "serve.replan_shed" (float_of_int rep.replan_shed);
  Report.layer r "serve.incidents" (float_of_int (List.length rep.incidents))

(* ---- serve-open ----------------------------------------------------- *)

let open_jobs = 100_000
let open_load = 1.4

(* About half the closed-loop saturation measured on a 2-core x86 box
   (170k-270k jobs/s), so the engine keeps up except while it stalls. *)
let offered_rate = 100_000.
let open_policy = Adm.Profitable
let open_config = { Serve.default_config with policy = open_policy; m }

type open_state = {
  feed : feed;
  mutable t0 : float;  (** wall time job 0 is due *)
  verdict : float array;
  scale : float array;  (** open pass: reference scale per chunk *)
  timing : timing;  (** closed pass *)
  release : float array;  (** when the generator handed job k over *)
  lateness : float array;  (** release - due, when the engine was early *)
  mutable n_late : int;
  mutable wait : float;  (** generator spin, seconds *)
  adv : float array;  (** executor replay: per-call seconds *)
  dec : float array;
  mutable closed_out : Adm.outcome option;
  mutable open_out : Adm.outcome option;
}

(* Releases job k at t0 + k / offered_rate, spinning when the engine asks
   early. Entering the pull for job k+1 is job k's verdict time. At each
   chunk boundary the generator runs the reference kernel first (about
   50 us every 10 ms, which can make it that late once). *)
let open_seq st =
  let jobs = st.feed.jobs in
  let n = Array.length jobs in
  let period = 1. /. offered_rate in
  st.n_late <- 0;
  st.wait <- 0.;
  st.t0 <- now () +. 1e-3;
  let rec spin due = let t = now () in if t < due then spin due else t in
  let rec pull k () =
    let t_in = now () in
    if k > 0 then st.verdict.(k - 1) <- t_in;
    if k >= n then Seq.Nil
    else begin
      if k mod chunk = 0 then begin
        Meter.calibrate ();
        st.scale.(k / chunk) <- Meter.scale ()
      end;
      let t = now () in
      let due = st.t0 +. (float_of_int k *. period) in
      let released =
        if t < due then begin
          let u = spin due in
          st.wait <- st.wait +. (u -. t);
          st.lateness.(st.n_late) <- u -. due;
          st.n_late <- st.n_late + 1;
          u
        end
        else t
      in
      st.release.(k) <- released;
      st.feed.last <- k;
      Seq.Cons (jobs.(k), pull (k + 1))
    end
  in
  pull 0

(* The batch simulator's call sequence driven directly on the executor,
   timing every call: create, then advance_to + decide per arrival, then
   finish. *)
let exec_replay st =
  let jobs = st.feed.jobs in
  let fail e = failwith (Adm.error_to_string e) in
  let ok = function Ok v -> v | Error e -> fail e in
  let exec = ok (Exec.create ~proc ~m) in
  let admitted = ref 0 in
  Array.iteri
    (fun k (j : Job.t) ->
      let t0 = now () in
      ok (Exec.advance_to exec ~until:j.arrival);
      let t1 = now () in
      (match ok (Exec.decide exec ~policy:open_policy j) with
      | Adm.Admitted -> incr admitted
      | Adm.Declined | Adm.Infeasible -> ());
      let t2 = now () in
      st.adv.(k) <- t1 -. t0;
      st.dec.(k) <- t2 -. t1)
    jobs;
  let t0 = now () in
  let out = ok (Exec.finish exec) in
  (out, !admitted, now () -. t0)

let open_batch st r =
  let n = Array.length st.feed.jobs in
  let tracing = !Meter.tracing in
  Report.attempt r (2 * n);
  (* each pass starts from a collected heap: the pauses the engine takes
     when its latency buffer doubles depend on what the heap holds *)
  Meter.span "bench" Gc.full_major;
  let open_res =
    Meter.span "serve" (fun () ->
        let res =
          serve r ~what:"open-loop pass" ~config:open_config st.feed
            (open_seq st)
        in
        Meter.charge "generator" st.wait;
        Option.iter
          (fun ((rep : Serve.report), _) ->
            Meter.charge "exec" (sum rep.tier_wall))
          res;
        res)
  in
  Meter.span "bench" Gc.full_major;
  (* the closed pass is deterministic, so its GC counts repeat *)
  let closed_res, g =
    Meter.gc_of (fun () ->
        traced_serve r ~what:"closed-loop pass" ~config:open_config st.feed
          (closed ~timing:st.timing st.feed))
  in
  if st.closed_out = None then st.closed_out <- outcome_of closed_res;
  if st.open_out = None then st.open_out <- outcome_of open_res;
  let lat =
    Meter.span "bench" (fun () ->
        Array.init n (fun k ->
            (st.verdict.(k) -. (st.t0 +. (float_of_int k /. offered_rate)))
            *. st.scale.(k / chunk)))
  in
  if tracing then begin
    Report.gc r ~ops:n g;
    (* Source.next on its own, closed: the per-pull cost of the layer *)
    let src = Source.of_seq (Array.to_seq st.feed.jobs) in
    let pulls =
      Meter.trace_only @@ fun () ->
      Meter.span "source" (fun () ->
          let t0 = now () in
          let rec drain k =
            match Source.next src with Ok (Some _) -> drain (k + 1) | _ -> k
          in
          let k = drain 0 in
          (k, now () -. t0))
    in
    let pull_s = snd pulls /. float_of_int (max 1 (fst pulls)) in
    Report.layer r "source.pull_ns" (pull_s *. 1e9);
    (match closed_res with
    | Some (rep, wall) ->
        let decide = sum rep.tier_wall in
        Report.layer r "serve.decide_s" decide;
        Report.layer r "serve.other_s" (wall -. decide -. (pull_s *. float_of_int n));
        record_counts r rep
    | None -> ());
    Report.layer r "source.wait_s" st.wait;
    Report.layer r "source.lateness_p99_us"
      (us (Meter.quantile ~n:st.n_late st.lateness 0.99));
    let stalls = ref 0 in
    Array.iteri (fun k v -> if v -. st.release.(k) > 1e-3 then incr stalls) st.verdict;
    Report.layer r "serve.stalls_over_1ms" (float_of_int !stalls);
    Meter.trace_only @@ fun () ->
    Meter.span "bench.replay" (fun () ->
        match Meter.within ~seconds:call_deadline (fun () -> exec_replay st) with
        | Error msg -> Report.op_failed r ~n "executor replay" msg
        | Ok (_, admitted, finish_s) ->
            Meter.charge "exec" (sum st.adv +. sum st.dec +. finish_s);
            Report.layer r "exec.decide_ns_p50" (1e9 *. Meter.quantile st.dec 0.5);
            Report.layer r "exec.decide_ns_p99" (1e9 *. Meter.quantile st.dec 0.99);
            Report.layer r "exec.advance_ns_p50" (1e9 *. Meter.quantile st.adv 0.5);
            Report.layer r "exec.finish_ms" (1e3 *. finish_s);
            Report.layer r "exec.admit_ratio"
              (float_of_int admitted /. float_of_int n))
  end;
  {
    work =
      (if closed_res = None then Array.make (chunk_count n) infinity
       else chunks st.timing);
    latency = (if open_res = None then Array.make n infinity else lat);
    cost_ratio_lb =
      (match closed_res with Some (rep, _) -> ratio_lb rep | None -> 0.);
  }

(* The same generator shifted to start at stream time 2^24: the executor
   stops advancing there (finish = now + remaining/speed rounds back to
   now), so on the seed this probe overruns its deadline and its
   undecided jobs show up as failed operations. Reported as its own
   count, not in the run's failed total, so the workloads themselves stay
   failure-free. *)
let probe_jobs = 2_000
let probe_deadline = 0.5

let horizon_probe st r =
  let shift = 2. ** 24. in
  let jobs =
    Array.init probe_jobs (fun k ->
        let j = st.feed.jobs.(k) in
        Job.make ~id:j.Job.id ~arrival:(j.arrival +. shift) ~cycles:j.cycles
          ~deadline:(j.deadline +. shift) ~penalty:j.penalty)
  in
  let feed = { jobs; last = -1 } in
  let res =
    Meter.within ~seconds:probe_deadline (fun () ->
        Serve.run ~proc ~config:open_config (Source.of_seq (closed feed)))
  in
  let failed, why =
    match res with
    | Ok (Ok _) -> (0, "every job got a verdict")
    | Ok (Error e) -> (probe_jobs - max 0 feed.last, Adm.error_to_string e)
    | Error msg -> (probe_jobs - max 0 feed.last, "Serve.run " ^ msg)
  in
  let k = max 0 feed.last in
  Printf.printf
    "horizon probe (stream shifted to t = 2^24): %d of %d operations failed: \
     %s; last job pulled: #%d (id %d, arrival %.9g)\n"
    failed probe_jobs why k jobs.(k).Job.id jobs.(k).Job.arrival;
  Report.layer r "serve.horizon_failed" (float_of_int failed)

let open_finish st r =
  (match st.closed_out with
  | None -> ()
  | Some closed_out ->
      let jobs = Array.to_list st.feed.jobs in
      (match
         Meter.within ~seconds:call_deadline (fun () ->
             Adm.simulate_mp ~proc ~m ~policy:open_policy jobs)
       with
      | Ok (Ok sim) ->
          Report.check r (Report.same closed_out sim)
            "serve-open: Serve.run outcome differs from Admission.simulate_mp"
      | Ok (Error e) ->
          Report.check r false "serve-open: simulate_mp failed: %s"
            (Adm.error_to_string e)
      | Error msg -> Report.check r false "serve-open: simulate_mp %s" msg);
      (match Meter.within ~seconds:call_deadline (fun () -> exec_replay st) with
      | Ok (out, _, _) ->
          Report.check r (Report.same closed_out out)
            "serve-open: executor replay differs from Serve.run"
      | Error msg -> Report.check r false "serve-open: executor replay %s" msg);
      Option.iter
        (fun o ->
          Report.check r (Report.same closed_out o)
            "serve-open: open-loop outcome differs from closed-loop outcome")
        st.open_out);
  horizon_probe st r

let serve_open =
  {
    name = "serve-open";
    setup =
      (fun ~seed ->
        let jobs = stream ~seed ~n:open_jobs ~load:open_load in
        let f () = Array.make open_jobs 0. in
        let st =
          {
            feed = { jobs; last = -1 };
            t0 = 0.;
            verdict = f ();
            scale = Array.make (chunk_count open_jobs) 1.;
            timing = timing open_jobs;
            release = f ();
            lateness = f ();
            n_late = 0;
            wait = 0.;
            adv = f ();
            dec = f ();
            closed_out = None;
            open_out = None;
          }
        in
        { batch = open_batch st; finish = open_finish st; dispose = ignore });
  }

(* ---- serve-faults --------------------------------------------------- *)

let fault_jobs = 100_000
let fault_load = 1.6
let strikes = 200
let overrun_targets = 4

(* Strikes evenly spaced over the stream: a derate at every 50th from the
   25th (speed cap 0.9, 0.8, 0.7, 0.6), one crash of the last processor
   half-way, and otherwise x2 overruns aimed at the four latest arrivals,
   some of which are admitted and still pending (the others are queued
   or decided, and the overrun misses). *)
let fault_schedule (jobs : Job.t array) =
  let n = Array.length jobs in
  let horizon = jobs.(n - 1).arrival in
  let latest_before at =
    let rec go lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if jobs.(mid).arrival < at then go mid hi else go lo mid
    in
    go 0 n
  in
  List.concat
    (List.init strikes (fun i ->
         let at = horizon *. float_of_int (i + 1) /. float_of_int (strikes + 1) in
         let faults =
           if i = strikes / 2 then [ Fault.Proc_crash { proc = m - 1; at } ]
           else if i mod 50 = 25 then
             [ Fault.Speed_derate { factor = 0.9 -. (0.1 *. float_of_int (i / 50)) } ]
           else
             let k = latest_before at in
             List.init (min overrun_targets (k + 1)) (fun d ->
                 Fault.Wcec_overrun { task_id = jobs.(k - d).id; factor = 2. })
         in
         List.map (fun fault -> { Fault.at; fault }) faults))

type faults_state = {
  ffeed : feed;
  config : Serve.config;
  fault_count : int;
  timing : timing;
  mutable first : Adm.outcome option;
}

let faults_batch st r =
  let n = Array.length st.ffeed.jobs in
  Report.attempt r n;
  let res, g =
    Meter.gc_of (fun () ->
        traced_serve r ~what:"faulted pass" ~config:st.config st.ffeed
          (closed ~timing:st.timing st.ffeed))
  in
  match res with
  | None ->
      {
        work = Array.make (chunk_count n) infinity;
        latency = Array.make n infinity;
        cost_ratio_lb = 0.;
      }
  | Some (rep, wall) ->
      (match st.first with
      | None ->
          st.first <- Some rep.outcome;
          let ids = List.sort compare (rep.outcome.admitted @ rep.outcome.rejected) in
          Report.check r
            (rep.seen = n && ids = List.init n (fun k -> st.ffeed.jobs.(k).Job.id))
            "serve-faults: %d seen, %d decided, expected each of %d jobs once"
            rep.seen (List.length ids) n;
          let struck =
            List.length
              (List.filter
                 (function Rt_serve.Incident.Fault_struck _ -> true | _ -> false)
                 rep.incidents)
          in
          Report.check r (struck = st.fault_count)
            "serve-faults: %d of %d faults struck" struck st.fault_count;
          Report.check r (rep.shed > 0) "serve-faults: ingress never shed"
      | Some first ->
          Report.check r (Report.same first rep.outcome)
            "serve-faults: outcome differs between batches");
      if !Meter.tracing then begin
        Report.gc r ~ops:n g;
        let decide = sum rep.tier_wall in
        Report.layer r "serve.decide_s" decide;
        Report.layer r "serve.other_s" (wall -. decide);
        record_counts r rep
      end;
      Meter.span "bench" (fun () ->
          {
            work = chunks st.timing;
            latency = Array.copy st.timing.job_s;
            cost_ratio_lb = ratio_lb rep;
          })

let serve_faults =
  {
    name = "serve-faults";
    setup =
      (fun ~seed ->
        let jobs = stream ~seed ~n:fault_jobs ~load:fault_load in
        let rate = rate_of_load fault_load in
        let config =
          {
            Serve.default_config with
            policy = Adm.Profitable;
            m;
            queue_capacity = Some 8;
            decision_rate = Some (0.8 *. rate);
            overload =
              Some { Serve.window = 200.; enter_above = 1.; exit_below = 0.8 };
            faults = fault_schedule jobs;
          }
        in
        let st =
          {
            ffeed = { jobs; last = -1 };
            config;
            fault_count = List.length config.faults;
            timing = timing fault_jobs;
            first = None;
          }
        in
        { batch = faults_batch st; finish = ignore; dispose = ignore });
  }
