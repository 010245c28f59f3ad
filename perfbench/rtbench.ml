(* The repository benchmark. One run measures one workload:

     rtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   It sets the workload up seven times (setup_s is the median), then
   repeats the workload's batch until the next one would overrun
   [seconds], and runs the correctness checks. With --trace 0 it reports
   the end-to-end metrics (from each unit's best reference-scaled time
   over the batches); with --trace 1 it alternates traced and
   untraced batches and reports the per-layer metrics, the layers' self
   times and the tracing overhead. Every metric is printed by name with
   its unit; the last line of standard output is one JSON object. A
   per-layer metric a workload does not exercise reads 0. *)

let workloads =
  [ Serve_w.serve_open; Serve_w.serve_faults; Frame_w.workload; Optimum_w.workload ]

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("verdict_p50_us", "us");
    ("verdict_tail_us", "us");
    ("cost_ratio_lb", "1");
    ("top_heap_mb", "MB");
    ("ok_share", "1");
  ]

let per_layer =
  [
    ("source.pull_ns", "ns");
    ("source.wait_s", "s");
    ("source.lateness_p99_us", "us");
    ("serve.decide_s", "s");
    ("serve.other_s", "s");
    ("serve.shed", "count");
    ("serve.replan_shed", "count");
    ("serve.incidents", "count");
    ("serve.stalls_over_1ms", "count");
    ("serve.horizon_failed", "count");
    ("exec.decide_ns_p50", "ns");
    ("exec.decide_ns_p99", "ns");
    ("exec.advance_ns_p50", "ns");
    ("exec.finish_ms", "ms");
    ("exec.admit_ratio", "1");
    ("greedy.ltf_reject_ms", "ms");
    ("greedy.marginal_greedy_ms", "ms");
    ("greedy.density_reject_ms", "ms");
    ("local_search.improve_ms", "ms");
    ("local_search.moves", "count");
    ("qos.greedy_degrade_ms", "ms");
    ("bounds.lower_bound_ms", "ms");
    ("solution.validate_ms", "ms");
    ("exact.nodes", "count");
    ("exact.nodes_per_s", "1/s");
    ("exact.solve_s", "s");
    ("par_search.nodes_per_s", "1/s");
    ("par_search.solve_s", "s");
    ("par_search.steals", "count");
    ("par_search.splits", "count");
    ("par_search.pruned", "count");
    ("par_search.tie_mismatch", "count");
    ("par_search.budget_overrun", "1");
    ("yds.solve_s", "s");
    ("yds.energy_s", "s");
    ("yds.jobs", "count");
    ("yds.online_ratio", "1");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("gc.promoted_words", "words");
    ("trace.overhead", "1");
    ("trace.unattributed_share", "1");
  ]

let setups = 7

let usage () =
  prerr_endline
    ("usage: rtbench --workload <"
    ^ String.concat "|" (List.map (fun (w : Workload.t) -> w.name) workloads)
    ^ "> --seed <int> --seconds <int> --trace <0|1>");
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun (w : Workload.t) -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if int "seconds" < 1 then usage ();
  (w, int "seed", float_of_int (int "seconds"), trace)

let print_metric (name, unit, v) = Printf.printf "  %-28s %16.6g %s\n" name v unit

let json ~(r : Report.t) metrics =
  (* a non-finite value already failed its check; JSON has no NaN *)
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct (max 1 r.attempted) r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v)
              unit)
          metrics))

let () =
  let w, seed, seconds, trace = parse Sys.argv in
  let now = Meter.now in
  let r = Report.create () in
  let rec setup_n k acc =
    (* each set-up starts from a collected heap, as the first one does;
       its time is reference-scaled like every time reported *)
    Gc.full_major ();
    Meter.warm ();
    let t0 = now () in
    let inst = w.setup ~seed in
    let dt = (now () -. t0) *. Meter.scale () in
    if k <= 1 then (inst, dt :: acc)
    else begin
      inst.Workload.dispose ();
      setup_n (k - 1) (dt :: acc)
    end
  in
  let inst, setup_times = setup_n setups [] in
  Printf.printf "%s seed %d: set-up %s s\n%!" w.name seed
    (String.concat ", " (List.map (Printf.sprintf "%.4f") (List.rev setup_times)));
  let t_start = now () in
  (* every batch starts from a collected heap, so earlier batches' garbage
     does not set the GC pauses (and the tail latency) of later ones *)
  let timed_batch () =
    Gc.full_major ();
    Meter.warm ();
    let t0 = now () in
    let s = inst.batch r in
    (s, now () -. t0)
  in
  let metrics =
    if not trace then begin
      let ops_per_s (s : Workload.sample) =
        float_of_int (Array.length s.latency) /. Array.fold_left ( +. ) 0. s.work
      in
      (* Each unit's and each operation's best reference-scaled time over
         the batches. The machine this was tuned on flips between a fast
         and a slow state every few seconds, so a batch's figures, and
         their median over a run, depend on how many slow spells the run
         caught; a unit's fastest repetition depends on that far less, and
         the scaling (Meter.scale) takes out part of what remains. Only
         the running minima are kept, so the run's heap (top_heap_mb) does
         not grow with the number of batches. *)
      let keep_min (best : float array) a =
        if Array.length a <> Array.length best then
          Report.check r false "a batch's operations differ in number"
        else Array.iteri (fun k v -> if v < best.(k) then best.(k) <- v) a
      in
      Printf.printf "batches:\n";
      (* batches until the next one would overrun [seconds] (at least one) *)
      let rec loop best ratios k =
        let (s : Workload.sample), w = timed_batch () in
        Printf.printf "  wall %.3f s  %.6g ops/s  reference scale %.3f\n%!" w
          (ops_per_s s) (Meter.scale ());
        let best =
          match best with
          | None -> { s with work = Array.copy s.work; latency = Array.copy s.latency }
          | Some (b : Workload.sample) ->
              keep_min b.work s.work;
              keep_min b.latency s.latency;
              b
        in
        let ratios = s.cost_ratio_lb :: ratios in
        if now () -. t_start +. w > seconds then (best, ratios, k)
        else loop (Some best) ratios (k + 1)
      in
      let best, ratios, batches = loop None [] 1 in
      let top_heap = Meter.top_heap_mb () in
      inst.finish r;
      let lat = best.latency in
      Printf.printf "best of %d batches: %d operations, %d timed units\n" batches
        (Array.length lat) (Array.length best.work);
      Report.check r
        (List.for_all (Float.equal (List.hd ratios)) ratios)
        "cost_ratio_lb differs between batches";
      let value = function
        | "setup_s" -> Meter.median setup_times
        | "ops_per_s" -> ops_per_s best
        | "verdict_p50_us" -> Workload.us (Meter.quantile lat 0.5)
        | "verdict_tail_us" -> Workload.us (Meter.tail lat)
        | "cost_ratio_lb" -> List.hd ratios
        | "top_heap_mb" -> top_heap
        | "ok_share" ->
            float_of_int (r.attempted - r.failed) /. float_of_int (max 1 r.attempted)
        | name -> invalid_arg name
      in
      List.map (fun (name, unit) -> (name, unit, value name)) end_to_end
    end
    else begin
      (* traced and untraced batches alternate, so both see the same
         machine state; the first traced batch runs first, from the
         deterministic post-set-up heap, which its GC counts need *)
      let rec loop traced untraced selves =
        Meter.reset_trace ();
        Meter.tracing := true;
        let _, wt = timed_batch () in
        Meter.tracing := false;
        let selves = (wt, Meter.self_times ()) :: selves in
        let _, wu = timed_batch () in
        let traced = (wt -. !Meter.extra_s) :: traced and untraced = wu :: untraced in
        if now () -. t_start +. wt +. wu > seconds then (traced, untraced, selves)
        else loop traced untraced selves
      in
      let traced, untraced, selves = loop [] [] [] in
      inst.finish r;
      let overhead = Meter.median traced /. Meter.median untraced in
      let wall, self = List.hd selves in
      let attributed = List.fold_left (fun a (_, s) -> a +. s) 0. self in
      Printf.printf "self time by layer, last traced batch (%.3f s):\n" wall;
      List.iter
        (fun (layer, s) ->
          Printf.printf "  %-16s %9.4f s  %5.1f%%\n" layer s (100. *. s /. wall))
        self;
      let unattributed = (wall -. attributed) /. wall in
      Printf.printf "  %-16s %9.4f s  %5.1f%%\n" "(unattributed)" (wall -. attributed)
        (100. *. unattributed);
      Printf.printf
        "tracing overhead: traced %.3f s / untraced %.3f s (medians of %d, \
         trace-only measurements excluded)\n"
        (Meter.median traced) (Meter.median untraced) (List.length traced);
      Report.layer r "trace.overhead" overhead;
      Report.layer r "trace.unattributed_share" unattributed;
      let known = List.map fst per_layer in
      Hashtbl.iter
        (fun k _ ->
          if not (List.mem k known) then failwith ("undeclared per-layer metric " ^ k))
        r.layers;
      List.map
        (fun (name, unit) ->
          let v =
            match Hashtbl.find_opt r.layers name with
            | Some vs -> Meter.median vs
            | None -> 0.
          in
          (name, unit, v))
        per_layer
    end
  in
  inst.dispose ();
  List.iter
    (fun (name, _, v) -> Report.check r (Float.is_finite v) "%s is not a finite number" name)
    metrics;
  Printf.printf "%s (%s), seed %d:\n" w.name (if trace then "per-layer, traced" else "end-to-end") seed;
  List.iter print_metric metrics;
  Printf.printf "operations: %d attempted, %d failed; checks %s\n" r.attempted r.failed
    (if r.correct then "passed" else "FAILED");
  json ~r metrics
