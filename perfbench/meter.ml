(* Clocks, wall-clock deadlines, order statistics and the benchmark's
   in-memory tracer. Everything here is benchmark-side: the program is
   only ever timed from outside, around calls to its public functions. *)

let now = Rt_prelude.Clock.now

(* ---- deadlines ------------------------------------------------------ *)

exception Deadline_passed

let armed = ref false

(* Run [f] under a wall-clock deadline. The program has calls that can
   livelock (the executor stops advancing once stream time passes 2^24),
   so every timed call goes through here: SIGALRM raises out of the
   callee at its next poll point and the call is reported as overrun
   instead of hanging the benchmark. The timer re-fires every 50 ms past
   the deadline in case a callee swallows the first exception. Only
   single-domain calls use it; the parallel search is bounded by its own
   [time_budget]. Calls do not nest. *)
let within ~seconds f =
  let set v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = (if v > 0. then 0.05 else 0.); it_value = v })
  in
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> if !armed then raise Deadline_passed))
  in
  armed := true;
  set seconds;
  let result =
    match f () with
    | v ->
        armed := false;
        Ok v
    | exception Deadline_passed ->
        armed := false;
        Error (Printf.sprintf "overran its %.3g s deadline" seconds)
    | exception e ->
        armed := false;
        Error ("raised " ^ Printexc.to_string e)
  in
  set 0.;
  Sys.set_signal Sys.sigalrm previous;
  result

(* ---- order statistics ----------------------------------------------- *)

(* Nearest-rank quantile of the first [n] entries of [a]; sorts a copy. *)
let quantile ?n a q =
  let n = Option.value n ~default:(Array.length a) in
  if n = 0 then 0.
  else begin
    let s = Array.sub a 0 n in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median l = quantile (Array.of_list l) 0.5

(* The tail statistic: p99.9, or, when a batch has fewer than 11,000
   samples, the highest percentile that still has ten samples beyond it
   (the 11th largest). A p99 sat on the edge of a single stall's queue on
   serve-open and moved 2x between passes; the 11th largest of 100k
   closed-loop jobs moved 1.6x between runs, p99.9 by 10%. *)
let tail a =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let p999 = int_of_float (Float.ceil (0.999 *. float_of_int n)) - 1 in
    s.(max 0 (min p999 (n - 11)))
  end

(* ---- garbage-collector counts --------------------------------------- *)

type gc = { minor_words : float; major_collections : int; promoted_words : float }

(* GC work done by [f], which must run on the calling domain. Minor words
   are this domain's own counter, so idle pool domains cannot blur them;
   they repeat exactly when [f] is deterministic, and to within a few
   words when the program allocates on timing (Serve boxes each new
   maximum decision latency). *)
let gc_of f =
  let a = Gc.quick_stat () and a_minor = Gc.minor_words () in
  let v = f () in
  let b_minor = Gc.minor_words () and b = Gc.quick_stat () in
  ( v,
    {
      minor_words = b_minor -. a_minor;
      major_collections = b.major_collections - a.major_collections;
      promoted_words = b.promoted_words -. a.promoted_words;
    } )

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---- tracing -------------------------------------------------------- *)

(* A span is recorded at each layer boundary the benchmark calls across.
   Spans are aggregated in memory by layer name: a layer's self time is
   its spans' durations minus the part covered by child spans or by
   [charge]d time, so the self times of one traced batch add up to its
   wall time minus what no span covers (the unattributed share). *)

let tracing = ref false
let self_time : (string, float) Hashtbl.t = Hashtbl.create 16
let stack : float ref list ref = ref []

let add_self name d =
  Hashtbl.replace self_time name
    (d +. Option.value (Hashtbl.find_opt self_time name) ~default:0.)

let credit_parent d = match !stack with c :: _ -> c := !c +. d | [] -> ()

let span name f =
  if not !tracing then f ()
  else begin
    let child = ref 0. in
    let parent = !stack in
    stack := child :: parent;
    let t0 = now () in
    let close () =
      let d = now () -. t0 in
      stack := parent;
      add_self name (d -. !child);
      credit_parent d
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Attribute [d] seconds measured inside the current span to layer [name]
   (time a callee reports about itself, or per-call timings summed by a
   hot loop that cannot afford one span per call). *)
let charge name d =
  if !tracing then begin
    add_self name d;
    credit_parent d
  end

(* Seconds a traced batch spent on measurements untraced batches skip
   (executor replays, budget probes): left out of the tracing-overhead
   comparison, which must compare the same work. *)
let extra_s = ref 0.

let trace_only f =
  let t0 = now () in
  let v = f () in
  extra_s := !extra_s +. (now () -. t0);
  v

let reset_trace () =
  Hashtbl.reset self_time;
  stack := [];
  extra_s := 0.

let self_times () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self_time []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- speed reference ------------------------------------------------ *)

(* The machine the benchmark was tuned on (a shared 2-core x86 VM) runs
   in a fast and a slow state, about 1.6x apart, that alternate every few
   seconds and for minutes can sit mostly in one; over a quarter of an
   hour its speed for one workload drifted 2x. So every time the
   end-to-end metrics report is scaled to a reference speed: between its
   timed units a workload runs a fixed reference kernel (sort a list of
   boxed floats, then 1000 random reads from a 4 MB array: allocation,
   comparisons through a closure and cache misses, as in the program,
   but no program code, so no change to the program moves it), and a
   unit's time is multiplied by [reference_s] (about the kernel's time
   on that VM) over the median of the last [window] kernel times. The kernel tracks the state only in part (its slowdown
   and a workload's differ by up to 1.5x in log terms, either way); the
   runs' best-of-batches statistic absorbs some of the rest (see
   rtbench.ml). *)

let reference_s = 60e-6
let kernel_input = Array.init 256 (fun i -> float_of_int (i * 7919 mod 256))
let far = Array.make (1 lsl 19) 1. (* 4 MB: past the private caches *)
let far_at = ref 1

let kernel () =
  let l = List.sort Float.compare (Array.to_list kernel_input) in
  let acc = ref (List.fold_left (fun a x -> a +. (x *. 1.0001)) 0. l) in
  for _ = 1 to 1000 do
    far_at := ((!far_at * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc +. far.(!far_at land (Array.length far - 1))
  done;
  ignore (Sys.opaque_identity !acc)

let window = 9
let recent = Array.make window reference_s
let calibrations = ref 0

let calibrate () =
  let t0 = now () in
  kernel ();
  let d = now () -. t0 in
  recent.(!calibrations mod window) <- d;
  incr calibrations;
  charge "reference" d

(* A full window of fresh calibrations, before a batch or a set-up. *)
let warm () =
  for _ = 1 to window do
    calibrate ()
  done

(* Reference seconds per measured second, as of the last calibrations. *)
let scale () = reference_s /. quantile recent 0.5
