(* The shape every workload has. [setup] builds inputs and program state
   from the seed (timed as [setup_s]); [batch] runs the workload's fixed
   unit of work once, returning what each timed unit and each operation
   took and, when [Meter.tracing] is on, recording per-layer values;
   [finish] runs the correctness checks and diagnostics once per run,
   untimed. Batches repeat the same units in the same order, so the run
   can keep each one's best time (see rtbench.ml). *)

type sample = {
  work : float array;
      (** reference-scaled seconds ([Meter.scale]) of every timed unit of
          the closed-loop work, in a fixed order that repeats across
          batches; [infinity] where it failed *)
  latency : float array;
      (** one per operation, in a fixed order: reference-scaled seconds
          from when it was due to its answer; [infinity] where it failed *)
  cost_ratio_lb : float;  (** objective / lower bound, deterministic *)
}

type instance = {
  batch : Report.t -> sample;
  finish : Report.t -> unit;
  dispose : unit -> unit;  (** release what [setup] started (domains) *)
}

type t = { name : string; setup : seed:int -> instance }

(* Every call into the program is timed under a deadline far above its
   expected time; the benchmark's run must stay well under 180 s. *)
let call_deadline = 30.

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let us s = s *. 1e6
