(** Optimal sustained-speed energy: the central primitive.

    A processor that must deliver a {e required speed} [u] (cycles per time
    unit, sustained over a horizon — the per-processor weight sum of the
    item view) can realize it many ways: run continuously at [u], run
    faster and idle, run faster and sleep, or mix two discrete levels. This
    module computes the {e minimum average power} (energy per unit time)
    and the realizing time-fraction plan, for every processor kind:

    - {e ideal × dormant-disable}: run at [s = max(u, s_min)] for a [u/s]
      fraction of the time; idle pays the leakage [p_ind].
      Rate = [p_ind + (u/s)·P_d(s)].
    - {e ideal × dormant-enable}: run at [s = clamp(s_crit, max(u,s_min),
      s_max)] and sleep the rest at zero power; this is the critical-speed
      clamp of the leakage-aware algorithms. Rate = [u · P(s)/s].
    - {e levels × either}: the optimum mixes at most two adjacent vertices
      of the lower convex hull of [{(0, P_idle)} ∪ {(l, P(l))}] — the
      Ishihara–Yasuura two-level split generalized to account for idling or
      sleeping.

    Mode-switch overheads ([t_sw], [E_sw]) are not charged here (the
    frame/periodic models of the papers treat speed switching as free and
    charge sleep transitions separately); {!Procrastinate} accounts for
    them. *)

type segment = {
  speed : float;  [@rt.dim "speed"] (** a feasible running speed, or 0. for idle/sleep *)
  fraction : float;  [@rt.dim "1"] (** fraction of the horizon spent at [speed] *)
}

type plan = {
  segments : segment list;
      (** fractions sum to 1 (within tolerance); speeds are feasible for
          the processor; ordered fastest first *)
  rate : float;  [@rt.dim "watts"] (** average power of the plan = energy per unit horizon *)
}

val optimal : Rt_power.Processor.t -> u:float -> plan option
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** [optimal proc ~u] is the minimum-average-power plan delivering required
    speed [u >= 0], or [None] when [u] exceeds [s_max] (no feasible plan).
    Its [rate] is [prepare_energy proc ~horizon:1. u]; its segments are laid
    out by the same hull bracket and running-speed rule.
    @raise Invalid_argument on negative or non-finite [u]. *)

val prepare_energy :
  Rt_power.Processor.t -> horizon:float -> (float -> float [@rt.dim "joules"])
  [@@rt.hot "scalar evaluator for the marginal-energy inner loops"]
(** The bucket-energy kernel: the one implementation of the optimal rate.
    [prepare_energy proc ~horizon] hoists the per-processor setup — the
    lower convex hull of the level points, the idle rate and speed floor
    (see {!Rt_power.Processor.idle_rate}, {!Rt_power.Processor.speed_floor})
    — and returns an evaluator whose value at [u] is the optimal plan's
    energy over [horizon], computed by one flat closure without
    materializing segments, plan or option. Build it once per instance and
    call it per candidate load: it is the evaluator behind
    [Rt_core.Problem.bucket_energy]. The greedy and local-search inner
    loops pre-check capacity, so a required speed above [s_max] (where
    {!optimal} returns [None]) raises [Invalid_argument] here.
    @raise Invalid_argument on negative horizon or invalid [u]. *)

val rate : Rt_power.Processor.t -> u:float -> float option [@rt.dim "watts"]
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** Average power of the optimal plan. *)

val energy :
  Rt_power.Processor.t -> u:float -> horizon:float ->
  float option [@rt.dim "joules"]
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** [rate × horizon]. @raise Invalid_argument on negative horizon. *)

val plan_throughput : plan -> float [@rt.dim "speed"]
(** [Σ speed·fraction] — the required speed the plan actually delivers. *)

val validate :
  ?eps:float -> Rt_power.Processor.t -> u:float -> plan -> (unit, string) result
(** Checks: feasible speeds, non-negative fractions summing to 1, delivered
    throughput [>= u], and [rate] consistent with the segments (idle or
    sleep segments charged per the processor's dormancy). *)
