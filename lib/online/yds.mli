(** The Yao–Demers–Shenker offline-optimal speed schedule.

    Given aperiodic jobs (arrival, deadline, cycles) known in advance, the
    YDS algorithm repeatedly finds the {e critical interval} — the window
    [\[t1, t2\]] maximizing intensity
    [Σ cycles of jobs contained in the window / (t2 − t1)] — schedules the
    contained jobs across that window at exactly the intensity, removes
    them, excises the window from the timeline, and recurses. The result
    is the minimum-energy feasible speed profile for any convex power
    function; with leakage and a sleep mode the blocks whose intensity
    falls below the critical speed run at the critical speed and sleep
    (Irani et al.), which is how {!energy} prices them.

    This is the optimality oracle for {!Admission}: when the online
    executor admits everything, its energy can never beat YDS.

    Cost: the jobs are copied into unboxed arrays. Each critical-interval
    search sorts the live jobs by deadline and by arrival (an insertion
    sort, linear when the previous round left them in order) and then
    makes one sweep per distinct arrival over the deadline order with a
    running work sum — O(n²) — and there are at most n searches, so the
    decomposition is O(n³) overall. *)

type block = {
  intensity : float;  (** cycles per unit time across the block *)
  length : float;  (** block duration in original (un-excised) time *)
  work : float;  (** = intensity × length *)
}

val blocks : Job.t list -> block list
(** The critical-interval decomposition, in extraction order (intensities
    non-increasing). Total [work] equals the jobs' total cycles. Empty
    input gives []. Among intervals of equal intensity (within 1e-15)
    the earliest — smallest start, then smallest end — is extracted
    first. @raise Invalid_argument on duplicate ids. *)

val peak_intensity : Job.t list -> float
(** Intensity of the first block (0. for no jobs) — the minimum top speed
    any feasible schedule needs. Runs a single critical-interval search,
    O(n²), not the whole decomposition. @raise Invalid_argument on
    duplicate ids. *)

val energy :
  proc:Rt_power.Processor.t -> Job.t list -> (float, string) result
(** Offline-optimal energy on an ideal processor: each block runs at
    [max(intensity, Processor.speed_floor proc)] — the critical speed on a
    dormant-enable processor, which sleeps through the slack when the
    clamp is active; [s_min] on a dormant-disable one, which pays leakage
    over the rest of the block. Errors when the peak intensity exceeds
    [s_max] (no feasible schedule), when the processor has discrete
    levels, or when two jobs share an id. *)
