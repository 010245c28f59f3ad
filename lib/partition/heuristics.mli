(** Partitioning heuristics over the item view.

    [ltf] is the Largest-Task-First strategy (LPT in the makespan
    literature): sort by weight descending, always assign to the
    least-loaded processor. The companion papers prove LTF-based schedules
    are 1.13-approximate in energy for independent-rail homogeneous systems;
    for makespan it inherits Graham's [(4/3 - 1/(3m))] bound, which the
    property tests exercise.

    [greedy_unsorted] is the companion's Algorithm RAND reference: the same
    min-load greedy but in arrival order (no sort). Both place through
    {!Ltf.pack}. [random] places each item uniformly at random.
    [first_fit_decreasing] is the capacity-aware bin-packing rule behind
    {!La_ltf.consolidate}. *)

val ltf : m:int -> Rt_task.Task.item list -> Partition.t

val greedy_unsorted : m:int -> Rt_task.Task.item list -> Partition.t

val random : Rt_prelude.Rng.t -> m:int -> Rt_task.Task.item list -> Partition.t

val first_fit_decreasing :
  m:int -> capacity:float -> Rt_task.Task.item list ->
  Partition.t * Rt_task.Task.item list
(** Sort by weight descending, then place each item on the lowest-index
    processor whose load would stay [<= capacity] (tolerant); the items
    that fit nowhere are returned in that order.
    @raise Invalid_argument if [capacity <= 0]. *)
