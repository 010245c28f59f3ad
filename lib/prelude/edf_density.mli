(** The EDF density test: the one implementation of the statistic every
    admit/reject decision rests on.

    The {e density} of a set of pending jobs at time [now] is the largest,
    over its deadlines [d], of (remaining work due by [d]) / ([d] − [now]):
    the lowest constant speed at which preemptive EDF meets every
    deadline. A deadline whose slack is at most {!slack_eps} makes the
    density infinite (no finite speed can meet it).

    The set is given as parallel [(remaining, deadline)] float arrays whose
    first [len] slots are sorted by deadline ascending ([Float.compare]).
    Work accumulates in slot order, so the order inside a group of equal
    deadlines fixes the rounding of every result; {!insert_index} is the
    tie rule every caller keeps its arrays in, and {!density_with} merges
    its trial job by the same rule. Both walks allocate nothing. *)

val slack_eps : float
(** [1e-9]: a deadline at most this far past [now] counts as expired. *)

val insert_index : deadlines:float array -> len:int -> float -> int
(** Leftmost slot whose deadline is at or after [d] — where a job with
    deadline [d] goes so that it sits first among equal deadlines, which
    is where a stable deadline sort of a newest-first list puts it. *)

val density :
  now:float -> remaining:float array -> deadlines:float array -> len:int ->
  float
  [@@rt.hot "evaluated at every executor step of the admission service"]
(** Density of the first [len] slots at [now] ([0.] when [len = 0]). *)

val density_with :
  now:float -> remaining:float array -> deadlines:float array -> len:int ->
  trial_remaining:float -> trial_deadline:float -> float
  [@@rt.hot "evaluated per live processor for every arrival"]
(** Density of the first [len] slots plus one trial job, merged at
    {!insert_index} of its deadline — the same bits as inserting it there
    and calling {!density}, without touching the arrays. *)
