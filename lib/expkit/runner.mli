(** Seeded replication helpers shared by the experiment suite. *)

val seeds : base:int -> n:int -> int list
(** [n] distinct deterministic seeds derived from [base]. *)

val replicate :
  seeds:int list -> f:(int -> float) -> Rt_prelude.Stats.summary
(** Evaluate [f seed] for every seed and summarize. Skips NaN results (an
    experiment may declare a replication inapplicable that way) —
    @raise Invalid_argument if {e every} replication was NaN. *)

val replicate_par :
  pool:Rt_parallel.Pool.t option -> seeds:int list -> f:(int -> float) ->
  Rt_prelude.Stats.summary
(** {!replicate} with the replications fanned out over a {!Rt_parallel}
    pool ([None] runs them on the calling domain). Each replication is
    keyed by its seed and results are summarized in seed order, so the
    summary is byte-identical to the sequential one at any domain count.
    [f] must therefore be a pure function of its seed. *)

val mean_over : seeds:int list -> f:(int -> float) -> float
(** [replicate] then the mean. *)
