(** Task partitions: the assignment of items onto [m] processors.

    A value is immutable; [add] copies the (small) bucket array. Items keep
    their identity, so a partition can always be traced back to the
    instance it was built from. *)

type t = private {
  m : int;
  buckets : Rt_task.Task.item list array;  (** length [m]; most recent first *)
  sums : float array;
      (** cached per-bucket weight totals, kept in sync by the
          constructors; read through {!loads} / {!load}, never mutated *)
}

val empty : m:int -> t
(** @raise Invalid_argument if [m < 1]. *)

val add : t -> int -> Rt_task.Task.item -> t
(** [add p j it] assigns [it] to processor [j].
    @raise Invalid_argument if [j] is out of range. *)

val of_buckets : Rt_task.Task.item list array -> t
(** Loads are summed from each bucket's head (most recent first).
    @raise Invalid_argument on an empty array or duplicate item ids. *)

val of_assignment :
  m:int -> Rt_task.Task.item array -> order:int array -> assign:int array ->
  t
(** The partition an {!Ltf.pack} run describes: for each position [i] of
    [order] in turn with [assign.(i) >= 0], item [i] is added to processor
    [assign.(i)] — the partition (loads summed in insertion order
    included) that successive {!add}s would build.
    @raise Invalid_argument if [m < 1]. *)

val m : t -> int
val bucket : t -> int -> Rt_task.Task.item list
val all_items : t -> Rt_task.Task.item list
val size : t -> int

val loads : t -> float array
(** Per-processor weight sums (a fresh copy of the cache — callers may
    mutate the result freely). *)

val load : t -> int -> float
(** O(1) cached read. @raise Invalid_argument if [j] is out of range. *)

val makespan : t -> float
(** Largest per-processor load (0. for an all-empty partition). *)

val equal_shape : t -> t -> bool
(** Same [m] and the same set of item ids on each processor (order
    ignored). *)

val pp : Format.formatter -> t -> unit
