(** The Largest-Task-First packer: the one min-load placement loop behind
    every LTF-style partition ({!Heuristics.ltf}, {!Hetero.leuf}, the
    rejection schedulers in [Rt_core.Greedy] and the QoS degradation
    probes in [Rt_core.Qos]).

    It works on positions into a weight array rather than on items, keeps
    the per-processor loads in a scratch array the caller owns, and
    reports a per-position assignment, so a packing allocates nothing. The
    visit order is the caller's: LTF proper passes positions sorted by
    weight descending (id ascending on ties). *)

val pack :
  weights:float array -> cap:float -> loads:float array ->
  accept:(float array -> int -> int -> bool) -> order:int array ->
  assign:int array -> unit
  [@@rt.hot "inner loop of every LTF-style partition and rejection sweep"]
(** Zero [loads] (one slot per processor), then visit [order]: position
    [i] goes to the least-loaded processor [j] (lowest index on ties)
    whose load plus [weights.(i)] stays within [cap] (tolerant), provided
    [accept loads j i] agrees; then [assign.(i) = j] and [weights.(i)] is
    added to [loads.(j)]. Otherwise [assign.(i) = -1]. Loads therefore
    sum in visit order. [cap = infinity] places every position (of finite
    weight) without evaluating the capacity test at all. *)

val always : float array -> int -> int -> bool
(** The veto that never vetoes. *)
