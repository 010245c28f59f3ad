module Fc = Rt_prelude.Float_cmp

open Rt_task

type algorithm = Problem.t -> Solution.t

(* LTF-style packing on the SoA view through the one packer
   ({!Rt_partition.Ltf.pack}): items are *positions* into [Problem.soa],
   and the partition is materialized once at the end. [accept loads j i]
   may veto the least-loaded feasible processor [j] for positional item
   [i]. *)
let pack_positions (p : Problem.t) ~accept (order : int array) =
  let s = Problem.soa p in
  let assign = Array.make s.Problem.n (-1) in
  Rt_partition.Ltf.pack ~weights:s.Problem.weights ~cap:(Problem.capacity p)
    ~loads:(Array.make p.m 0.) ~accept ~order ~assign;
  let buckets = Array.make p.m [] in
  let rejected = ref [] in
  Array.iter
    (fun i ->
      let it = s.Problem.item_arr.(i) in
      let j = assign.(i) in
      if j >= 0 then
        (* lint: allow-hot-alloc-in-loop "the bucket lists are the output partition, not churn" *)
        buckets.(j) <- it :: buckets.(j)
      else
        (* lint: allow-hot-alloc-in-loop "the rejection list is the output, not churn" *)
        rejected := it :: !rejected)
    order;
  {
    Solution.partition = Rt_partition.Partition.of_buckets buckets;
    rejected = List.rev !rejected;
  }

let positions (s : Problem.soa) = Array.init s.Problem.n (fun i -> i)

(* positional mirror of [Task.compare_item_weight_desc]: weight
   descending, id ascending on ties — a total order, so [Array.sort]'s
   instability is unobservable. The branches below are [Float.compare]
   unfolded for finite arguments (item weights are finite in any
   well-formed instance). Full-instance runs should use the precomputed
   [s.order_weight_desc] instead (sorted once per instance — the
   per-run sort was over half of an ltf run at n=10^3); this entry
   point remains for subset re-sorts (density repair). *)
let sort_weight_desc (s : Problem.soa) order =
  let w = s.Problem.weights in
  let ids = s.Problem.ids in
  Array.sort
    (fun a b ->
      let wa = w.(a) in
      let wb = w.(b) in
      if Fc.exact_lt wb wa then -1
      else if Fc.exact_lt wa wb then 1
      else Int.compare ids.(a) ids.(b))
    order;
  order

let ltf_reject (p : Problem.t) =
  let s = Problem.soa p in
  pack_positions p ~accept:Rt_partition.Ltf.always s.Problem.order_weight_desc

let unsorted_reject (p : Problem.t) =
  pack_positions p ~accept:Rt_partition.Ltf.always (positions (Problem.soa p))

let marginal_greedy (p : Problem.t) =
  let s = Problem.soa p in
  (* per-processor memo of [energy loads.(j)]: [energy] is a pure
     function of the load, so reusing the previous value while the load
     is unchanged (no placement landed on [j]) yields the same bits as
     re-evaluating — halving the energy calls of a probe-heavy run. The
     NaN sentinel never matches a real load, so first probes fill in. *)
  let cached_load = Array.make p.m Float.nan in
  let cached_energy = Array.make p.m 0. in
  let accept loads j i =
    let l = loads.(j) in
    if not (Fc.exact_eq cached_load.(j) l) then begin
      cached_load.(j) <- l;
      cached_energy.(j) <- s.Problem.energy l
    end;
    let marginal =
      s.Problem.energy (l +. s.Problem.weights.(i)) -. cached_energy.(j)
    in
    Rt_prelude.Float_cmp.leq marginal s.Problem.penalties.(i)
  in
  pack_positions p ~accept s.Problem.order_weight_desc

let total_cost (p : Problem.t) solution =
  match Solution.cost p solution with
  | Ok c -> c.Solution.total
  | Error msg -> invalid_arg ("Greedy: internal solution invalid: " ^ msg)

(* positional mirror of the old density comparator: penalty per unit
   weight ascending, id ascending on ties *)
let density_asc (s : Problem.soa) a b =
  let c =
    Float.compare
      (s.Problem.penalties.(a) /. s.Problem.weights.(a))
      (s.Problem.penalties.(b) /. s.Problem.weights.(b))
  in
  if c <> 0 then c else Int.compare s.Problem.ids.(a) s.Problem.ids.(b)

(* pack by LTF; if some item does not fit, drop the cheapest-density item
   and retry *)
let density_reject (p : Problem.t) =
  let s = Problem.soa p in
  let cap = Problem.capacity p in
  let pack accepted =
    pack_positions p ~accept:Rt_partition.Ltf.always
      (sort_weight_desc s (Array.of_list accepted))
  in
  let items_of positions = List.map (fun i -> s.Problem.item_arr.(i)) positions in
  (* phase 1: repair to feasibility (ltf_reject already force-rejects
     overflow; we instead choose *which* item to drop by density) *)
  let rec repair accepted rejected =
    let trial = pack accepted in
    if trial.Solution.rejected = [] then (trial, rejected)
    else begin
      match List.sort (density_asc s) accepted with
      | [] -> (trial, rejected)
      | cheapest :: _ ->
          repair
            (List.filter (fun i -> i <> cheapest) accepted)
            (cheapest :: rejected)
    end
  in
  let fitting, oversize =
    List.partition
      (fun i -> Rt_prelude.Float_cmp.leq s.Problem.weights.(i) cap)
      (Array.to_list (positions s))
  in
  let packed, dropped = repair fitting oversize in
  let base =
    { packed with Solution.rejected = packed.Solution.rejected @ items_of dropped }
  in
  (* phase 2: trimming — reject any further item that still pays off *)
  let position_of (it : Task.item) =
    Hashtbl.find s.Problem.index_of it.item_id
  in
  let rec trim solution =
    let current = total_cost p solution in
    let accepted =
      List.map position_of
        (Rt_partition.Partition.all_items solution.Solution.partition)
    in
    let try_drop i =
      let remaining = List.filter (fun x -> x <> i) accepted in
      let repacked = pack remaining in
      if repacked.Solution.rejected <> [] then None
      else begin
        let candidate =
          {
            repacked with
            Solution.rejected =
              s.Problem.item_arr.(i) :: solution.Solution.rejected;
          }
        in
        let c = total_cost p candidate in
        (* strict improvement with a relative margin; exact on purpose *)
        if Fc.exact_lt c (current -. (1e-12 *. Float.max 1. current)) then
          Some candidate
        else None
      end
    in
    match List.find_map try_drop (List.sort (density_asc s) accepted) with
    | Some better -> trim better
    | None -> solution
  in
  trim base

let named =
  [
    ("ltf-reject", ltf_reject);
    ("marginal", marginal_greedy);
    ("density", density_reject);
    ("unsorted", unsorted_reject);
  ]
