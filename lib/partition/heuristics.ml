open Rt_task

(* every item, in list order, onto the least-loaded processor *)
let greedy_min_load ~m items =
  let items = Array.of_list items in
  let n = Array.length items in
  let order = Array.init n Fun.id in
  let assign = Array.make n (-1) in
  Ltf.pack
    ~weights:(Array.map (fun (it : Task.item) -> it.weight) items)
    ~cap:Float.infinity ~loads:(Array.make m 0.)
    ~accept:Ltf.always ~order ~assign;
  Partition.of_assignment ~m items ~order ~assign

let ltf ~m items =
  greedy_min_load ~m (List.sort Task.compare_item_weight_desc items)

let greedy_unsorted ~m items = greedy_min_load ~m items

let random rng ~m items =
  List.fold_left
    (fun p it -> Partition.add p (Rt_prelude.Rng.int rng ~lo:0 ~hi:(m - 1)) it)
    (Partition.empty ~m) items

(* each item, in list order, onto the lowest-index processor it fits on *)
let first_fit ~m ~capacity items =
  if Rt_prelude.Float_cmp.exact_le capacity 0. then
    invalid_arg "Heuristics.fit: capacity <= 0";
  let rec first p (it : Task.item) j =
    if j >= m then None
    else if Rt_prelude.Float_cmp.leq (Partition.load p j +. it.weight) capacity
    then Some j
    else first p it (j + 1)
  in
  let place (p, rejected) (it : Task.item) =
    match first p it 0 with
    | None -> (p, it :: rejected)
    | Some j -> (Partition.add p j it, rejected)
  in
  let p, rejected = List.fold_left place (Partition.empty ~m, []) items in
  (p, List.rev rejected)

let first_fit_decreasing ~m ~capacity items =
  first_fit ~m ~capacity (List.sort Task.compare_item_weight_desc items)
