let slack_eps = 1e-9

let rec insert_go deadlines len d i =
  if i >= len || Float.compare deadlines.(i) d >= 0 then i
  else insert_go deadlines len d (i + 1)

let insert_index ~deadlines ~len d = insert_go deadlines len d 0

(* each walk below is the same fold, written out (not factored into a
   helper) so the accumulators stay unboxed without flambda: cumulative
   work over time-to-deadline, maximized, and infinite once a deadline is
   (nearly) at or behind [now] *)
let rec density_go remaining deadlines len now i work best =
  if i >= len then best
  else begin
    let work = work +. remaining.(i) in
    let slack = deadlines.(i) -. now in
    if Float_cmp.exact_le slack slack_eps then
      density_go remaining deadlines len now (i + 1) work Float.infinity
    else
      density_go remaining deadlines len now (i + 1) work
        (Float.max best (work /. slack))
  end

let density ~now ~remaining ~deadlines ~len =
  density_go remaining deadlines len now 0 0. 0.

(* the trial goes in front of the first slot whose deadline is at or
   after its own — {!insert_index}'s position — and the walk then carries
   on over the remaining slots as {!density_go} *)
let rec trial_go remaining deadlines len now r_t d_t i work best =
  if i >= len || Float.compare deadlines.(i) d_t >= 0 then begin
    let work = work +. r_t in
    let slack = d_t -. now in
    if Float_cmp.exact_le slack slack_eps then
      density_go remaining deadlines len now i work Float.infinity
    else
      density_go remaining deadlines len now i work
        (Float.max best (work /. slack))
  end
  else begin
    let work = work +. remaining.(i) in
    let slack = deadlines.(i) -. now in
    if Float_cmp.exact_le slack slack_eps then
      trial_go remaining deadlines len now r_t d_t (i + 1) work Float.infinity
    else
      trial_go remaining deadlines len now r_t d_t (i + 1) work
        (Float.max best (work /. slack))
  end

let density_with ~now ~remaining ~deadlines ~len ~trial_remaining
    ~trial_deadline =
  trial_go remaining deadlines len now trial_remaining trial_deadline 0 0. 0.
