module Fc = Rt_prelude.Float_cmp

open Rt_power

type segment = { speed : float; fraction : float }
type plan = { segments : segment list; rate : float }

(* Lower convex hull (monotone chain) of points sorted by strictly
   increasing x; the optimal mixing of "operating points" lies on it.
   [pop] walks the hull as a suffix instead of rebuilding it, so one
   fold step allocates exactly the surviving vertex's cons cell. *)
let lower_hull points =
  let cross (ox, oy) (ax, ay) (bx, by) =
    ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))
  in
  let rec pop p hull =
    match hull with
    | a :: (b :: _ as older) when Fc.exact_le (cross b a p) 0. -> pop p older
    | _ -> p :: hull
  in
  List.fold_left (fun hull p -> pop p hull) [] points |> List.rev

(* The per-processor half of the kernel, built once per evaluator. On a
   level processor: the lower hull of the operating points (0, idle rate)
   and (l, P(l)); the optimum mixes the two hull vertices around [u] (the
   Ishihara–Yasuura split, with idling or sleeping as one more vertex). On
   an ideal processor: run at one speed, never below the speed floor, and
   idle or sleep the rest of the horizon. *)
type kernel =
  | Hull of (float * float) list
  | Run of {
      model : Power_model.t;
      idle : float;
      floor : float;
      s_max : float;
    }

let kernel (proc : Processor.t) =
  match proc.domain with
  | Processor.Levels ls ->
      let points =
        (* lint: allow-hot-alloc-in-loop "bounded by the processor's static level count and built once per prepared evaluator, not per evaluation" *)
        Array.fold_right (fun l ps -> (l, Power_model.power proc.model l) :: ps)
          ls []
      in
      Hull (lower_hull ((0., Processor.idle_rate proc) :: points))
  | Processor.Ideal { s_max; _ } ->
      Run
        {
          model = proc.model;
          idle = Processor.idle_rate proc;
          floor = Processor.speed_floor proc;
          s_max;
        }

let load u =
  if Fc.exact_lt u (-1e-9) || not (Float.is_finite u) then
    invalid_arg "Energy_rate.optimal: u must be finite and >= 0";
  (* arithmetic on loads (repeated add/remove) can leave -1e-17 residues *)
  Float.max 0. u

(* The hull suffix whose first two vertices bracket [u] — a lone last
   vertex when [u] sits on it — or [] when [u] lies past the hull.
   Returning the shared suffix keeps the bracket unboxed. *)
let rec bracket u = function
  | [ (x, _) ] as last ->
      if Fc.approx_eq x u || Fc.exact_lt u x then last else []
  | _ :: ((x2, _) :: _ as rest) as b ->
      if Fc.exact_gt u x2 then bracket u rest else b
  | [] -> []

(* the share of the horizon spent at the upper vertex [x2] of a bracket *)
let upper_share ~x1 ~x2 u = Fc.clamp ~lo:0. ~hi:1. ((u -. x1) /. (x2 -. x1))

(* the ideal processor's running speed for load [u], and the share of
   the horizon it spends running at that speed *)
let run_speed ~floor ~s_max u = Float.min (Float.max u floor) s_max
let busy_share u s_run = Fc.clamp ~lo:0. ~hi:1. (u /. s_run)

let overload u ~top : float =
  invalid_arg
    (Printf.sprintf
       "Energy_rate.prepare_energy: required speed %.6g exceeds s_max %.6g" u
       top)

(* The only rate arithmetic: one flat closure per processor kind that
   returns the optimal plan's energy over [horizon], with no plan,
   segment list or option built. Raises past [s_max]. *)
let evaluator (proc : Processor.t) kernel ~horizon =
  let top = Processor.s_max proc in
  match kernel with
  | Hull hull ->
      fun u ->
        let u = load u in
        if Fc.gt u top then overload u ~top
        else begin
          match bracket u hull with
          | [] -> overload u ~top
          | [ (_, y) ] -> y *. horizon
          | (x1, y1) :: (x2, y2) :: _ ->
              if Fc.approx_eq x1 x2 then y2 *. horizon
              else (y1 +. (upper_share ~x1 ~x2 u *. (y2 -. y1))) *. horizon
        end
  | Run { model; idle; floor; s_max } ->
      fun u ->
        let u = load u in
        if Fc.gt u top then overload u ~top
        else begin
          let s_run = run_speed ~floor ~s_max u in
          if Fc.exact_le s_run 0. then idle *. horizon
          else
            (idle
            +. (busy_share u s_run *. (Power_model.power model s_run -. idle)))
            *. horizon
        end

let prepare_energy (proc : Processor.t) ~horizon =
  if Fc.exact_lt horizon 0. then
    invalid_arg "Energy_rate.prepare_energy: negative horizon";
  evaluator proc (kernel proc) ~horizon

(* The plan's segments for a guarded load [u], fastest first, laid out by
   the same bracket and run-speed rules the evaluator prices. *)
let segments kernel u =
  let whole speed = [ { speed; fraction = 1. } ] in
  match kernel with
  | Hull hull -> (
      match bracket u hull with
      | [] -> None
      | [ (x, _) ] -> Some (whole x)
      | (x1, _) :: (x2, _) :: _ ->
          if Fc.approx_eq x1 x2 then Some (whole x2)
          else begin
            let a = upper_share ~x1 ~x2 u in
            if Fc.exact_le a 0. then Some (whole x1)
            else if Fc.exact_le (1. -. a) 0. then Some (whole x2)
            else
              Some
                [
                  { speed = x2; fraction = a };
                  { speed = x1; fraction = 1. -. a };
                ]
          end)
  | Run { floor; s_max; _ } ->
      let s_run = run_speed ~floor ~s_max u in
      let busy = if Fc.exact_le s_run 0. then 0. else busy_share u s_run in
      if Fc.exact_ge busy 1. then Some (whole s_run)
      else if Fc.exact_le busy 0. then Some (whole 0.)
      else
        Some
          [
            { speed = s_run; fraction = busy };
            { speed = 0.; fraction = 1. -. busy };
          ]

let optimal (proc : Processor.t) ~u =
  let kernel = kernel proc in
  let rate = evaluator proc kernel ~horizon:1. in
  let u = load u in
  if Fc.gt u (Processor.s_max proc) then None
  else
    Option.map
      (fun segments -> { segments; rate = rate u })
      (segments kernel u)

let rate proc ~u = Option.map (fun p -> p.rate) (optimal proc ~u)

let energy proc ~u ~horizon =
  if Fc.exact_lt horizon 0. then
    invalid_arg "Energy_rate.energy: negative horizon";
  Option.map (fun r -> r *. horizon) (rate proc ~u)

(* a plan's average power recomputed from its segments, idle or sleep
   segments charged per the processor's dormancy *)
let plan_rate (proc : Processor.t) plan =
  List.fold_left
    (fun acc { speed; fraction } ->
      let p =
        if Fc.exact_eq speed 0. then Processor.idle_rate proc
        else Power_model.power proc.model speed
      in
      acc +. (fraction *. p))
    0. plan.segments

let plan_throughput plan =
  List.fold_left
    (fun acc { speed; fraction } -> acc +. (speed *. fraction))
    0. plan.segments

let validate ?eps (proc : Processor.t) ~u plan =
  let ( let* ) = Result.bind in
  let* () =
    if
      List.for_all
        (fun s ->
          Fc.exact_ge s.fraction 0.
          && Rt_power.Processor.speed_feasible ?eps proc s.speed)
        plan.segments
    then Ok ()
    else Error "infeasible speed or negative fraction"
  in
  let total_fraction =
    List.fold_left (fun acc s -> acc +. s.fraction) 0. plan.segments
  in
  let* () =
    if Rt_prelude.Float_cmp.approx_eq ?eps total_fraction 1. then Ok ()
    else Error "fractions do not sum to 1"
  in
  let* () =
    if Rt_prelude.Float_cmp.geq ?eps (plan_throughput plan) u then Ok ()
    else Error "plan does not deliver the required speed"
  in
  if Rt_prelude.Float_cmp.approx_eq ?eps (plan_rate proc plan) plan.rate then
    Ok ()
  else Error "reported rate disagrees with segments"
