(* What one benchmark run accumulates: operation counts, check outcomes
   and per-layer values. Failures are printed as they happen. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  layers : (string, float list) Hashtbl.t;  (** newest value first *)
}

let create () =
  { attempted = 0; failed = 0; correct = true; layers = Hashtbl.create 64 }

let attempt r n = r.attempted <- r.attempted + n

(* [n] operations produced no answer (an error, or a deadline overrun). *)
let op_failed r ~n what msg =
  r.failed <- r.failed + n;
  Printf.printf "FAILED  %s: %s (%d operations)\n%!" what msg n

(* A correctness check; a failing one counts as a failed operation. *)
let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        r.failed <- r.failed + 1;
        r.correct <- false;
        Printf.printf "CHECK FAILED  %s\n%!" msg
      end)
    fmt

(* Per-layer values: every traced batch adds one; the run reports the
   median. [layer_once] keeps the first batch's value only — for GC
   counts, which repeat exactly only from the same starting heap. *)
let layer r name v =
  let prev = Option.value (Hashtbl.find_opt r.layers name) ~default:[] in
  Hashtbl.replace r.layers name (v :: prev)

let layer_once r name v =
  if not (Hashtbl.mem r.layers name) then Hashtbl.replace r.layers name [ v ]

let gc r ~ops (g : Meter.gc) =
  layer_once r "gc.minor_words_per_op" (g.minor_words /. float_of_int ops);
  layer_once r "gc.major_collections" (float_of_int g.major_collections);
  layer_once r "gc.promoted_words" g.promoted_words

(* Byte-identity of two program outputs. *)
let same a b =
  String.equal
    (Marshal.to_string a [ Marshal.No_sharing ])
    (Marshal.to_string b [ Marshal.No_sharing ])
