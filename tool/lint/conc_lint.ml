(* Domain-safety and lock-discipline analysis (the concurrency rule
   family, rt-lint v3).

   OCaml 5 types away memory unsafety but not data races: any mutable
   value reachable from two domains without synchronization is a bug the
   compiler accepts silently.  This pass runs over the typedtree and
   enforces, per compilation unit:

   [domain-unsafe] (error) — a mutable value (ref, mutable record
   field, array write, Queue/Hashtbl/Buffer/Stack) is used from code
   that crosses a domain boundary — the closure argument of
   [Domain.spawn], [Pool.run_list]/[Pool.map]/[Pool.submit]/[Pool.run],
   [Runner.*_par], or any closure annotated [@rt.cross_domain] — and is
   neither freshly allocated inside that closure, [Atomic.t] (atomics
   never appear as subjects of the checked operations), annotated
   [[@rt.guarded_by "<mutex>"]] with the access inside the named lock's
   critical section, nor declared [[@rt.domain_safe "reason"]].
   Accesses to [@rt.guarded_by]-annotated values are checked everywhere
   in the module, not just in crossing code, so a main-domain access
   outside the critical section is caught too.

   [lock-unbalanced] (warning) — a bare [Mutex.lock] whose critical
   section can raise before the matching [Mutex.unlock] (any call to a
   function not known to be exception-free taints the section), an
   unlock without a matching lock, a lock still held when the function
   returns, or a branch construct that holds a lock on some paths only.
   [Mutex.protect] sections are exempt: the runtime releases the lock on
   any exception.

   [lock-order] (warning) — two mutexes acquired in opposite nesting
   orders somewhere in the same compilation unit (lock-ordering
   deadlock).  Also re-acquiring a mutex already held (self-deadlock).

   [lock-blocking] (warning) — a blocking operation ([Domain.join],
   [Pool.run_list]/[map]/[with_pool], [Unix.sleep]) executed while
   holding a lock, or [Condition.wait] on a mutex that is not held /
   while holding an additional lock.

   [conc-annotation] (error) — a malformed concurrency annotation
   payload.

   Locks are identified by name — the last path component of the mutex
   expression ([m], [t.mutex]) — and tracked lexically through
   sequences, branches and [Mutex.protect] bodies.  The analysis is
   deliberately first-order: closures passed directly to higher-order
   functions are walked inline under the current lock set; values
   stored into escaping structures can be marked with the
   [@rt.cross_domain] closure annotation to be analysed as
   domain-crossing entry points (the pool's queued jobs do exactly
   this).  Calls to same-unit functions from crossing code are walked
   transitively.  Aliasing a guarded field into a plain let keeps its
   guard ([let q = t.queue] inherits [queue]'s annotation); passing a
   mutable value to a function in another unit is not tracked.  See
   docs/CONCURRENCY_LINT.md for the full contract. *)

open Typedtree
module ISet = Set.Make (Ident)

(* attribute names come from the shared registry so the lint, library
   annotations, and docs cannot drift apart on spelling *)
let attr_guarded = Rt_prelude.Annot.guarded_by
let attr_safe = Rt_prelude.Annot.domain_safe
let attr_cross = Rt_prelude.Annot.cross_domain

type annot = Guarded of string | Domain_safe

type lock = {
  l_name : string;
  l_kind : [ `Bare | `Protected ];
  l_loc : Location.t;
  mutable l_tainted : bool;
      (* a possibly-raising call happened while this bare lock was held *)
}

type ctx = {
  file : string;
  modname : string;
  mutable found : Finding.t list;
  guards : (Ident.t, string) Hashtbl.t;  (* let-bound value -> mutex name *)
  safe_ids : (Ident.t, unit) Hashtbl.t;  (* [@rt.domain_safe] lets *)
  bindings : (Ident.t, expression) Hashtbl.t;  (* every let-bound rhs *)
  field_annots : (string, annot) Hashtbl.t;  (* this unit's record labels *)
  mutable lock_edges : (string * string * Location.t) list;
  mutable cross : expression list;  (* [@rt.cross_domain] closures *)
  mutable spawn_args : expression list;  (* arguments of spawn sites *)
}

(* the per-path walking state: held locks plus the idents we saw
   allocated fresh inside the current (crossing) scope *)
type st = { held : lock list; fresh : ISet.t }

type mode = { crossing : bool; visited : ISet.t }

let report ctx ?severity (loc : Location.t) rule msg =
  ctx.found <-
    Finding.of_location ?severity ~file:ctx.file ~rule ~msg loc :: ctx.found

let has_suffix s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let norm p =
  match Typed_lint.path_parts p with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | parts -> parts

(* ------------------------------------------------------------------ *)
(* Annotations                                                          *)
(* ------------------------------------------------------------------ *)

let annot_of_attrs ctx (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      if acc <> None then acc
      else if a.attr_name.txt = attr_guarded then
        match Dim_table.string_payload a.attr_payload with
        | Some m when m <> "" -> Some (Guarded m)
        | _ ->
            report ctx a.attr_name.loc "conc-annotation"
              "[@rt.guarded_by] expects a non-empty string naming the \
               guarding mutex";
            Some Domain_safe (* don't cascade into domain-unsafe noise *)
      else if a.attr_name.txt = attr_safe then Some Domain_safe
      else acc)
    None attrs

let has_cross (e : expression) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = attr_cross)
    e.exp_attributes

let annot_of_field ctx (lbl : Types.label_description) =
  match annot_of_attrs ctx lbl.Types.lbl_attributes with
  | Some a -> Some a
  | None -> Hashtbl.find_opt ctx.field_annots lbl.Types.lbl_name

(* ------------------------------------------------------------------ *)
(* Classification helpers                                               *)
(* ------------------------------------------------------------------ *)

let type_head (e : expression) =
  let ty =
    try Ctype.expand_head e.exp_env e.exp_type with _ -> e.exp_type
  in
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (List.rev (Typed_lint.path_parts p))
  | _ -> None

let type_is_container_of (e : expression) m =
  match type_head e with Some ("t" :: m' :: _) -> m' = m | _ -> false

let type_is_ref e =
  match type_head e with Some ("ref" :: _) -> true | _ -> false

let type_is_array e =
  match type_head e with Some ("array" :: _) -> true | _ -> false

let containers = [ "Queue"; "Hashtbl"; "Buffer"; "Stack" ]

let array_write_ops =
  [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort"; "stable_sort" ]

(* domain-crossing call sites whose function arguments execute on
   another domain *)
let is_spawn_head ctx comps =
  match List.rev comps with
  | "spawn" :: "Domain" :: _ -> true
  | f :: "Pool" :: _ -> List.mem f [ "run_list"; "map"; "submit"; "run" ]
  | f :: "Runner" :: _ -> has_suffix f "_par"
  | [ f ] when ctx.modname = "Pool" ->
      List.mem f [ "run_list"; "map"; "submit"; "run" ]
  | _ -> false

(* calls that cannot raise: a bare critical section containing only
   these keeps its lock balanced on every path *)
let non_raising comps =
  match comps with
  | [ "Mutex"; ("lock" | "unlock" | "try_lock" | "create") ] -> true
  | [ "Condition"; _ ] | [ "Atomic"; _ ] -> true
  | [ "Queue"; ("is_empty" | "length" | "add" | "push" | "create" | "clear") ]
    ->
      true
  | [ "Array"; "length" ] | [ "List"; "length" ] | [ "String"; "length" ] ->
      true
  | [ "Domain"; "self" ] -> true
  | [ op ] ->
      List.mem op
        [
          ":="; "!"; "incr"; "decr"; "not"; "ignore"; "&&"; "||"; "+"; "-";
          "*"; "+."; "-."; "*."; "/."; "="; "<>"; "<"; ">"; "<="; ">="; "==";
          "!="; "@@"; "|>"; "ref"; "fst"; "snd"; "min"; "max"; "succ"; "pred";
          "abs"; "~-"; "~-."; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr";
        ]
  | _ -> false

let is_blocking_head comps =
  match List.rev comps with
  | "join" :: "Domain" :: _ | "join" :: "Thread" :: _ -> true
  | ("sleep" | "sleepf") :: "Unix" :: _ -> true
  | f :: "Pool" :: _ -> List.mem f [ "run_list"; "map"; "with_pool" ]
  | "run" :: "Portfolio" :: _ -> true
  | _ -> false

let raising_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* does evaluating [e] always end in an exception?  (used to exclude
   diverging branches from lock-balance joins) *)
let rec always_raises (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match List.rev (norm p) with
      | f :: _ -> List.mem f raising_heads
      | [] -> false)
  | Texp_assert ({ exp_desc = Texp_construct (_, c, _); _ }, _) ->
      c.Types.cstr_name = "false"
  | Texp_sequence (_, b) | Texp_let (_, _, b) -> always_raises b
  | _ -> false

(* is [e]'s value freshly allocated (so private to whoever binds it)? *)
let fresh_alloc (e : expression) =
  match e.exp_desc with
  | Texp_record _ | Texp_array _ | Texp_constant _ | Texp_construct _ ->
      true
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match norm p with
      | [ "ref" ] | [ "Atomic"; "make" ] -> true
      | [ "Array"; ("make" | "init" | "copy" | "of_list" | "make_matrix") ]
        ->
          true
      | [ ("Queue" | "Hashtbl" | "Buffer" | "Stack"); "create" ] -> true
      | _ -> false)
  | _ -> false

let lock_name (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match List.rev (norm p) with n :: _ -> n | [] -> "?")
  | Texp_field (_, _, lbl) -> lbl.Types.lbl_name
  | _ -> "?"

let held_mem st name = List.exists (fun l -> l.l_name = name) st.held
let held_names st = List.map (fun l -> l.l_name) st.held

(* the display name and guard status of the value an operation acts on *)
type status = SFresh | SSafe | SGuarded of string | SShared of string

let rec subject_status ctx st (e : expression) : status =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      if Hashtbl.mem ctx.safe_ids id then SSafe
      else (
        match Hashtbl.find_opt ctx.guards id with
        | Some m -> SGuarded m
        | None ->
            if ISet.mem id st.fresh then SFresh else SShared (Ident.name id))
  | Texp_ident (p, _, _) -> SShared (String.concat "." (norm p))
  | Texp_field (r, _, lbl) -> field_status ctx st r lbl
  | _ -> SShared "this value"

and field_status ctx st r (lbl : Types.label_description) =
  match annot_of_field ctx lbl with
  | Some (Guarded m) -> SGuarded m
  | Some Domain_safe -> SSafe
  | None -> (
      match subject_status ctx st r with
      | SFresh -> SFresh
      | SSafe -> SSafe
      | _ -> SShared lbl.Types.lbl_name)

let subject_name (e : expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> lbl.Types.lbl_name
  | Texp_ident (Path.Pident id, _, _) -> Ident.name id
  | Texp_ident (p, _, _) -> String.concat "." (Typed_lint.path_parts p)
  | _ -> "value"

let check_status ctx mode st ~what ~name loc status =
  match status with
  | SFresh | SSafe -> ()
  | SGuarded m ->
      if not (held_mem st m) then
        report ctx loc "domain-unsafe"
          (Printf.sprintf
             "%s '%s' is guarded by mutex '%s' but this access is outside \
              its critical section"
             what name m)
  | SShared name ->
      if mode.crossing then
        report ctx loc "domain-unsafe"
          (Printf.sprintf
             "%s '%s' is reachable from another domain without \
              synchronization; make it Atomic.t, guard it with \
              [@rt.guarded_by \"<mutex>\"], or declare [@rt.domain_safe \
              \"reason\"]"
             what name)

let check_access ctx mode st ~what loc subject =
  check_status ctx mode st ~what ~name:(subject_name subject) loc
    (subject_status ctx st subject)

(* ------------------------------------------------------------------ *)
(* Phase A: collect bindings, annotations and crossing entry points     *)
(* ------------------------------------------------------------------ *)

let collect ctx str =
  let open Tast_iterator in
  let value_binding sub (vb : value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) ->
        Hashtbl.replace ctx.bindings id vb.vb_expr;
        let attrs =
          vb.vb_attributes @ vb.vb_pat.pat_attributes
          @ vb.vb_expr.exp_attributes
        in
        (match annot_of_attrs ctx attrs with
        | Some (Guarded m) -> Hashtbl.replace ctx.guards id m
        | Some Domain_safe -> Hashtbl.replace ctx.safe_ids id ()
        | None -> ())
    | _ -> ());
    default_iterator.value_binding sub vb
  in
  let type_declaration sub (td : type_declaration) =
    (match td.typ_kind with
    | Ttype_record lds ->
        List.iter
          (fun (ld : label_declaration) ->
            let attrs = ld.ld_attributes @ ld.ld_type.ctyp_attributes in
            match annot_of_attrs ctx attrs with
            | Some a -> Hashtbl.replace ctx.field_annots ld.ld_name.txt a
            | None -> ())
          lds
    | _ -> ());
    default_iterator.type_declaration sub td
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_function _ when has_cross e -> ctx.cross <- e :: ctx.cross
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when is_spawn_head ctx (norm p) ->
        List.iter
          (fun (_, a) ->
            Option.iter (fun a -> ctx.spawn_args <- a :: ctx.spawn_args) a)
          args
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with value_binding; type_declaration; expr } in
  it.structure it str

(* resolve an expression flowing into a spawn site to the closure
   literals it contains: through let-bound idents, list literals and the
   usual list combinators ([List.map (fun seed () -> ...) seeds],
   [jobs @ [ ... ]]) *)
let rec closures_of ctx depth (e : expression) =
  if depth > 4 then []
  else
    match e.exp_desc with
    | Texp_function _ -> [ e ]
    | Texp_ident (Path.Pident id, _, _) -> (
        match Hashtbl.find_opt ctx.bindings id with
        | Some rhs when rhs != e -> closures_of ctx (depth + 1) rhs
        | _ -> [])
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        let through =
          match List.rev (norm p) with
          | f :: _ ->
              List.mem f
                [
                  "map"; "mapi"; "rev_map"; "concat_map"; "filter_map";
                  "init"; "@"; "append"; "rev"; "filter"; "concat";
                ]
          | [] -> false
        in
        if through then
          List.concat_map
            (fun (_, a) ->
              match a with
              | Some a -> closures_of ctx (depth + 1) a
              | None -> [])
            args
        else []
    | Texp_construct (_, _, args) | Texp_tuple args ->
        List.concat_map (closures_of ctx (depth + 1)) args
    | Texp_array args -> List.concat_map (closures_of ctx (depth + 1)) args
    | Texp_let (_, _, body) -> closures_of ctx (depth + 1) body
    | _ -> []

(* ------------------------------------------------------------------ *)
(* The walker                                                           *)
(* ------------------------------------------------------------------ *)

(* immediate sub-expressions, for constructs with no special handling *)
let children (e : expression) =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc);
    }
  in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

let add_edges ctx st name loc =
  List.iter
    (fun l -> ctx.lock_edges <- (l.l_name, name, loc) :: ctx.lock_edges)
    st.held

let taint_bare st =
  List.iter (fun l -> if l.l_kind = `Bare then l.l_tainted <- true) st.held

let rec walk ctx mode st (e : expression) : st =
  match e.exp_desc with
  | Texp_apply (hd, args) -> walk_apply ctx mode st e hd args
  | Texp_let (_, vbs, body) ->
      let st =
        List.fold_left
          (fun st (vb : value_binding) ->
            let st = walk ctx mode st vb.vb_expr in
            (match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) -> (
                if fresh_alloc vb.vb_expr then
                  { st with fresh = ISet.add id st.fresh }
                else
                  (* aliasing a guarded or safe value keeps its status *)
                  match subject_status ctx st vb.vb_expr with
                  | SGuarded m ->
                      Hashtbl.replace ctx.guards id m;
                      st
                  | SFresh -> { st with fresh = ISet.add id st.fresh }
                  | SSafe ->
                      Hashtbl.replace ctx.safe_ids id ();
                      st
                  | SShared _ -> st)
            | _ -> st))
          st vbs
      in
      walk ctx mode st body
  | Texp_sequence (a, b) ->
      let st = walk ctx mode st a in
      walk ctx mode st b
  | Texp_ifthenelse (c, bt, be) ->
      let st = walk ctx mode st c in
      let ends =
        (walk ctx mode st bt, always_raises bt)
        ::
        (match be with
        | Some be -> [ (walk ctx mode st be, always_raises be) ]
        | None -> [ (st, false) ])
      in
      join ctx e.exp_loc st ends
  | Texp_match (scrut, cases, _) ->
      let st = walk ctx mode st scrut in
      let ends =
        List.map
          (fun c ->
            Option.iter (fun g -> ignore (walk ctx mode st g)) c.c_guard;
            (walk ctx mode st c.c_rhs, always_raises c.c_rhs))
          cases
      in
      join ctx e.exp_loc st ends
  | Texp_try (body, cases) ->
      let st' = walk ctx mode st body in
      List.iter (fun c -> ignore (walk ctx mode st c.c_rhs)) cases;
      st'
  | Texp_while (c, b) ->
      let stc = walk ctx mode st c in
      let stb = walk ctx mode stc b in
      if held_names stb <> held_names stc then
        report ctx ~severity:Finding.Warning e.exp_loc "lock-unbalanced"
          "this loop body changes the set of held locks across iterations";
      stc
  | Texp_for (_, _, lo, hi, _, b) ->
      let st = walk ctx mode st lo in
      let st = walk ctx mode st hi in
      let stb = walk ctx mode st b in
      if held_names stb <> held_names st then
        report ctx ~severity:Finding.Warning e.exp_loc "lock-unbalanced"
          "this loop body changes the set of held locks across iterations";
      st
  | Texp_function { cases; _ } ->
      (* a lambda in walk position: assume it runs inline (the common
         higher-order-function case) under the current lock set.
         [@rt.cross_domain] lambdas escape to another domain instead and
         are analysed as crossing entry points. *)
      if not (has_cross e) then walk_cases ctx mode st cases;
      st
  | Texp_setfield (r, _, lbl, v) ->
      let st = walk ctx mode st r in
      let st = walk ctx mode st v in
      check_status ctx mode st ~what:"write to mutable field"
        ~name:lbl.Types.lbl_name e.exp_loc
        (field_status ctx st r lbl);
      st
  | Texp_field (r, _, lbl) ->
      let st = walk ctx mode st r in
      if lbl.Types.lbl_mut = Asttypes.Mutable then
        check_access ctx mode st ~what:"read of mutable field" e.exp_loc e;
      st
  | _ -> List.fold_left (walk ctx mode) st (children e)

(* walk each case body and flag locks still held when the function
   returns (relative to the lock set at its definition) *)
and walk_cases : 'k. ctx -> mode -> st -> 'k case list -> unit =
 fun ctx mode st cases ->
  List.iter
    (fun c ->
      Option.iter (fun g -> ignore (walk ctx mode st g)) c.c_guard;
      let st_end = walk ctx mode st c.c_rhs in
      if not (always_raises c.c_rhs) then
        List.iter
          (fun l ->
            if not (List.memq l st.held) then
              report ctx ~severity:Finding.Warning l.l_loc "lock-unbalanced"
                (Printf.sprintf
                   "mutex '%s' may still be held when this function \
                    returns; unlock it on every path or use Mutex.protect"
                   l.l_name))
          st_end.held)
    cases

and join ctx loc entry ends =
  let live = List.filter (fun (_, diverges) -> not diverges) ends in
  match live with
  | [] -> entry
  | (st0, _) :: rest ->
      let names (s, _) = List.sort compare (held_names s) in
      if List.for_all (fun s -> names s = names (st0, false)) rest then
        { st0 with fresh = entry.fresh }
      else begin
        report ctx ~severity:Finding.Warning loc "lock-unbalanced"
          "a lock is held on some branches of this expression but not on \
           others";
        (* continue with the locks common to every live branch *)
        let common =
          List.filter
            (fun l ->
              List.for_all (fun (s, _) -> List.memq l s.held) rest)
            st0.held
        in
        { held = common; fresh = entry.fresh }
      end

and walk_apply ctx mode st e hd args =
  let pos =
    List.filter_map
      (fun (lbl, a) ->
        match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  let walk_args st =
    List.fold_left
      (fun st (_, a) ->
        match a with Some a -> walk ctx mode st a | None -> st)
      st args
  in
  match hd.exp_desc with
  | Texp_ident (p, _, _) -> (
      let comps = norm p in
      match (comps, pos) with
      | [ "Mutex"; "lock" ], m :: _ ->
          let name = lock_name m in
          if held_mem st name then
            report ctx ~severity:Finding.Warning e.exp_loc "lock-order"
              (Printf.sprintf
                 "mutex '%s' is locked while already held (self-deadlock)"
                 name);
          add_edges ctx st name e.exp_loc;
          let lk =
            { l_name = name; l_kind = `Bare; l_loc = e.exp_loc;
              l_tainted = false }
          in
          { st with held = lk :: st.held }
      | [ "Mutex"; "unlock" ], m :: _ -> (
          let name = lock_name m in
          match List.find_opt (fun l -> l.l_name = name) st.held with
          | None ->
              report ctx ~severity:Finding.Warning e.exp_loc
                "lock-unbalanced"
                (Printf.sprintf
                   "Mutex.unlock of '%s' without a matching Mutex.lock in \
                    this function"
                   name);
              st
          | Some l ->
              if l.l_kind = `Bare && l.l_tainted then
                report ctx ~severity:Finding.Warning l.l_loc
                  "lock-unbalanced"
                  (Printf.sprintf
                     "the critical section of '%s' opened here can raise \
                      before Mutex.unlock, leaving the mutex held; use \
                      Mutex.protect"
                     l.l_name);
              { st with held = List.filter (fun l' -> l' != l) st.held })
      | [ "Mutex"; "protect" ], m :: rest_pos ->
          let name = lock_name m in
          if held_mem st name then
            report ctx ~severity:Finding.Warning e.exp_loc "lock-order"
              (Printf.sprintf
                 "mutex '%s' is locked while already held (self-deadlock)"
                 name);
          add_edges ctx st name e.exp_loc;
          let lk =
            { l_name = name; l_kind = `Protected; l_loc = e.exp_loc;
              l_tainted = false }
          in
          (match rest_pos with
          | { exp_desc = Texp_function { cases; _ }; _ } :: _ ->
              walk_cases ctx mode { st with held = lk :: st.held } cases
          | _ -> ());
          st
      | [ "Condition"; "wait" ], [ _c; m ] ->
          let name = lock_name m in
          if not (held_mem st name) then
            report ctx ~severity:Finding.Warning e.exp_loc "lock-blocking"
              (Printf.sprintf
                 "Condition.wait on mutex '%s' which is not held here" name)
          else
            List.iter
              (fun l ->
                if l.l_name <> name then
                  report ctx ~severity:Finding.Warning e.exp_loc
                    "lock-blocking"
                    (Printf.sprintf
                       "Condition.wait releases only '%s' but '%s' stays \
                        held while this domain sleeps"
                       name l.l_name))
              st.held;
          st
      | comps, _ when is_blocking_head comps ->
          if st.held <> [] then
            report ctx ~severity:Finding.Warning e.exp_loc "lock-blocking"
              (Printf.sprintf
                 "blocking call %s while holding mutex%s %s"
                 (String.concat "." comps)
                 (if List.length st.held > 1 then "es" else "")
                 (String.concat ", "
                    (List.map (fun n -> "'" ^ n ^ "'") (held_names st))));
          walk_args st
      | comps, _ when is_spawn_head ctx comps ->
          (* closure arguments are analysed as crossing entry points in
             the dedicated pass; don't walk them inline *)
          st
      | [ (":=" | "!" | "incr" | "decr") ], subj :: _ when type_is_ref subj
        ->
          let what =
            match comps with
            | [ ":=" ] -> "write to ref"
            | [ "!" ] -> "read of ref"
            | _ -> "update of ref"
          in
          check_access ctx mode st ~what e.exp_loc subj;
          taint_if_raises st comps;
          walk_args st
      | [ m; _op ], _ when List.mem m containers ->
          List.iter
            (fun a ->
              if type_is_container_of a m then
                check_access ctx mode st
                  ~what:(String.concat "." comps ^ " on") e.exp_loc a)
            pos;
          taint_if_raises st comps;
          walk_args st
      | [ "Array"; op ], _ when List.mem op array_write_ops ->
          List.iter
            (fun a ->
              if type_is_array a then
                check_access ctx mode st ~what:"write to array" e.exp_loc a)
            pos;
          taint_if_raises st comps;
          walk_args st
      | _ -> (
          (* same-unit call from crossing code: walk the callee *)
          match p with
          | Path.Pident id
            when mode.crossing
                 && (not (ISet.mem id mode.visited))
                 && Hashtbl.mem ctx.bindings id -> (
              let st = walk_args st in
              taint_if_raises st comps;
              match Hashtbl.find ctx.bindings id with
              | { exp_desc = Texp_function _; _ } as fn ->
                  let mode' =
                    { mode with visited = ISet.add id mode.visited }
                  in
                  ignore (walk ctx mode' st fn);
                  st
              | _ -> st)
          | _ ->
              let st = walk_args st in
              taint_if_raises st comps;
              st))
  | _ ->
      let st = walk ctx mode st hd in
      let st = walk_args st in
      taint_bare st;
      st

and taint_if_raises st comps = if not (non_raising comps) then taint_bare st

(* ------------------------------------------------------------------ *)
(* Pass 1: lexical walk of every definition in the unit                 *)
(* ------------------------------------------------------------------ *)

let mode0 = { crossing = false; visited = ISet.empty }
let st0 = { held = []; fresh = ISet.empty }

let rec walk_structure ctx (str : structure) =
  List.iter
    (fun (si : structure_item) ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter (fun vb -> ignore (walk ctx mode0 st0 vb.vb_expr)) vbs
      | Tstr_eval (e, _) -> ignore (walk ctx mode0 st0 e)
      | Tstr_module mb -> walk_module ctx mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter (fun mb -> walk_module ctx mb.mb_expr) mbs
      | Tstr_include incl -> walk_module ctx incl.incl_mod
      | _ -> ())
    str.str_items

and walk_module ctx (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> walk_structure ctx str
  | Tmod_constraint (me, _, _, _) -> walk_module ctx me
  | Tmod_functor (_, me) -> walk_module ctx me
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pass 2: crossing entry points                                        *)
(* ------------------------------------------------------------------ *)

let analyze_crossing ctx =
  let entries =
    ctx.cross @ List.concat_map (closures_of ctx 0) ctx.spawn_args
  in
  let seen = Hashtbl.create 16 in
  let entries =
    List.filter
      (fun (c : expression) ->
        if Hashtbl.mem seen c.exp_loc then false
        else begin
          Hashtbl.add seen c.exp_loc ();
          true
        end)
      entries
  in
  let mode = { crossing = true; visited = ISet.empty } in
  List.iter
    (fun (c : expression) ->
      match c.exp_desc with
      | Texp_function { cases; _ } -> walk_cases ctx mode st0 cases
      | _ -> ())
    entries

(* ------------------------------------------------------------------ *)
(* Lock-order cycle detection                                           *)
(* ------------------------------------------------------------------ *)

let lock_order_findings ctx =
  List.iter
    (fun (a, b, loc) ->
      if
        a <> b
        && List.exists (fun (a', b', _) -> a' = b && b' = a) ctx.lock_edges
      then
        report ctx ~severity:Finding.Warning loc "lock-order"
          (Printf.sprintf
             "mutex '%s' is acquired while holding '%s', but the opposite \
              order also occurs in this module (deadlock risk)"
             b a))
    ctx.lock_edges

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let check ~file ~modname (str : structure) =
  let ctx =
    {
      file;
      modname;
      found = [];
      guards = Hashtbl.create 16;
      safe_ids = Hashtbl.create 16;
      bindings = Hashtbl.create 64;
      field_annots = Hashtbl.create 16;
      lock_edges = [];
      cross = [];
      spawn_args = [];
    }
  in
  collect ctx str;
  walk_structure ctx str;
  analyze_crossing ctx;
  lock_order_findings ctx;
  List.sort_uniq Finding.compare ctx.found
