open Parsetree

(* --- path scoping ---------------------------------------------------- *)

(* Path scoping is by repo-relative segments ([lib/fluid/...]); when the
   linter is invoked on an absolute or prefixed root, anchor at the
   first segment that names one of the scanned top-level directories. *)
let tops = [ "lib"; "bin"; "bench"; "test" ]

let normalize path =
  let segments =
    List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)
  in
  let rec anchor = function
    | [] -> segments
    | s :: _ as rest when List.mem s tops -> rest
    | _ :: rest -> anchor rest
  in
  anchor segments

let under prefix path =
  let rec go p q =
    match (p, q) with
    | [], _ -> true
    | x :: p, y :: q -> x = y && go p q
    | _ :: _, [] -> false
  in
  go prefix (normalize path)

let scope_r1 path = not (under [ "lib"; "netsim"; "rng.ml" ] path)
let scope_r2 path = under [ "lib" ] path

let scope_r3 path =
  under [ "lib"; "fluid" ] path
  || under [ "lib"; "cc" ] path
  || under [ "test" ] path

let scope_r4 path = under [ "lib" ] path
let scope_r6 _ = true
let scope_r7 path = under [ "lib"; "scenarios" ] path

(* --- longident helpers ----------------------------------------------- *)

let rec lid_root = function
  | Longident.Lident s -> s
  | Longident.Ldot (p, _) -> lid_root p
  | Longident.Lapply (p, _) -> lid_root p

let rec lid_name = function
  | Longident.Lident s -> s
  | Longident.Ldot (p, s) -> lid_name p ^ "." ^ s
  | Longident.Lapply (p, q) ->
    Printf.sprintf "%s(%s)" (lid_name p) (lid_name q)

(* Strip an explicit [Stdlib.] qualifier so [Stdlib.compare] and
   [compare] are the same ident to the rules. *)
let canonical name =
  let pfx = "Stdlib." in
  let n = String.length pfx in
  if String.length name > n && String.sub name 0 n = pfx then
    String.sub name n (String.length name - n)
  else name

let finding ~rule ~path (loc : Location.t) message =
  let p = loc.Location.loc_start in
  Finding.v ~rule ~file:path ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
    message

(* --- R1: determinism ------------------------------------------------- *)

let r1_banned_exact = [ "Unix.gettimeofday"; "Sys.time" ]

let check_r1 ~path structure =
  let found = ref [] in
  let emit loc msg = found := finding ~rule:Finding.R1 ~path loc msg :: !found in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } ->
       let name = canonical (lid_name txt) in
       if lid_root txt = "Random" then
         emit loc
           (Printf.sprintf
              "%s: ambient randomness breaks sweep reproducibility (draw \
               from Netsim.Rng instead)"
              name)
       else if List.mem name r1_banned_exact then
         emit loc
           (Printf.sprintf
              "%s: wall-clock time is nondeterministic (use Sim.now for \
               simulated time)"
              name)
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  !found

(* --- R2: domain-safety ----------------------------------------------- *)

(* Creators whose result is shared mutable state when bound at module
   level. [Array.make] is listed but array literals are not: literal
   arrays are overwhelmingly read-only lookup tables, while an
   explicitly sized [Array.make] is a buffer someone intends to fill. *)
let r2_creators =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Atomic.make";
    "Array.make";
    "Bytes.create";
    "Bytes.make";
    "Dynarray.create";
  ]

(* Field names declared [mutable] by record types of the same file, so
   [let shared = { state = 0 }] is caught when [state] is mutable. *)
let mutable_fields structure =
  let fields = Hashtbl.create 8 in
  let type_declaration self td =
    (match td.ptype_kind with
     | Ptype_record labels ->
       List.iter
         (fun ld ->
           match ld.pld_mutable with
           | Asttypes.Mutable -> Hashtbl.replace fields ld.pld_name.txt ()
           | Asttypes.Immutable -> ())
         labels
     | _ -> ());
    Ast_iterator.default_iterator.type_declaration self td
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it structure;
  fields

let last_field lid =
  match lid with
  | Longident.Lident s | Longident.Ldot (_, s) -> s
  | Longident.Lapply _ -> ""

(* The right-hand side of a module-level binding is walked without
   entering function bodies: state created inside a closure is
   per-call, not shared. [lazy] is entered — a module-level lazy cell
   is shared. *)
let check_r2 ~path structure =
  let found = ref [] in
  let fields = mutable_fields structure in
  let emit loc msg = found := finding ~rule:Finding.R2 ~path loc msg :: !found in
  let scan_binding vb =
    let on_creator loc name =
      emit loc
        (Printf.sprintf
           "module-level %s: shared mutable state races under Exp.Sweep \
            domains (allocate it inside the function or pass it \
            explicitly)"
           name)
    in
    let expr_it self e =
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> ()
      | _ ->
        (match e.pexp_desc with
         | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
           let name = canonical (lid_name txt) in
           if List.mem name r2_creators then on_creator e.pexp_loc name
         | Pexp_record (record_fields, _) ->
           if
             List.exists
               (fun ({ Location.txt; _ }, _) ->
                 Hashtbl.mem fields (last_field txt))
               record_fields
           then
             emit e.pexp_loc
               "module-level record with mutable fields: shared mutable \
                state races under Exp.Sweep domains"
         | _ -> ());
        Ast_iterator.default_iterator.expr self e
    in
    let it = { Ast_iterator.default_iterator with expr = expr_it } in
    it.expr it vb.pvb_expr
  in
  let rec scan_items items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter scan_binding vbs
        | Pstr_module { pmb_expr; _ } -> scan_module_expr pmb_expr
        | Pstr_recmodule mbs ->
          List.iter (fun { pmb_expr; _ } -> scan_module_expr pmb_expr) mbs
        | Pstr_include { pincl_mod; _ } -> scan_module_expr pincl_mod
        | _ -> ())
      items
  and scan_module_expr me =
    match me.pmod_desc with
    | Pmod_structure items -> scan_items items
    | Pmod_constraint (me, _) -> scan_module_expr me
    | Pmod_functor (_, me) -> scan_module_expr me
    | _ -> ()
  in
  scan_items structure;
  !found

(* --- R3: float-hygiene ----------------------------------------------- *)

let r3_comparisons = [ "="; "<>"; "=="; "!="; "compare" ]
let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "mod_float" ]

let float_fns =
  [
    "float_of_int";
    "float_of_string";
    "abs_float";
    "sqrt";
    "exp";
    "log";
    "log10";
    "log1p";
    "expm1";
    "cos";
    "sin";
    "tan";
    "atan";
    "atan2";
    "floor";
    "ceil";
    "Float.of_int";
    "Float.of_string";
    "Float.abs";
    "Float.min";
    "Float.max";
    "Float.rem";
    "Float.round";
  ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float"; "Float.pi"; "Float.nan"; "Float.infinity" ]

(* Syntactic evidence that an expression is a float. Typing would be
   exact; this recognizes literals, float arithmetic and a list of
   well-known float-returning stdlib names, which is what comparison
   operands in numeric code overwhelmingly look like. *)
let is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> List.mem (canonical (lid_name txt)) float_consts
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let name = canonical (lid_name txt) in
    List.mem name float_ops || List.mem name float_fns
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt; _ }, []); _ }) ->
    lid_name txt = "float"
  | _ -> false

let check_r3 ~path structure =
  let found = ref [] in
  let emit loc op =
    found :=
      finding ~rule:Finding.R3 ~path loc
        (Printf.sprintf
           "structural %s on float operands: NaN and -0. make polymorphic \
            comparison treacherous (use Float.equal for exact sentinels \
            or an explicit tolerance)"
           op)
      :: !found
  in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_apply
         ( { pexp_desc = Pexp_ident { txt; loc }; _ },
           [ (_, a); (_, b) ] ) ->
       let name = canonical (lid_name txt) in
       if List.mem name r3_comparisons && (is_floatish a || is_floatish b)
       then emit loc name
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  !found

(* --- R3-fp: fixed-point twins are float-free -------------------------- *)

(* The kernel-twin controllers ([lib/cc/*_fp.ml]) exist to mirror the
   kernel's integer arithmetic bit for bit, so their update paths must
   not touch floats at all — a stray [float_of_int] silently reintroduces
   the rounding the twin is supposed to eliminate. Bindings marked
   [@olia.float_boundary] are the sanctioned adapters between the float
   [Cc_types.t] surface and the integer core, and are exempt. *)

let scope_r3_fp path =
  under [ "lib"; "cc" ] path
  &&
  let base = Filename.basename path in
  Filename.check_suffix base "_fp.ml"

let is_float_boundary attrs =
  List.exists
    (fun (a : attribute) -> a.attr_name.txt = "olia.float_boundary")
    attrs

(* Conversions that cross the int/float line without using float syntax:
   the float lists above miss them because plain R3 only cares about
   comparison operands. *)
let r3_fp_conversions = [ "int_of_float"; "truncate"; "string_of_float" ]

let check_r3_fp ~path structure =
  let found = ref [] in
  let emit loc what =
    found :=
      finding ~rule:Finding.R3 ~path loc
        (Printf.sprintf
           "%s in a fixed-point twin update path: kernel-twin arithmetic \
            must stay integer (move the conversion into a \
            [@olia.float_boundary] adapter)"
           what)
      :: !found
  in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_constant (Pconst_float (lit, _)) ->
       emit e.pexp_loc (Printf.sprintf "float literal %s" lit)
     | Pexp_ident { txt; loc } ->
       let name = canonical (lid_name txt) in
       if
         List.mem name float_ops || List.mem name float_fns
         || List.mem name float_consts
         || List.mem name r3_fp_conversions
         || lid_root txt = "Float"
       then emit loc name
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let value_binding self vb =
    if is_float_boundary (vb.pvb_attributes @ vb.pvb_expr.pexp_attributes)
    then ()
    else Ast_iterator.default_iterator.value_binding self vb
  in
  let it = { Ast_iterator.default_iterator with expr; value_binding } in
  it.structure it structure;
  !found

(* --- R4: output hygiene ---------------------------------------------- *)

let r4_banned =
  [
    "Printf.printf";
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
  ]

let check_r4 ~path structure =
  let found = ref [] in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } ->
       let name = canonical (lid_name txt) in
       if List.mem name r4_banned then
         found :=
           finding ~rule:Finding.R4 ~path loc
             (Printf.sprintf
                "%s: libraries must not print to stdout (emit through \
                 lib/stats or Netsim.Monitor; binaries own the terminal)"
                name)
           :: !found
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  !found

(* --- R6: error hygiene ----------------------------------------------- *)

(* Combinators and repo entry points that return a [result]. As with
   R3, this is syntactic evidence, not typing: the listed names cover
   how result values are actually produced in this codebase. *)
let r6_result_fns =
  [
    "Result.map";
    "Result.map_error";
    "Result.bind";
    "Result.join";
    "Json.of_string";
    "Repro_stats.Json.of_string";
    "Trace.of_json";
    "Repro_obs.Trace.of_json";
    "Snapshot.read";
    "Repro_obs.Snapshot.read";
  ]

let rec is_resultish e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident ("Ok" | "Error"); _ }, Some _) ->
    true
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt; _ }, _); _ }) ->
    let name = canonical (lid_name txt) in
    name = "result" || name = "Result.t"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    List.mem (canonical (lid_name txt)) r6_result_fns
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
    List.exists (fun c -> is_resultish c.pc_rhs) cases
  | Pexp_ifthenelse (_, a, Some b) -> is_resultish a || is_resultish b
  | Pexp_sequence (_, e) | Pexp_let (_, _, e) -> is_resultish e
  | _ -> false

let check_r6 ~path structure =
  let found = ref [] in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_apply
         ( { pexp_desc = Pexp_ident { txt; loc }; _ },
           [ (Asttypes.Nolabel, arg) ] )
       when canonical (lid_name txt) = "ignore" && is_resultish arg ->
       found :=
         finding ~rule:Finding.R6 ~path loc
           "ignore of a result value: the Error case is silently dropped \
            (match on it, or propagate it with Result.bind)"
         :: !found
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  !found

(* --- R7: seed plumbing ----------------------------------------------- *)

(* A scenario that seeds its RNG from a literal, or defaults an optional
   [?seed] argument, produces one fixed run however the sweep varies the
   seed axis — replications silently collapse to n identical points.
   Scenario code must take the seed from its config record and pass it
   down: [Rng.create ~seed:cfg.seed]. Syntactic, like R3/R6: a literal
   seed expression is the evidence; computed seeds are assumed to come
   from the caller. *)

let is_rng_create name =
  name = "Rng.create" || name = "Netsim.Rng.create"
  || name = "Repro_netsim.Rng.create"

let rec is_literal_seed e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("+" | "-" | "*"); _ };
          _ },
        args ) ->
    List.for_all (fun (_, a) -> is_literal_seed a) args
  | Pexp_constraint (e, _) -> is_literal_seed e
  | _ -> false

let check_r7 ~path structure =
  let found = ref [] in
  let emit loc msg = found := finding ~rule:Finding.R7 ~path loc msg :: !found in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
       when is_rng_create (canonical (lid_name txt)) ->
       List.iter
         (fun (label, arg) ->
           match label with
           | Asttypes.Labelled "seed" when is_literal_seed arg ->
             emit loc
               "Rng.create with a literal seed: every replication of this \
                scenario replays the same run (thread the seed from the \
                caller's config: ~seed:cfg.seed)"
           | _ -> ())
         args
     | Pexp_fun (Asttypes.Optional "seed", Some _, _, _) ->
       emit e.pexp_loc
         "optional ?seed with a default: callers that forget to pass it get \
          one fixed run per sweep point (make the seed a required part of \
          the scenario config)"
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  !found

(* --- R5: registry completeness --------------------------------------- *)

let basename path =
  match List.rev (normalize path) with [] -> path | b :: _ -> b

let is_scenario_source path =
  under [ "lib"; "scenarios" ] path
  && Filename.check_suffix path ".ml"
  &&
  let b = basename path in
  b <> "registry.ml" && b <> "common.ml"

let defines_toplevel_run structure =
  let rec pat_is_run p =
    match p.ppat_desc with
    | Ppat_var { txt = "run"; _ } -> true
    | Ppat_constraint (p, _) -> pat_is_run p
    | _ -> false
  in
  List.exists
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.exists (fun vb -> pat_is_run vb.pvb_pat) vbs
      | _ -> false)
    structure

(* Every module name the registry source mentions, wherever it appears:
   value paths (Scen_a.run), record labels ({ Scen_a.n1 = ... }), field
   projections, constructors, types and module expressions. *)
let referenced_modules structure =
  let refs = Hashtbl.create 16 in
  let add lid =
    match lid with
    | Longident.Ldot _ | Longident.Lapply _ -> Hashtbl.replace refs (lid_root lid) ()
    | Longident.Lident s ->
      (* A bare capitalized ident is a module or constructor mention. *)
      if s <> "" && s.[0] >= 'A' && s.[0] <= 'Z' then Hashtbl.replace refs s ()
  in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_ident { txt; _ }
     | Pexp_construct ({ txt; _ }, _)
     | Pexp_field (_, { txt; _ })
     | Pexp_setfield (_, { txt; _ }, _)
     | Pexp_new { txt; _ } -> add txt
     | Pexp_record (fields, _) -> List.iter (fun ({ Location.txt; _ }, _) -> add txt) fields
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let pat self p =
    (match p.ppat_desc with
     | Ppat_construct ({ txt; _ }, _) -> add txt
     | Ppat_record (fields, _) -> List.iter (fun ({ Location.txt; _ }, _) -> add txt) fields
     | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let typ self t =
    (match t.ptyp_desc with
     | Ptyp_constr ({ txt; _ }, _) | Ptyp_class ({ txt; _ }, _) -> add txt
     | _ -> ());
    Ast_iterator.default_iterator.typ self t
  in
  let module_expr self me =
    (match me.pmod_desc with
     | Pmod_ident { txt; _ } -> add txt
     | _ -> ());
    Ast_iterator.default_iterator.module_expr self me
  in
  let it =
    { Ast_iterator.default_iterator with expr; pat; typ; module_expr }
  in
  it.structure it structure;
  refs

let module_name_of path = String.capitalize_ascii (Filename.chop_extension (basename path))

let check_registry ~sources =
  let scenarios =
    List.filter
      (fun (path, structure) ->
        is_scenario_source path && defines_toplevel_run structure)
      sources
  in
  if scenarios = [] then []
  else
    let registry =
      List.find_opt
        (fun (path, _) ->
          under [ "lib"; "scenarios" ] path && basename path = "registry.ml")
        sources
    in
    match registry with
    | None ->
      List.map
        (fun (path, _) ->
          Finding.v ~rule:Finding.R5 ~file:path ~line:1 ~col:0
            "scenario module cannot be reachable: no \
             lib/scenarios/registry.ml in this lint run")
        scenarios
    | Some (_, registry_structure) ->
      let refs = referenced_modules registry_structure in
      List.filter_map
        (fun (path, _) ->
          let m = module_name_of path in
          if Hashtbl.mem refs m then None
          else
            Some
              (Finding.v ~rule:Finding.R5 ~file:path ~line:1 ~col:0
                 (Printf.sprintf
                    "scenario module %s is never referenced by \
                     Scenarios.Registry: it cannot be listed, swept or run \
                     from the CLI"
                    m)))
        scenarios

(* --- entry point ----------------------------------------------------- *)

let check_structure ~path structure =
  let r1 = if scope_r1 path then check_r1 ~path structure else [] in
  let r2 = if scope_r2 path then check_r2 ~path structure else [] in
  let r3 = if scope_r3 path then check_r3 ~path structure else [] in
  let r3_fp = if scope_r3_fp path then check_r3_fp ~path structure else [] in
  let r4 = if scope_r4 path then check_r4 ~path structure else [] in
  let r6 = if scope_r6 path then check_r6 ~path structure else [] in
  let r7 = if scope_r7 path then check_r7 ~path structure else [] in
  r1 @ r2 @ r3 @ r3_fp @ r4 @ r6 @ r7
