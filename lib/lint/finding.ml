type rule =
  | R1
  | R2
  | R3
  | R4
  | R5
  | R6
  | R7
  | R9
  | R10
  | R11
  | Parse
  | Suppress

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | Parse -> "parse"
  | Suppress -> "suppress"

let rule_of_name = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R9" -> Some R9
  | "R10" -> Some R10
  | "R11" -> Some R11
  | _ -> None

let rule_doc = function
  | R1 ->
    "determinism: all randomness and time must flow through Netsim.Rng \
     and Sim.now so sweeps replay byte-identically"
  | R2 ->
    "domain-safety: no module-level mutable state in lib/ (shared across \
     Exp.Sweep domains)"
  | R3 ->
    "float-hygiene: no structural =/<>/compare on float operands in \
     lib/fluid and lib/cc; fixed-point twins (lib/cc/*_fp.ml) must keep \
     floats out of their update paths entirely, except in \
     [@olia.float_boundary] adapters"
  | R4 ->
    "output hygiene: lib/ never prints to stdout; results flow through \
     lib/stats emitters or Netsim.Monitor"
  | R5 ->
    "registry completeness: every scenario module in lib/scenarios is \
     reachable from Scenarios.Registry"
  | R6 ->
    "error hygiene: ignore of a result value silently discards the Error \
     case (match on it or propagate it)"
  | R7 ->
    "seed plumbing: lib/scenarios must thread the RNG seed from the \
     caller's config, never hard-code or default it"
  | R9 ->
    "alloc-free: no allocation site may be reachable from an \
     [@olia.alloc_free] hot-path entry point (whole-program)"
  | R10 ->
    "domain-safety: toplevel mutable state must not be reachable from \
     Exp.Sweep workers or scenario run functions without per-domain \
     instantiation (whole-program)"
  | R11 ->
    "determinism taint: nondeterminism sources (wall clock, ambient \
     randomness, Hashtbl iteration order, polymorphic compare on floats) \
     must not flow into trace/JSON/meter sinks (whole-program)"
  | Parse -> "the file must parse before any rule can run"
  | Suppress -> "suppression directives need valid rule ids and a reason"

let rule_index = function
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6
  | R7 -> 7
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | Parse -> 12
  | Suppress -> 13

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
  root : (string * int) option;
}

let v ?root ~rule ~file ~line ~col message =
  { rule; file; line; col; message; root }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Int.compare (rule_index a.rule) (rule_index b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let to_string f =
  Printf.sprintf "%s:%d:%d: %s %s" f.file f.line f.col (rule_name f.rule)
    f.message

let to_json f =
  Repro_stats.Json.Obj
    [
      ("rule", Repro_stats.Json.String (rule_name f.rule));
      ("file", Repro_stats.Json.String f.file);
      ("line", Repro_stats.Json.Int f.line);
      ("col", Repro_stats.Json.Int f.col);
      ("message", Repro_stats.Json.String f.message);
    ]
