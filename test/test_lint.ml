(* The engine takes (path, content) pairs, so every fixture is inline:
   the path picks which rules apply, the content triggers (or avoids)
   them. *)

open Repro_lint

let lint ?(path = "lib/foo/fixture.ml") content =
  Engine.lint_sources [ { Engine.path; content } ]

let count rule findings =
  List.length (List.filter (fun (f : Finding.t) -> f.rule = rule) findings)

let check_count name rule expected findings =
  Alcotest.(check int) name expected (count rule findings)

(* --- R1: determinism ------------------------------------------------ *)

let r1_fixture =
  {|
let roll () = Random.int 6
let now () = Unix.gettimeofday ()
let cpu () = Sys.time ()
let fine () = 42
|}

let test_r1_fires () =
  check_count "three ambient sources" Finding.R1 3 (lint r1_fixture);
  check_count "self-init too" Finding.R1 1
    (lint "let () = Random.self_init ()")

let test_r1_rng_exempt () =
  check_count "rng.ml is the one place allowed" Finding.R1 0
    (lint ~path:"lib/netsim/rng.ml" r1_fixture)

(* --- R2: domain-safety ---------------------------------------------- *)

let test_r2_fires () =
  let f =
    lint
      {|
let table = Hashtbl.create 16
let counter = ref 0
let buf = Buffer.create 64
let pure x = x + 1
|}
  in
  check_count "three module-level mutables" Finding.R2 3 f

let test_r2_ignores_local_state () =
  check_count "refs inside functions are fine" Finding.R2 0
    (lint {|
let sum xs =
  let acc = ref 0 in
  List.iter (fun x -> acc := !acc + x) xs;
  !acc
|})

let test_r2_lib_only () =
  check_count "bin/ may hold state" Finding.R2 0
    (lint ~path:"bin/tool.ml" "let cache = Hashtbl.create 8")

let test_r2_mutable_record () =
  let f =
    lint
      {|
type t = { mutable n : int }
let shared = { n = 0 }
let make () = { n = 0 }
|}
  in
  check_count "module-level literal only" Finding.R2 1 f

(* --- R3: float-hygiene ---------------------------------------------- *)

let test_r3_fires () =
  let f =
    lint ~path:"lib/fluid/fix.ml"
      {|
let is_zero x = x = 0.
let differs a b = a +. 1. <> b
let order a b = compare (a *. 2.) b
|}
  in
  check_count "three structural float comparisons" Finding.R3 3 f

let test_r3_scoped_to_numerics () =
  check_count "outside lib/fluid, lib/cc and test" Finding.R3 0
    (lint ~path:"lib/netsim/x.ml" "let is_zero x = x = 0.");
  check_count "tests are in scope" Finding.R3 1
    (lint ~path:"test/test_x.ml" "let is_zero x = x = 0.")

let test_r3_int_compare_fine () =
  check_count "integer equality untouched" Finding.R3 0
    (lint ~path:"lib/cc/y.ml" "let f a b = a = b + 1")

(* --- R4: output hygiene --------------------------------------------- *)

let r4_fixture =
  {|
let hello () = Printf.printf "hi %d" 3
let bye () = print_endline "bye"
|}

let test_r4_fires () =
  check_count "stdout printers in lib/" Finding.R4 2 (lint r4_fixture)

let test_r4_bin_exempt () =
  check_count "bin/ owns stdout" Finding.R4 0
    (lint ~path:"bin/cli.ml" r4_fixture)

(* --- R5: registry completeness -------------------------------------- *)

let scenario = "let run () = ()"

let lint_pair registry =
  Engine.lint_sources
    [
      { Engine.path = "lib/scenarios/orphan.ml"; content = scenario };
      { Engine.path = "lib/scenarios/registry.ml"; content = registry };
    ]

let test_r5_orphan () =
  check_count "unregistered scenario" Finding.R5 1
    (lint_pair "let all = []")

let test_r5_registered () =
  check_count "referenced scenario" Finding.R5 0
    (lint_pair {|let all = [ ("orphan", Orphan.run) ]|})

(* --- R6: error hygiene ---------------------------------------------- *)

let test_r6_fires () =
  let f =
    lint
      {|
let a r = ignore (Result.map succ r)
let b () = ignore (Ok 3)
let c x = ignore (if x then Ok x else Error "no")
|}
  in
  check_count "three ignored results" Finding.R6 3 f

let test_r6_constraint () =
  check_count "annotated result" Finding.R6 1
    (lint "let f r = ignore (r : (int, string) result)")

let test_r6_plain_ignore_fine () =
  check_count "ignore of a non-result stays legal" Finding.R6 0
    (lint {|
let f g x = ignore (g x)
let h q = ignore (Queue.pop q)
|})

let test_r6_everywhere () =
  check_count "fires outside lib/ too" Finding.R6 1
    (lint ~path:"test/test_x.ml" "let f r = ignore (Result.bind r g)")

let test_r6_suppressible () =
  check_count "waivable like any rule" Finding.R6 0
    (lint
       {|
(* lint: allow R6 -- fixture exercising the waiver *)
let b () = ignore (Ok 3)
|})

(* --- R7: seed plumbing ---------------------------------------------- *)

let scen_path = "lib/scenarios/fixture.ml"

let test_r7_fires () =
  let f =
    lint ~path:scen_path
      {|
let run () =
  let rng = Rng.create ~seed:42 in
  let rng2 = Repro_netsim.Rng.create ~seed:(1 + 2) in
  ignore rng; ignore rng2
|}
  in
  check_count "two hard-coded seeds" Finding.R7 2 f

let test_r7_optional_default () =
  check_count "defaulted ?seed argument" Finding.R7 1
    (lint ~path:scen_path "let make ?(seed = 1) () = Rng.create ~seed")

let test_r7_threaded_seed_fine () =
  check_count "seed from the config threads through" Finding.R7 0
    (lint ~path:scen_path
       {|
let run cfg =
  let rng = Rng.create ~seed:cfg.seed in
  ignore rng

let make ~seed () = Rng.create ~seed
|})

let test_r7_scoped_to_scenarios () =
  let fixture = "let rng = Rng.create ~seed:7" in
  check_count "tests may pin literal seeds" Finding.R7 0
    (lint ~path:"test/test_x.ml" fixture);
  check_count "golden fixtures too" Finding.R7 0
    (lint ~path:"lib/check/golden.ml" fixture)

let test_r7_suppressible () =
  check_count "waivable like any rule" Finding.R7 0
    (lint ~path:scen_path
       {|
(* lint: allow R7 -- fixture exercising the waiver *)
let rng = Rng.create ~seed:7
|})

(* --- clean code, parse errors --------------------------------------- *)

let test_clean_passes () =
  Alcotest.(check int)
    "no findings" 0
    (List.length
       (lint
          {|
let add a b = a + b

let fold xs =
  let rec go acc = function [] -> acc | x :: tl -> go (acc + x) tl in
  go 0 xs
|}))

let test_parse_error () =
  let f = lint "let = = =" in
  check_count "one parse finding" Finding.Parse 1 f;
  Alcotest.(check int) "and nothing else" 1 (List.length f)

(* --- suppressions --------------------------------------------------- *)

let test_suppress_line () =
  check_count "directive above the line waives it" Finding.R4 0
    (lint
       {|
(* lint: allow R4 -- fixture exercising the waiver *)
let hello () = print_endline "hi"
|})

let test_suppress_file () =
  let f =
    lint
      {|
(* lint: allow-file R4 -- harness fixture prints on purpose *)
let a () = print_endline "a"
let b () = print_string "b"
|}
  in
  check_count "whole file waived" Finding.R4 0 f

let test_suppress_wrong_rule () =
  check_count "waiving R1 does not silence R4" Finding.R4 1
    (lint
       {|
(* lint: allow R1 -- wrong rule on purpose *)
let hello () = print_endline "hi"
|})

let test_suppress_needs_reason () =
  let f = lint {|
(* lint: allow R4 *)
let hello () = print_endline "hi"
|} in
  check_count "reason-less directive is itself a finding" Finding.Suppress 1 f;
  check_count "and does not waive anything" Finding.R4 1 f

let test_suppress_unknown_rule () =
  check_count "unknown rule id rejected" Finding.Suppress 1
    (lint "(* lint: allow R99 -- no such rule *)\nlet x = 1")

let test_suppress_in_string_ignored () =
  check_count "directive text inside a string literal is inert"
    Finding.Suppress 0
    (lint {|let doc = "(* lint: allow R4 *)"|});
  check_count "same inside a quoted string" Finding.Suppress 0
    (lint "let doc = {q|(* lint: allow R4 *)|q}");
  check_count "and the quoted string hides nothing after it" Finding.R4 1
    (lint "let doc = {q|(* lint: allow-file R4 -- x *)|q}\n\
           let p () = print_endline doc")

(* --- reporters ------------------------------------------------------ *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_report_text () =
  let f = lint r4_fixture in
  let text = Report.to_text ~files:1 f in
  Alcotest.(check bool) "names the rule" true (contains ~needle:"R4" text);
  Alcotest.(check bool) "names the file" true
    (contains ~needle:"lib/foo/fixture.ml" text);
  Alcotest.(check bool) "clean tree says so" true
    (contains ~needle:"clean" (Report.to_text ~files:3 []))

let test_report_json () =
  (* serialize and re-parse: exercises the reporter and the Json
     round-trip together *)
  match
    Repro_stats.Json.of_string
      (Repro_stats.Json.to_string (Report.to_json ~files:1 (lint r4_fixture)))
  with
  | Error e -> Alcotest.fail ("report is not valid JSON: " ^ e)
  | Ok (Repro_stats.Json.Obj fields) ->
    (match List.assoc_opt "count" fields with
    | Some (Repro_stats.Json.Int n) -> Alcotest.(check int) "count" 2 n
    | _ -> Alcotest.fail "missing count");
    (match List.assoc_opt "clean" fields with
    | Some (Repro_stats.Json.Bool b) -> Alcotest.(check bool) "clean" false b
    | _ -> Alcotest.fail "missing clean")
  | Ok _ -> Alcotest.fail "report is not a JSON object"

(* --- whole-program pass: call graph, R9, R10, R11 ------------------- *)

let test_r9_direct () =
  check_count "allocation in the entry point itself" Finding.R9 1
    (lint "let[@olia.alloc_free] f x = Some x");
  check_count "pure entry point is silent" Finding.R9 0
    (lint "let[@olia.alloc_free] f x = x + 1")

let test_r9_cross_module () =
  let fs =
    Engine.lint_sources
      [
        {
          Engine.path = "lib/a/entry.ml";
          content = "let[@olia.alloc_free] dispatch x = Helper.consume x";
        };
        { Engine.path = "lib/a/helper.ml"; content = "let consume x = ref x" };
      ]
  in
  check_count "allocation one module away" Finding.R9 1 fs;
  match List.find_opt (fun (f : Finding.t) -> f.rule = Finding.R9) fs with
  | None -> Alcotest.fail "no R9 finding"
  | Some f ->
    Alcotest.(check string) "reported at the allocation site" "lib/a/helper.ml"
      f.file;
    Alcotest.(check (option (pair string int)))
      "rooted at the entry point"
      (Some ("lib/a/entry.ml", 1))
      f.root;
    Alcotest.(check bool) "chain names both hops" true
      (contains ~needle:"Entry.dispatch" f.message
      && contains ~needle:"Helper.consume" f.message)

let test_r9_guard_pruned () =
  check_count "allocation behind debug guards does not count" Finding.R9 0
    (lint
       {|
let check x = if Invariant.enabled () then failwith (string_of_int x)
let[@olia.alloc_free] f x = check x; x + 1
|})

let test_r9_module_init_exempt () =
  check_count "mentioning a module-level constant is not an allocation"
    Finding.R9 0
    (lint {|
let pair = (1, 2)
let[@olia.alloc_free] f () = fst pair
|})

let test_r9_suppressible_at_root () =
  let entry_waived =
    {|
(* lint: allow R9 -- measured: amortized, off the steady-state path *)
let[@olia.alloc_free] dispatch x = Helper.consume x
|}
  in
  check_count "directive at the chain's root waives the callee's finding"
    Finding.R9 0
    (Engine.lint_sources
       [
         { Engine.path = "lib/a/entry.ml"; content = entry_waived };
         { Engine.path = "lib/a/helper.ml"; content = "let consume x = ref x" };
       ]);
  check_count "directive at the allocation site waives it too" Finding.R9 0
    (Engine.lint_sources
       [
         {
           Engine.path = "lib/a/entry.ml";
           content = "let[@olia.alloc_free] dispatch x = Helper.consume x";
         };
         {
           Engine.path = "lib/a/helper.ml";
           content =
             "(* lint: allow R9 -- cold path *)\nlet consume x = ref x";
         };
       ])

let test_r9_extra_roots () =
  let src = "let f x = ref x" in
  check_count "no annotation, no finding" Finding.R9 0 (lint src);
  check_count "--alloc-free-root seeds the same walk" Finding.R9 1
    (Engine.lint_sources
       ~extra_alloc_free_roots:[ "Fixture.f" ]
       [ { Engine.path = "lib/foo/fixture.ml"; content = src } ])

let test_r9_mutual_recursion () =
  check_count "cycle in the call graph terminates, silently" Finding.R9 0
    (lint
       {|
let[@olia.alloc_free] rec even n = if n = 0 then true else odd (n - 1)
and odd n = if n = 0 then false else even (n - 1)
|})

let test_callgraph_shadowing () =
  check_count "call resolves to the nearest earlier binding" Finding.R9 0
    (lint
       {|
let g x = ref x
let g x = x + 1
let[@olia.alloc_free] f x = g x
|});
  check_count "and flags when the shadowing binding allocates" Finding.R9 1
    (lint
       {|
let g x = x + 1
let g x = ref x
let[@olia.alloc_free] f x = g x
|})

let test_graph_dump () =
  let dump =
    Callgraph.dump
      (Engine.graph_of_sources
         [
           {
             Engine.path = "lib/a/entry.ml";
             content = "let dispatch x = Helper.consume x";
           };
           {
             Engine.path = "lib/a/helper.ml";
             content = "let consume x = x + 1";
           };
         ])
  in
  Alcotest.(check bool) "lists the caller" true
    (contains ~needle:"Entry.dispatch" dump);
  Alcotest.(check bool) "and the resolved cross-module edge" true
    (contains ~needle:"Helper.consume" dump)

let test_r10_fires () =
  let fs =
    Engine.lint_sources
      [
        { Engine.path = "lib/exp/sweep.ml"; content = "let run f = Tally.bump f" };
        {
          Engine.path = "lib/exp/tally.ml";
          content = "let total = ref 0\nlet bump f = total := !total + f";
        };
      ]
  in
  check_count "mutable toplevel reachable from a sweep worker" Finding.R10 1 fs

let test_r10_unreachable_silent () =
  check_count "state the sweep never touches is R2's business, not R10's"
    Finding.R10 0
    (Engine.lint_sources
       [
         { Engine.path = "lib/exp/sweep.ml"; content = "let run f = f + 1" };
         {
           Engine.path = "lib/exp/tally.ml";
           content = "let total = ref 0\nlet bump f = total := !total + f";
         };
       ]);
  check_count "worker-local state is fine" Finding.R10 0
    (Engine.lint_sources
       [
         {
           Engine.path = "lib/exp/sweep.ml";
           content = "let run f =\n  let acc = ref 0 in\n  acc := f;\n  !acc";
         };
       ])

let test_r11_fires () =
  let fs =
    lint
      {|
let stamp () = Unix.gettimeofday ()
let report x = Trace.emit (x +. stamp ())
|}
  in
  check_count "wall clock flows into a trace sink" Finding.R11 1 fs;
  match List.find_opt (fun (f : Finding.t) -> f.rule = Finding.R11) fs with
  | None -> Alcotest.fail "no R11 finding"
  | Some f ->
    Alcotest.(check bool) "explains the taint chain" true
      (contains ~needle:"stamp" f.message)

let test_r11_guarded_silent () =
  check_count "source only reached behind a debug guard" Finding.R11 0
    (lint
       {|
let stamp () = Unix.gettimeofday ()
let report x =
  if Invariant.enabled () then ignore (stamp ());
  Trace.emit x
|})

let test_r11_sort_sanitizes () =
  let tainted =
    {|
let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []
let dump t = Trace.emit (keys t)
|}
  in
  check_count "hashtable iteration order reaches the sink" Finding.R11 1
    (lint tainted);
  check_count "a sort on the way scrubs the order dependence" Finding.R11 0
    (lint
       {|
let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])
let dump t = Trace.emit (keys t)
|})

(* The binary ring writer persists records just like Trace.emit, so the
   scalar emission entry points are determinism sinks too. *)
let test_r11_ring_writer_sink () =
  check_count "wall clock flows into the ring writer" Finding.R11 1
    (lint
       {|
let stamp () = Unix.gettimeofday ()
let note flow = Trace.rtt_sample (stamp ()) flow
|})

(* --- on-disk fixtures: parse resilience, broken hot path ------------ *)

(* Under `dune runtest` the cwd is test/'s sandbox; under a bare
   `dune exec test/test_main.exe` it is the repo root. *)
let fixture name =
  let local = Filename.concat "lint-fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test" local

let slurp name =
  let ic = open_in_bin (fixture name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The R3-fp sub-check arms on the _fp.ml basename under lib/cc, so the
   fixtures are read off disk and re-pathed (same trick as R10). *)
let test_r3_fp_fires () =
  let content = slurp "r3_fp_broken.ml" in
  check_count "each float touch in the update path is a finding"
    Finding.R3 4
    (Engine.lint_sources [ { Engine.path = "lib/cc/fixture_fp.ml"; content } ]);
  check_count "the same code without the twin basename is quiet"
    Finding.R3 0
    (Engine.lint_sources [ { Engine.path = "lib/cc/fixture.ml"; content } ]);
  check_count "and outside lib/cc too" Finding.R3 0
    (Engine.lint_sources
       [ { Engine.path = "lib/netsim/fixture_fp.ml"; content } ])

let test_r3_fp_boundary_exempt () =
  let content = slurp "r3_fp_clean.ml" in
  check_count "float-boundary adapters are exempt" Finding.R3 0
    (Engine.lint_sources [ { Engine.path = "lib/cc/fixture_fp.ml"; content } ])

let test_fixture_parse_resilience () =
  let n, fs = Engine.lint_paths [ fixture "malformed.ml"; fixture "r9_broken.ml" ] in
  Alcotest.(check int) "both files scanned" 2 n;
  check_count "malformed file degrades to one Parse finding" Finding.Parse 1 fs;
  check_count "whole-program pass still ran over the healthy file" Finding.R9
    2 fs

let test_fixture_broken_hot_path () =
  let _, fs = Engine.lint_paths [ fixture "r9_broken.ml" ] in
  check_count "deliberately-broken hot path caught" Finding.R9 2 fs;
  Alcotest.(check bool) "chain pins the leaking helper" true
    (List.exists
       (fun (f : Finding.t) -> contains ~needle:"leak_event" f.message)
       fs);
  let _, clean = Engine.lint_paths [ fixture "r9_clean.ml" ] in
  check_count "its clean twin is silent" Finding.R9 0 clean

(* An armed-emission function that builds an event payload on its
   [@olia.alloc_free] path: R9 must flag the allocation. *)
let test_fixture_trace_payload () =
  let _, fs = Engine.lint_paths [ fixture "r9_trace_broken.ml" ] in
  check_count "allocating emission branch caught" Finding.R9 1 fs;
  Alcotest.(check bool) "finding pins the payload allocation" true
    (List.exists
       (fun (f : Finding.t) ->
         f.rule = Finding.R9 && contains ~needle:"tuple" f.message)
       fs)

(* Polymorphic min/max/compare on the hot path box their float
   arguments: R9 catalogues them as allocations, called or passed as
   values, bare or [Stdlib.]-qualified, while monomorphic twins and
   local shadows stay silent. *)
let test_fixture_polycmp () =
  let _, fs = Engine.lint_paths [ fixture "r9_polycmp_broken.ml" ] in
  check_count "max, min and compare all caught" Finding.R9 3 fs;
  Alcotest.(check bool) "message names the boxing" true
    (List.for_all
       (fun (f : Finding.t) ->
         f.rule <> Finding.R9
         || contains ~needle:"polymorphic compare boxes float arguments"
              f.message)
       fs);
  Alcotest.(check bool) "chain pins the clamp helper" true
    (List.exists
       (fun (f : Finding.t) -> contains ~needle:"clamp" f.message)
       fs);
  check_count "passed as a value" Finding.R9 1
    (lint "let[@olia.alloc_free] best a = Array.fold_left max 0. a");
  check_count "monomorphic and shadowed ones are fine" Finding.R9 0
    (lint
       {|
let[@olia.alloc_free] f a b =
  let max x y = if x >= y then x else y in
  Int.max (max a b) (Float.to_int (Fmath.min 1. 2.))
|})

(* The fixture's content must sit at the sharded runtime's real path for
   the R10 roots to arm, so read it off disk and re-path it. *)
let test_r10_shard_roots () =
  let content =
    let ic = open_in_bin (fixture "r10_shard.ml") in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check_count "shard window loop is a domain-spawning root" Finding.R10 1
    (Engine.lint_sources [ { Engine.path = "lib/netsim/shard.ml"; content } ]);
  check_count "the same code elsewhere in netsim is not" Finding.R10 0
    (Engine.lint_sources [ { Engine.path = "lib/netsim/other.ml"; content } ])

let suite =
  [
    Alcotest.test_case "R1 fires on ambient randomness/clocks" `Quick
      test_r1_fires;
    Alcotest.test_case "R1 exempts lib/netsim/rng.ml" `Quick test_r1_rng_exempt;
    Alcotest.test_case "R2 fires on module-level mutables" `Quick test_r2_fires;
    Alcotest.test_case "R2 ignores function-local state" `Quick
      test_r2_ignores_local_state;
    Alcotest.test_case "R2 scoped to lib/" `Quick test_r2_lib_only;
    Alcotest.test_case "R2 catches mutable-record literals" `Quick
      test_r2_mutable_record;
    Alcotest.test_case "R3 fires on structural float comparison" `Quick
      test_r3_fires;
    Alcotest.test_case "R3 scoped to numeric libraries" `Quick
      test_r3_scoped_to_numerics;
    Alcotest.test_case "R3 leaves integer comparison alone" `Quick
      test_r3_int_compare_fine;
    Alcotest.test_case "R4 fires on lib/ stdout printing" `Quick test_r4_fires;
    Alcotest.test_case "R4 exempts bin/" `Quick test_r4_bin_exempt;
    Alcotest.test_case "R5 flags unregistered scenarios" `Quick test_r5_orphan;
    Alcotest.test_case "R5 accepts referenced scenarios" `Quick
      test_r5_registered;
    Alcotest.test_case "R6 fires on ignored results" `Quick test_r6_fires;
    Alcotest.test_case "R6 sees type annotations" `Quick test_r6_constraint;
    Alcotest.test_case "R6 leaves other ignores alone" `Quick
      test_r6_plain_ignore_fine;
    Alcotest.test_case "R6 applies everywhere" `Quick test_r6_everywhere;
    Alcotest.test_case "R6 suppressible" `Quick test_r6_suppressible;
    Alcotest.test_case "R7 fires on hard-coded seeds" `Quick test_r7_fires;
    Alcotest.test_case "R7 fires on defaulted ?seed" `Quick
      test_r7_optional_default;
    Alcotest.test_case "R7 accepts threaded seeds" `Quick
      test_r7_threaded_seed_fine;
    Alcotest.test_case "R7 scoped to lib/scenarios" `Quick
      test_r7_scoped_to_scenarios;
    Alcotest.test_case "R7 suppressible" `Quick test_r7_suppressible;
    Alcotest.test_case "clean code produces no findings" `Quick
      test_clean_passes;
    Alcotest.test_case "unparseable file yields one finding" `Quick
      test_parse_error;
    Alcotest.test_case "line suppression honored" `Quick test_suppress_line;
    Alcotest.test_case "file suppression honored" `Quick test_suppress_file;
    Alcotest.test_case "suppression is rule-specific" `Quick
      test_suppress_wrong_rule;
    Alcotest.test_case "suppression without reason rejected" `Quick
      test_suppress_needs_reason;
    Alcotest.test_case "suppression with unknown rule rejected" `Quick
      test_suppress_unknown_rule;
    Alcotest.test_case "directive inside string literal inert" `Quick
      test_suppress_in_string_ignored;
    Alcotest.test_case "text report" `Quick test_report_text;
    Alcotest.test_case "json report" `Quick test_report_json;
    Alcotest.test_case "R9 fires on a direct allocation" `Quick test_r9_direct;
    Alcotest.test_case "R9 flags polymorphic min/max/compare" `Quick
      test_fixture_polycmp;
    Alcotest.test_case "R9 follows cross-module calls" `Quick
      test_r9_cross_module;
    Alcotest.test_case "R9 prunes guarded branches" `Quick
      test_r9_guard_pruned;
    Alcotest.test_case "R9 exempts module-init allocation" `Quick
      test_r9_module_init_exempt;
    Alcotest.test_case "R9 suppressible at root or site" `Quick
      test_r9_suppressible_at_root;
    Alcotest.test_case "R9 extra roots seed the walk" `Quick
      test_r9_extra_roots;
    Alcotest.test_case "R9 survives mutual recursion" `Quick
      test_r9_mutual_recursion;
    Alcotest.test_case "call graph honors shadowing" `Quick
      test_callgraph_shadowing;
    Alcotest.test_case "call graph dump names edges" `Quick test_graph_dump;
    Alcotest.test_case "R10 fires on sweep-reachable state" `Quick
      test_r10_fires;
    Alcotest.test_case "R10 ignores unreachable or local state" `Quick
      test_r10_unreachable_silent;
    Alcotest.test_case "R10 covers shard-reachable state" `Quick
      test_r10_shard_roots;
    Alcotest.test_case "R11 taints wall clock into sinks" `Quick
      test_r11_fires;
    Alcotest.test_case "R11 respects guards" `Quick test_r11_guarded_silent;
    Alcotest.test_case "R11 sort sanitizes table order" `Quick
      test_r11_sort_sanitizes;
    Alcotest.test_case "R11 treats the ring writer as a sink" `Quick
      test_r11_ring_writer_sink;
    Alcotest.test_case "R3-fp fires on floats in twin update paths" `Quick
      test_r3_fp_fires;
    Alcotest.test_case "R3-fp exempts float-boundary adapters" `Quick
      test_r3_fp_boundary_exempt;
    Alcotest.test_case "fixtures: parse failure is contained" `Quick
      test_fixture_parse_resilience;
    Alcotest.test_case "fixtures: broken hot path is caught" `Quick
      test_fixture_broken_hot_path;
    Alcotest.test_case "fixtures: allocating emission is caught" `Quick
      test_fixture_trace_payload;
  ]
