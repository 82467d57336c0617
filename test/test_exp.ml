(* Tests of the uniform experiment API (lib/exp) and the scenario
   registry: axis parsing, cross-products, determinism of the multicore
   sweep engine against the sequential runner, and a round-trip of every
   registered scenario at tiny durations. *)

module E = Mptcp_repro.Exp
module S = Mptcp_repro.Scenarios
module Json = Mptcp_repro.Stats.Json

let scen_a_spec =
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find "scenario-a" in
  Sc.spec

let values_testable =
  Alcotest.testable
    (fun fmt vs ->
      Format.pp_print_string fmt
        (String.concat ";" (List.map E.Spec.value_to_string vs)))
    ( = )

let test_axis_int_range () =
  let ax = E.Sweep.axis scen_a_spec ~key:"n2" "10:40:10" in
  Alcotest.check values_testable "inclusive range"
    [ E.Spec.Int 10; E.Spec.Int 20; E.Spec.Int 30; E.Spec.Int 40 ]
    ax.E.Sweep.values;
  let ax = E.Sweep.axis scen_a_spec ~key:"n2" "1:3" in
  Alcotest.check values_testable "default step 1"
    [ E.Spec.Int 1; E.Spec.Int 2; E.Spec.Int 3 ]
    ax.E.Sweep.values

let test_axis_float_range () =
  let ax = E.Sweep.axis_of_assign scen_a_spec "c1=0.5:1.5:0.5" in
  Alcotest.check values_testable "float range"
    [ E.Spec.Float 0.5; E.Spec.Float 1.0; E.Spec.Float 1.5 ]
    ax.E.Sweep.values

let test_axis_string_list () =
  (* ':' inside a string value must not be mistaken for a range *)
  let ax = E.Sweep.axis_of_assign scen_a_spec "algo=lia,olia,coupled:0.5" in
  Alcotest.check values_testable "list with colon value"
    [ E.Spec.String "lia"; E.Spec.String "olia"; E.Spec.String "coupled:0.5" ]
    ax.E.Sweep.values

let test_axis_errors () =
  Alcotest.check_raises "unknown key"
    (Invalid_argument
       "scenario-a has no parameter \"bogus\" (valid: n1, n2, c1, c2, algo, \
        duration, warmup, seed)") (fun () ->
      ignore (E.Sweep.axis scen_a_spec ~key:"bogus" "1:2"));
  (try
     ignore (E.Sweep.axis scen_a_spec ~key:"n2" "5:1:1");
     Alcotest.fail "empty range should raise"
   with Invalid_argument _ -> ());
  try
    ignore (E.Sweep.axis scen_a_spec ~key:"n2" "x,y");
    Alcotest.fail "bad int literal should raise"
  with Invalid_argument _ -> ()

(* Non-finite floats are refused where they enter, naming the
   parameter: a [-p], a sweep list and a sweep range bound. *)
let test_rejects_non_finite () =
  List.iter
    (fun raw ->
      let expect =
        Invalid_argument
          (Printf.sprintf "Spec.parse_value: c1: %S is not a finite float" raw)
      in
      Alcotest.check_raises ("-p c1=" ^ raw) expect (fun () ->
          ignore (E.Spec.parse_assign scen_a_spec ("c1=" ^ raw)));
      Alcotest.check_raises ("axis list " ^ raw) expect (fun () ->
          ignore (E.Sweep.axis scen_a_spec ~key:"c1" ("1," ^ raw)));
      Alcotest.check_raises ("axis range " ^ raw) expect (fun () ->
          ignore (E.Sweep.axis scen_a_spec ~key:"c1" ("1:" ^ raw))))
    [ "nan"; "inf"; "-inf" ];
  Alcotest.check_raises "malformed float names the parameter"
    (Invalid_argument "Spec.parse_value: c1: \"x\" is not a valid float")
    (fun () -> ignore (E.Spec.parse_assign scen_a_spec "c1=x"));
  match E.Spec.parse_assign scen_a_spec "c1=1e308" with
  | _, E.Spec.Float f ->
    Alcotest.(check bool) "large finite accepted" true (f > 1e307)
  | _ -> Alcotest.fail "c1 parses as a float"

let test_points_cross_product () =
  let axes =
    [
      E.Sweep.axis_of_assign scen_a_spec "n2=10:20:10";
      E.Sweep.axis_of_assign scen_a_spec "algo=lia,olia";
      E.Sweep.seed_axis 3;
    ]
  in
  let pts =
    E.Sweep.points scen_a_spec ~fixed:[ ("duration", E.Spec.Float 5.) ] axes
  in
  Alcotest.(check int) "2*2*3 points" 12 (List.length pts);
  (* row-major: the last axis (seed) varies fastest *)
  let first = List.hd pts in
  Alcotest.(check int) "first n2" 10 (E.Spec.get_int scen_a_spec first "n2");
  Alcotest.(check string)
    "first algo" "lia"
    (E.Spec.get_string scen_a_spec first "algo");
  let seeds_of l = List.map (fun b -> E.Spec.get_int scen_a_spec b "seed") l in
  Alcotest.(check (list int))
    "seed varies fastest" [ 1; 2; 3 ]
    (seeds_of
       (List.filteri (fun i _ -> i < 3) pts));
  List.iter
    (fun b ->
      Alcotest.(check (float 0.))
        "fixed duration applies" 5.
        (E.Spec.get_float scen_a_spec b "duration"))
    pts

let tiny_bindings : (string * E.Spec.bindings) list =
  [
    ( "scenario-a",
      [
        ("n1", E.Spec.Int 4); ("n2", E.Spec.Int 4);
        ("duration", E.Spec.Float 6.); ("warmup", E.Spec.Float 2.);
      ] );
    ( "scenario-b",
      [
        ("n", E.Spec.Int 4); ("duration", E.Spec.Float 6.);
        ("warmup", E.Spec.Float 2.);
      ] );
    ( "scenario-c",
      [
        ("n1", E.Spec.Int 4); ("n2", E.Spec.Int 4);
        ("duration", E.Spec.Float 6.); ("warmup", E.Spec.Float 2.);
      ] );
    ( "two-bottleneck",
      [
        ("n_tcp1", E.Spec.Int 2); ("n_tcp2", E.Spec.Int 2);
        ("duration", E.Spec.Float 6.);
      ] );
    ( "responsiveness",
      [
        ("shock_at", E.Spec.Float 2.); ("relief_at", E.Spec.Float 4.);
        ("duration", E.Spec.Float 6.);
      ] );
    ( "wireless",
      [ ("duration", E.Spec.Float 6.); ("warmup", E.Spec.Float 2.) ] );
    ( "fattree-dynamic",
      [
        ("k", E.Spec.Int 4); ("subflows", E.Spec.Int 2);
        ("duration", E.Spec.Float 2.5); ("warmup", E.Spec.Float 0.5);
      ] );
    ( "fattree-sharded",
      [
        ("k", E.Spec.Int 4); ("shards", E.Spec.Int 1);
        ("flows_per_host", E.Spec.Int 1);
        ("duration", E.Spec.Float 1.5); ("warmup", E.Spec.Float 0.5);
      ] );
  ]

(* the responsiveness scenario legitimately reports nan for "never
   reacted", which short shock windows can produce *)
let nan_ok name metric =
  name = "responsiveness"
  && (metric = "shock_response_s" || metric = "relief_response_s")

let test_registry_round_trip () =
  Alcotest.(check (list string))
    "tiny bindings cover the registry" S.Registry.names
    (List.map fst tiny_bindings);
  List.iter
    (fun (name, bindings) ->
      let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
      Alcotest.(check string) "spec name matches" name Sc.spec.E.Spec.name;
      E.Spec.validate Sc.spec bindings;
      let outcome = Sc.run bindings in
      Alcotest.(check bool)
        (name ^ " has metrics") true
        (outcome.E.Outcome.metrics <> []);
      List.iter
        (fun (metric, v) ->
          if not (nan_ok name metric) then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s finite (%g)" name metric v)
              true (Float.is_finite v))
        outcome.E.Outcome.metrics)
    tiny_bindings

let test_registry_unknown () =
  try
    ignore (S.Registry.find "no-such-scenario");
    Alcotest.fail "unknown scenario should raise"
  with Invalid_argument _ -> ()

let sweep_points () =
  let axes =
    [ E.Sweep.axis_of_assign scen_a_spec "algo=lia,olia"; E.Sweep.seed_axis 4 ]
  in
  E.Sweep.points scen_a_spec
    ~fixed:
      [
        ("n1", E.Spec.Int 3); ("n2", E.Spec.Int 3);
        ("duration", E.Spec.Float 4.); ("warmup", E.Spec.Float 1.);
      ]
    axes

let test_parallel_equals_sequential () =
  let sc = S.Registry.find "scenario-a" in
  let pts = sweep_points () in
  Alcotest.(check int) "8 points" 8 (List.length pts);
  let seq = E.Sweep.run_seq sc pts in
  let par = E.Sweep.run ~domains:2 sc pts in
  Alcotest.(check bool) "structurally identical" true (par = seq);
  (* ... and byte-identical once serialized *)
  Alcotest.(check string)
    "byte-identical JSON"
    (Json.to_string (E.Sweep.to_json ~spec:scen_a_spec seq))
    (Json.to_string (E.Sweep.to_json ~spec:scen_a_spec par))

let test_aggregate () =
  let sc = S.Registry.find "scenario-a" in
  let results = E.Sweep.run ~domains:2 sc (sweep_points ()) in
  let agg = E.Sweep.aggregate results in
  Alcotest.(check string) "grouped over seed" "seed" agg.E.Sweep.over;
  Alcotest.(check int) "two groups" 2 (List.length agg.E.Sweep.rows);
  List.iter
    (fun (a : E.Sweep.agg) ->
      Alcotest.(check int) "4 replications" 4 a.E.Sweep.n;
      Alcotest.(check bool)
        "seed dropped from group" false
        (List.mem_assoc "seed" a.E.Sweep.group);
      List.iter
        (fun (metric, (mean, sd)) ->
          Alcotest.(check bool)
            (metric ^ " mean finite") true (Float.is_finite mean);
          Alcotest.(check bool) (metric ^ " stddev >= 0") true (sd >= 0.))
        a.E.Sweep.stats)
    agg.E.Sweep.rows;
  (* a replicated point's mean must equal the mean of its replications *)
  let by_algo algo =
    List.filter
      (fun p ->
        E.Spec.get_string scen_a_spec p.E.Sweep.bindings "algo" = algo)
      results
  in
  let lia = by_algo "lia" in
  let manual =
    List.fold_left
      (fun acc p -> acc +. E.Outcome.metric p.E.Sweep.outcome "norm_type2")
      0. lia
    /. float_of_int (List.length lia)
  in
  let row =
    List.find
      (fun (a : E.Sweep.agg) ->
        E.Spec.get_string scen_a_spec a.E.Sweep.group "algo" = "lia")
      agg.E.Sweep.rows
  in
  let mean, _ = List.assoc "norm_type2" row.E.Sweep.stats in
  Alcotest.(check (float 1e-12)) "aggregate mean" manual mean

let test_emitters () =
  let sc = S.Registry.find "scenario-a" in
  let results = E.Sweep.run ~domains:2 sc (sweep_points ()) in
  let agg = E.Sweep.aggregate results in
  let json_path = Filename.temp_file "sweep" ".json" in
  let csv_path = Filename.temp_file "sweep" ".csv" in
  let agg_path = Filename.temp_file "sweep_agg" ".csv" in
  E.Sweep.write_json ~path:json_path ~spec:scen_a_spec ~aggregated:agg results;
  E.Sweep.write_csv ~path:csv_path ~spec:scen_a_spec results;
  E.Sweep.write_agg_csv ~path:agg_path ~spec:scen_a_spec agg;
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let csv = read_lines csv_path in
  Alcotest.(check int) "csv: header + 8 rows" 9 (List.length csv);
  Alcotest.(check string)
    "csv header is params then metrics"
    "n1,n2,c1,c2,algo,duration,warmup,seed,norm_type1,norm_type2,p1,p2,obs_events,obs_max_heap_depth,obs_drops_overflow,obs_drops_red,obs_drops_random,obs_subflow_goodput_bps_type1_sf0,obs_subflow_goodput_bps_type1_sf1,obs_subflow_goodput_bps_type2_sf0"
    (List.hd csv);
  let agg_csv = read_lines agg_path in
  Alcotest.(check int) "agg csv: header + 2 rows" 3 (List.length agg_csv);
  (match read_lines json_path with
   | [ line ] ->
     let contains needle =
       let nl = String.length needle and ll = String.length line in
       let rec go i =
         i + nl <= ll && (String.sub line i nl = needle || go (i + 1))
       in
       go 0
     in
     Alcotest.(check bool)
       "json mentions every section" true
       (List.for_all contains
          [ "\"scenario\":\"scenario-a\""; "\"points\""; "\"aggregate\"";
            "\"over\":\"seed\"" ])
   | lines ->
     Alcotest.fail
       (Printf.sprintf "expected single-line JSON, got %d lines"
          (List.length lines)));
  List.iter Sys.remove [ json_path; csv_path; agg_path ]

let test_json_escaping () =
  Alcotest.(check string)
    "string escaping" "{\"a\\\"b\":[1,true,null,\"x\\ny\"]}"
    (Json.to_string
       (Json.Obj
          [
            ( "a\"b",
              Json.List
                [ Json.Int 1; Json.Bool true; Json.Null; Json.String "x\ny" ]
            );
          ]));
  Alcotest.(check string)
    "non-finite floats become null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]))

let suite =
  [
    ("axis: int range", `Quick, test_axis_int_range);
    ("axis: float range", `Quick, test_axis_float_range);
    ("axis: string list", `Quick, test_axis_string_list);
    ("axis: errors", `Quick, test_axis_errors);
    ("spec: non-finite floats rejected", `Quick, test_rejects_non_finite);
    ("points: cross product", `Quick, test_points_cross_product);
    ("registry: round trip", `Slow, test_registry_round_trip);
    ("registry: unknown name", `Quick, test_registry_unknown);
    ("sweep: parallel = sequential", `Slow, test_parallel_equals_sequential);
    ("sweep: aggregation", `Slow, test_aggregate);
    ("sweep: emitters", `Slow, test_emitters);
    ("json: escaping", `Quick, test_json_escaping);
  ]
