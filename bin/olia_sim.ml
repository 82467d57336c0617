(* olia_sim: command-line front end for the OLIA reproduction.

   Subcommands:
     list                                   registered scenarios and params
     run <scenario> [-p k=v]...             any registry scenario, one point
     sweep <scenario> [-x k=axis]...        multicore parameter sweep
     report <trace.jsonl>                   flight-recorder trace analysis
     fluid                                  analytical fixed points
     shard-invariance                       sharded-vs-sequential CI gate
     check                                  conformance + golden traces *)

open Cmdliner
module S = Mptcp_repro.Scenarios
module E = Mptcp_repro.Exp
module F = Mptcp_repro.Fluid

(* --- common options ---------------------------------------------------- *)

let algo =
  let doc =
    "Congestion control: reno, lia, olia, balia, cubic, scalable, wvegas or \
     coupled:<eps>."
  in
  Arg.(value & opt string "olia" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

let seed =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let n1 =
  let doc = "Number of multipath (type-1) users." in
  Arg.(value & opt int 10 & info [ "n1" ] ~docv:"N" ~doc)

let n2 =
  let doc = "Number of single-path (type-2) users." in
  Arg.(value & opt int 10 & info [ "n2" ] ~docv:"N" ~doc)

let c1 =
  let doc = "Per-user capacity C1, Mb/s." in
  Arg.(value & opt float 1. & info [ "c1" ] ~docv:"MBPS" ~doc)

let c2 =
  let doc = "Per-user capacity C2, Mb/s." in
  Arg.(value & opt float 1. & info [ "c2" ] ~docv:"MBPS" ~doc)

(* --- registry-driven commands: list, run, sweep ------------------------- *)

let scenario_pos =
  let doc = "Registry scenario name; $(b,olia_sim list) shows them all." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let params_opt =
  let doc =
    "Override one spec parameter, e.g. $(b,-p n2=30); repeatable."
  in
  Arg.(value & opt_all string [] & info [ "p"; "param" ] ~docv:"KEY=VALUE" ~doc)

let out_opt =
  let doc = "Write results to $(docv) (.json or .csv, by extension)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let run_list () =
  List.iter
    (fun name ->
      let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
      Printf.printf "%s\n  %s\n" Sc.spec.E.Spec.name Sc.spec.E.Spec.doc;
      List.iter
        (fun p ->
          Printf.printf "    %-16s %-7s default %-8s %s\n" p.E.Spec.key
            (E.Spec.type_name p.E.Spec.default)
            (E.Spec.value_to_string p.E.Spec.default)
            p.E.Spec.doc)
        Sc.spec.E.Spec.params;
      print_newline ())
    S.Registry.names

let list_cmd =
  let doc = "List every registered scenario and its parameters." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run_list $ const ())

let print_outcome outcome =
  List.iter
    (fun (name, v) -> Printf.printf "%-24s %.6g\n" name v)
    outcome.E.Outcome.metrics;
  List.iter
    (fun (name, a) ->
      Printf.printf "%-24s [%d values]\n" name (Array.length a))
    outcome.E.Outcome.arrays

let trace_opt =
  let doc =
    "Stream structured simulator events (packet enqueue/drop/forward, TCP \
     state transitions, cwnd updates, RTO, subflow add/remove) to $(docv) \
     as JSONL, one event object per line."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let report_opt =
  let doc =
    "Analyze the run's event stream inline and write the deterministic \
     JSON report (queue latency percentiles, drop bursts, per-subflow \
     RTT/cwnd/state summaries) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let format_conv = Arg.enum [ ("text", `Text); ("json", `Json) ]

let format_opt =
  let doc = "Report rendering on stdout: $(b,text) tables or $(b,json)." in
  Arg.(value & opt format_conv `Text & info [ "format" ] ~docv:"FMT" ~doc)

module Obs = Mptcp_repro.Obs

let trace_ring_opt =
  let doc =
    "Capacity of each per-domain trace ring, in records (default 262144). \
     Rings are pre-allocated and drop their oldest records on overflow; \
     the run warns if anything was dropped — raise this if it does."
  in
  Arg.(
    value
    & opt int (1 lsl 18)
    & info [ "trace-ring" ] ~docv:"RECORDS" ~doc)

(* Arm tracing for the duration of [f] via per-domain binary rings: the
   calling domain binds ring 0 (single-loop scenarios emit into it),
   sharded scenarios bind one ring per worker inside the window loop,
   and after the run the rings decode — in exact sequential event
   order, whatever the shard count — into the JSONL file and/or the
   live report accumulator. *)
let with_obs_sinks ~trace ~report ~ring_capacity f =
  if trace = None && not report then (None, f ())
  else begin
    Obs.Trace.arm_rings ~capacity:ring_capacity ();
    Obs.Trace.bind_ring ~shard:0;
    match f () with
    | exception e ->
      Obs.Trace.disarm_rings ();
      raise e
    | r ->
      let events = Obs.Trace.decode_rings () in
      let dropped = Obs.Trace.rings_dropped () in
      Obs.Trace.disarm_rings ();
      if dropped > 0 then
        Printf.eprintf
          "warning: trace rings dropped %d events (oldest first); re-run \
           with a larger --trace-ring for a complete trace\n\
           %!"
          dropped;
      Option.iter (fun path -> Obs.Trace.write_jsonl ~path events) trace;
      let acc =
        if report then begin
          let a = Obs.Report.create () in
          List.iter (Obs.Report.feed a) events;
          Some a
        end
        else None
      in
      (acc, r)
  end

let shards_opt =
  let doc =
    "Simulation shards (OCaml domains), for scenarios with a $(b,shards) \
     parameter such as fattree-sharded. Shorthand for $(b,-p shards=N). \
     Results are bitwise shard-count-invariant, and $(b,--trace) works at \
     any shard count: each domain records into its own ring and the \
     decoded trace is byte-identical to the $(b,--shards 1) trace."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)

let has_shards_param (module Sc : S.Registry.SCENARIO) =
  List.exists (fun p -> p.E.Spec.key = "shards") Sc.spec.E.Spec.params

let sharded_scenario_names () =
  List.filter
    (fun n -> has_shards_param (S.Registry.find n))
    S.Registry.names

let run_generic name params shards out trace trace_ring report format =
  try
    let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
    let bindings = List.map (E.Spec.parse_assign Sc.spec) params in
    let bindings =
      match shards with
      | None -> bindings
      | Some n ->
        if not (has_shards_param (module Sc)) then
          invalid_arg
            (Printf.sprintf
               "--shards: scenario %s has no 'shards' parameter and always \
                runs on one event loop; sharded execution is available for: \
                %s"
               name
               (String.concat ", " (sharded_scenario_names ())))
        else ("shards", E.Spec.Int n) :: bindings
    in
    let acc, outcome =
      with_obs_sinks ~trace ~report:(Option.is_some report)
        ~ring_capacity:trace_ring (fun () -> Sc.run bindings)
    in
    Option.iter (fun path -> Printf.printf "wrote trace %s\n" path) trace;
    Printf.printf "%s:\n" name;
    print_outcome outcome;
    Option.iter
      (fun path ->
        if Filename.check_suffix path ".csv" then
          E.Sweep.write_csv ~path ~spec:Sc.spec
            [ { E.Sweep.bindings; outcome } ]
        else
          Mptcp_repro.Stats.Json.write ~path
            (Mptcp_repro.Stats.Json.Obj
               [
                 ("scenario", Mptcp_repro.Stats.Json.String name);
                 ("params", E.Spec.to_json Sc.spec bindings);
                 ("outcome", E.Outcome.to_json outcome);
               ]);
        Printf.printf "wrote %s\n" path)
      out;
    Option.iter
      (fun acc ->
        (match format with
        | `Text -> print_string (Obs.Report.to_text acc)
        | `Json ->
          print_endline
            (Mptcp_repro.Stats.Json.to_string (Obs.Report.to_json acc)));
        Option.iter
          (fun path ->
            Mptcp_repro.Stats.Json.write ~path (Obs.Report.to_json acc);
            Printf.printf "wrote report %s\n" path)
          report)
      acc;
    `Ok ()
  with Invalid_argument msg -> `Error (false, msg)

let run_cmd =
  let doc = "Run any registered scenario once, driven by its spec." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run_generic $ scenario_pos $ params_opt $ shards_opt $ out_opt
        $ trace_opt $ trace_ring_opt $ report_opt $ format_opt))

(* --- report: offline trace analysis ------------------------------------- *)

let run_report trace_path out format =
  match Obs.Report.load_jsonl ~path:trace_path with
  | Error e -> `Error (false, e)
  | Ok acc ->
    (match format with
    | `Text -> print_string (Obs.Report.to_text acc)
    | `Json ->
      print_endline
        (Mptcp_repro.Stats.Json.to_string (Obs.Report.to_json acc)));
    Option.iter
      (fun path ->
        Mptcp_repro.Stats.Json.write ~path (Obs.Report.to_json acc);
        Printf.printf "wrote %s\n" path)
      out;
    `Ok ()

let report_cmd =
  let trace_pos =
    let doc = "JSONL trace file recorded with $(b,olia_sim run --trace)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let doc =
    "Analyze a recorded trace: queue-residence latency percentiles \
     (p50/p90/p99), drop causes and bursts, per-subflow RTT distributions, \
     cwnd timelines and TCP state dwell times."
  in
  let man =
    [
      `S Manpage.s_examples;
      `P "olia_sim run scenario-b --trace t.jsonl";
      `P "olia_sim report t.jsonl";
      `P "olia_sim report t.jsonl --format json --out report.json";
    ]
  in
  Cmd.v (Cmd.info "report" ~doc ~man)
    Term.(ret (const run_report $ trace_pos $ out_opt $ format_opt))

let axes_opt =
  let doc =
    "Sweep one parameter: $(b,-x n2=10:100:10) (inclusive range) or \
     $(b,-x algo=lia,olia) (explicit list); repeatable, the cross-product \
     of all axes is run."
  in
  Arg.(value & opt_all string [] & info [ "x"; "axis" ] ~docv:"KEY=AXIS" ~doc)

let seeds_opt =
  let doc =
    "Replicate every point under seeds 1..$(docv) (adds a seed axis)."
  in
  Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc)

let domains_opt =
  let doc =
    "Worker domains (0 = Domain.recommended_domain_count; 1 = sequential)."
  in
  Arg.(value & opt int 0 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let agg_out_opt =
  let doc = "Also write the aggregated (mean/stddev) table to $(docv)." in
  Arg.(value & opt (some string) None & info [ "agg-out" ] ~docv:"FILE" ~doc)

let run_sweep name axes params seeds domains out agg_out =
  try
    let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
    let fixed = List.map (E.Spec.parse_assign Sc.spec) params in
    let axes = List.map (E.Sweep.axis_of_assign Sc.spec) axes in
    let axes =
      if seeds > 1 && not (List.exists (fun a -> a.E.Sweep.key = "seed") axes)
      then axes @ [ E.Sweep.seed_axis seeds ]
      else axes
    in
    if axes = [] then invalid_arg "sweep: give at least one -x axis";
    let pts = E.Sweep.points Sc.spec ~fixed axes in
    let requested =
      if domains <= 0 then Domain.recommended_domain_count () else domains
    in
    let workers = Stdlib.max 1 (Stdlib.min requested (List.length pts)) in
    (* lint: allow R1 -- wall-clock timing of the sweep engine itself *)
    let t0 = Unix.gettimeofday () in
    let results = E.Sweep.run ~domains:workers (module Sc) pts in
    (* lint: allow R1 -- closes the wall-clock interval opened above *)
    let dt = Unix.gettimeofday () -. t0 in
    let agg = E.Sweep.aggregate results in
    (* print the aggregated table *)
    let axis_keys =
      List.filter (fun k -> k <> "seed") (List.map (fun a -> a.E.Sweep.key) axes)
    in
    let metrics =
      match agg.E.Sweep.rows with
      | [] -> []
      | a :: _ -> List.map fst a.E.Sweep.stats
    in
    let table =
      Mptcp_repro.Stats.Table.create
        ~title:(Printf.sprintf "%s sweep (n per point = seed replications)" name)
        ~columns:(axis_keys @ [ "n" ] @ metrics)
    in
    List.iter
      (fun (a : E.Sweep.agg) ->
        Mptcp_repro.Stats.Table.add_row table
          (List.map
             (fun k -> E.Spec.value_to_string (E.Spec.get Sc.spec a.group k))
             axis_keys
          @ [ string_of_int a.E.Sweep.n ]
          @ List.map
              (fun m ->
                let mean, sd = List.assoc m a.E.Sweep.stats in
                if a.E.Sweep.n > 1 then Printf.sprintf "%.4g ± %.2g" mean sd
                else Printf.sprintf "%.4g" mean)
              metrics))
      agg.E.Sweep.rows;
    Mptcp_repro.Stats.Table.print table;
    Printf.printf "%d points on %d domain%s in %.1f s\n" (List.length pts)
      workers
      (if workers = 1 then "" else "s")
      dt;
    Option.iter
      (fun path ->
        if Filename.check_suffix path ".csv" then
          E.Sweep.write_csv ~path ~spec:Sc.spec results
        else E.Sweep.write_json ~path ~spec:Sc.spec ~aggregated:agg results;
        Printf.printf "wrote %s\n" path)
      out;
    Option.iter
      (fun path ->
        E.Sweep.write_agg_csv ~path ~spec:Sc.spec agg;
        Printf.printf "wrote %s\n" path)
      agg_out;
    `Ok ()
  with Invalid_argument msg -> `Error (false, msg)

let sweep_cmd =
  let doc =
    "Sweep a scenario over parameter axes, in parallel across domains."
  in
  let man =
    [
      `S Manpage.s_examples;
      `P
        "olia_sim sweep scenario-a -x n2=10:100:10 -x algo=lia,olia --seeds \
         5 --out sweep.json";
    ]
  in
  Cmd.v (Cmd.info "sweep" ~doc ~man)
    Term.(
      ret
        (const run_sweep $ scenario_pos $ axes_opt $ params_opt $ seeds_opt
        $ domains_opt $ out_opt $ agg_out_opt))

(* --- fluid ---------------------------------------------------------------- *)

let run_fluid scenario n1 n2 c1 c2 =
  let to_pps = F.Units.pps_of_mbps in
  match scenario with
  | "a" ->
    let r =
      F.Scenario_a.lia
        { F.Scenario_a.n1; n2; c1 = to_pps c1; c2 = to_pps c2; rtt = 0.15 }
    in
    Printf.printf
      "fluid A (LIA): type1 %.3f, type2 %.3f; p1 %.4f, p2 %.4f\n"
      r.F.Scenario_a.norm_type1 r.F.Scenario_a.norm_type2 r.F.Scenario_a.p1
      r.F.Scenario_a.p2
  | "b" ->
    let params =
      { F.Scenario_b.n = n1; cx = to_pps c1; ct = to_pps c2; rtt = 0.15 }
    in
    let sp = F.Scenario_b.lia_red_singlepath params in
    let mp = F.Scenario_b.lia_red_multipath params in
    Printf.printf
      "fluid B (LIA): single-path blue %.2f red %.2f; multipath blue %.2f \
       red %.2f Mb/s per user\n"
      (F.Units.mbps_of_pps sp.F.Scenario_b.blue_total)
      (F.Units.mbps_of_pps sp.F.Scenario_b.red_total)
      (F.Units.mbps_of_pps mp.F.Scenario_b.blue_total)
      (F.Units.mbps_of_pps mp.F.Scenario_b.red_total)
  | "c" ->
    let r =
      F.Scenario_c.lia
        { F.Scenario_c.n1; n2; c1 = to_pps c1; c2 = to_pps c2; rtt = 0.15 }
    in
    Printf.printf
      "fluid C (LIA): multipath %.3f, single %.3f; p1 %.4f, p2 %.4f\n"
      r.F.Scenario_c.norm_multipath r.F.Scenario_c.norm_single
      r.F.Scenario_c.p1 r.F.Scenario_c.p2
  | s -> Printf.eprintf "unknown fluid scenario %s (a, b or c)\n" s

let fluid_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"a, b or c.")
  in
  let doc = "Analytical fixed points of the paper's scenarios." in
  Cmd.v
    (Cmd.info "fluid" ~doc)
    Term.(const run_fluid $ scenario $ n1 $ n2 $ c1 $ c2)

(* --- shard-invariance ------------------------------------------------------ *)

module Json = Mptcp_repro.Stats.Json

(* One traced run of the sharded FatTree, decoded from per-domain
   rings. The decoded sequence is the gate's raw material — [--traced]
   byte-compares the N-shard decode against the 1-shard decode. A ring
   overflow fails the gate ([Trace.record] refuses an incomplete
   trace; raise --trace-ring). *)
let traced_events cfg ~ring_capacity s =
  snd
    (Obs.Trace.record ~capacity:ring_capacity (fun () ->
         ignore (S.Fattree_sharded.run (cfg s) : S.Fattree_sharded.result)))

(* Run the sharded FatTree scenario at --shards 1 and --shards N with the
   same seed, require the two results to be bitwise equal field by field
   (the CI gate for the conservative lookahead runtime), and report the
   wall-clock speedup and each shard's busy/wait split. With [--traced],
   also run both shard counts with trace rings armed and require the
   decoded traces to be byte-identical — the strongest form of the
   invariance claim. *)
let run_shard_invariance k shards flows_per_host subflows rate algo duration
    warmup seed min_speedup traced trace_ring trace_out out =
  try
    if shards < 2 then
      invalid_arg "shard-invariance: --shards must be >= 2 (it is compared \
                   against a --shards 1 baseline)";
    let traced = traced || Option.is_some trace_out in
    let cfg s =
      { S.Fattree_sharded.k; shards = s; rate_mbps = rate; delay_ms = 1.;
        subflows; flows_per_host; algo; duration; warmup; seed }
    in
    let flows = k * k * k / 4 * flows_per_host in
    let timed s =
      (* lint: allow R1 -- wall-clock speedup measurement of the runtime *)
      let t0 = Unix.gettimeofday () in
      let r = S.Fattree_sharded.run (cfg s) in
      (* lint: allow R1 -- closes the wall-clock interval opened above *)
      (r, Unix.gettimeofday () -. t0)
    in
    Printf.printf
      "shard-invariance: k=%d, %d flows, %s, %.3g s simulated (seed %d)\n\
       running --shards 1 ...\n\
       %!"
      k flows algo duration seed;
    let base, wall1 = timed 1 in
    Printf.printf "  %.1f s wall; running --shards %d ...\n%!" wall1 shards;
    let shd, walln = timed shards in
    let speedup = wall1 /. walln in
    Printf.printf "  %.1f s wall (speedup %.2fx)\n" walln speedup;
    let table =
      Mptcp_repro.Stats.Table.create
        ~title:(Printf.sprintf "per-shard wall clock, --shards %d" shards)
        ~columns:[ "shard"; "events"; "busy s"; "wait s" ]
    in
    List.iter
      (fun (c : Obs.Meter.shard_counters) ->
        Mptcp_repro.Stats.Table.add_row table
          [
            string_of_int c.shard;
            string_of_int c.events_processed;
            Printf.sprintf "%.3f" c.busy_s;
            Printf.sprintf "%.3f" c.wait_s;
          ])
      shd.S.Fattree_sharded.shard_obs;
    Mptcp_repro.Stats.Table.print table;
    let difference = S.Fattree_sharded.first_difference base shd in
    (match difference with
    | None ->
      Printf.printf "ok   results bitwise identical (aggregate %.6g Mb/s)\n"
        shd.S.Fattree_sharded.aggregate_mbps
    | Some field ->
      Printf.printf "FAIL %s differs between shards=1 and shards=%d\n" field
        shards);
    Printf.printf "cut messages: %d (shards=1: %d)\n"
      shd.S.Fattree_sharded.cut_messages base.S.Fattree_sharded.cut_messages;
    let results_pass = Option.is_none difference in
    let speedup_pass = min_speedup <= 0. || speedup >= min_speedup in
    if not speedup_pass then
      Printf.printf "FAIL speedup %.2fx < required %.2fx\n" speedup min_speedup
    else if min_speedup > 0. then
      Printf.printf "ok   speedup %.2fx >= %.2fx\n" speedup min_speedup;
    let trace_result =
      if not traced then None
      else begin
        Printf.printf
          "running traced legs (ring capacity %d records/domain) ...\n%!"
          trace_ring;
        let lines evs =
          List.map (fun ev -> Json.to_string (Obs.Trace.to_json ev)) evs
        in
        let base_lines =
          lines (traced_events cfg ~ring_capacity:trace_ring 1)
        in
        let shd_events = traced_events cfg ~ring_capacity:trace_ring shards in
        let shd_lines = lines shd_events in
        let identical = base_lines = shd_lines in
        Printf.printf
          "%s traced decode: %d events at shards=1, %d at shards=%d -- %s\n"
          (if identical then "ok  " else "FAIL")
          (List.length base_lines) (List.length shd_lines) shards
          (if identical then "byte-identical" else "traces diverge");
        Option.iter
          (fun path ->
            Obs.Trace.write_jsonl ~path shd_events;
            Printf.printf "wrote decoded sharded trace %s\n" path)
          trace_out;
        Some (List.length base_lines, List.length shd_lines, identical)
      end
    in
    let trace_pass =
      match trace_result with None -> true | Some (_, _, ok) -> ok
    in
    let json =
      let result_json (r : S.Fattree_sharded.result) wall =
        Json.Obj
          [
            ("aggregate_mbps", Json.Float r.S.Fattree_sharded.aggregate_mbps);
            ( "aggregate_pct_optimal",
              Json.Float r.S.Fattree_sharded.aggregate_pct_optimal );
            ("mean_flow_mbps", Json.Float r.S.Fattree_sharded.mean_flow_mbps);
            ("p10_flow_mbps", Json.Float r.S.Fattree_sharded.p10_flow_mbps);
            ("p50_flow_mbps", Json.Float r.S.Fattree_sharded.p50_flow_mbps);
            ("p90_flow_mbps", Json.Float r.S.Fattree_sharded.p90_flow_mbps);
            ("mean_core_loss", Json.Float r.S.Fattree_sharded.mean_core_loss);
            ("cut_messages", Json.Int r.S.Fattree_sharded.cut_messages);
            ("wall_s", Json.Float wall);
            ( "per_shard",
              Obs.Meter.shards_to_json r.S.Fattree_sharded.shard_obs );
          ]
      in
      Json.Obj
        ([
          ("scenario", Json.String "fattree-sharded");
          ("k", Json.Int k);
          ("shards", Json.Int shards);
          ("flows", Json.Int flows);
          ("subflows", Json.Int subflows);
          ("algo", Json.String algo);
          ("duration_s", Json.Float duration);
          ("seed", Json.Int seed);
          ("min_speedup", Json.Float min_speedup);
          ("baseline", result_json base wall1);
          ("sharded", result_json shd walln);
          ("speedup", Json.Float speedup);
          ("bitwise_identical", Json.Bool results_pass);
          ( "first_difference",
            match difference with None -> Json.Null | Some f -> Json.String f
          );
          ("speedup_pass", Json.Bool speedup_pass);
        ]
        @ (match trace_result with
          | None -> []
          | Some (nb, ns, identical) ->
            [
              ( "trace",
                Json.Obj
                  [
                    ("baseline_events", Json.Int nb);
                    ("sharded_events", Json.Int ns);
                    ("byte_identical", Json.Bool identical);
                  ] );
            ])
        @ [ ("pass", Json.Bool (results_pass && speedup_pass && trace_pass)) ])
    in
    Option.iter
      (fun path ->
        Json.write ~path json;
        Printf.printf "wrote %s\n" path)
      out;
    if results_pass && speedup_pass && trace_pass then begin
      Printf.printf
        "shard-invariance: PASS (results bitwise identical%s, speedup %.2fx)\n"
        (if traced then ", traces byte-identical" else "")
        speedup;
      `Ok ()
    end
    else begin
      Printf.printf "shard-invariance: FAIL\n";
      exit 1
    end
  with Invalid_argument msg -> `Error (false, msg)

let shard_invariance_cmd =
  let k =
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K"
           ~doc:"FatTree arity (even; k=8 gives 128 hosts).")
  in
  let rate =
    Arg.(value & opt float 10. & info [ "rate" ] ~docv:"MBPS"
           ~doc:"Host link rate.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
           ~doc:"Shard count compared against the --shards 1 baseline \
                 (must divide $(b,--k)).")
  in
  let flows_per_host =
    Arg.(value & opt int 8 & info [ "flows-per-host" ] ~docv:"N"
           ~doc:"Long-lived permutation flows per host (k=8 and 8 \
                 flows/host give 1024 flows).")
  in
  let subflows =
    Arg.(value & opt int 2 & info [ "subflows"; "s" ] ~docv:"N"
           ~doc:"MPTCP subflows per connection.")
  in
  let duration =
    Arg.(value & opt float 5. & info [ "duration"; "d" ] ~docv:"SEC"
           ~doc:"Simulated duration in seconds.")
  in
  let warmup =
    Arg.(value & opt float 1. & info [ "warmup"; "w" ] ~docv:"SEC"
           ~doc:"Warm-up excluded from the measurements, seconds.")
  in
  let min_speedup =
    Arg.(value & opt float 0. & info [ "min-speedup" ] ~docv:"X"
           ~doc:"Fail unless sharded wall-clock speedup reaches $(docv) \
                 (0 = report only).")
  in
  let traced =
    Arg.(value & flag
         & info [ "traced" ]
             ~doc:"Also run both shard counts with trace rings armed and \
                   fail unless the decoded N-shard trace is byte-identical \
                   to the --shards 1 trace.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the decoded sharded trace (JSONL) to $(docv) for \
                   artifact upload; implies $(b,--traced).")
  in
  let doc =
    "CI gate: run the fattree-sharded scenario at --shards 1 and --shards \
     N with one seed, fail naming the first result field whose float bits \
     differ (shard-count invariance of the conservative-lookahead \
     runtime), and report the wall-clock speedup and each shard's busy \
     and barrier-wait time. With $(b,--traced), additionally require the \
     decoded sharded trace to be byte-identical to the --shards 1 trace."
  in
  let man =
    [
      `S Manpage.s_examples;
      `P "olia_sim shard-invariance --shards 4 --out report.json";
      `P "olia_sim shard-invariance -k 4 --flows-per-host 2 -d 2 \
          --min-speedup 1.2";
      `P "olia_sim shard-invariance -k 4 --flows-per-host 2 -d 2 --traced \
          --trace-out decoded.jsonl";
    ]
  in
  Cmd.v
    (Cmd.info "shard-invariance" ~doc ~man)
    Term.(
      ret
        (const run_shard_invariance $ k $ shards $ flows_per_host
        $ subflows $ rate $ algo $ duration $ warmup $ seed $ min_speedup $ traced $ trace_ring_opt $ trace_out $ out_opt))

(* --- check ----------------------------------------------------------------- *)

module Ck = Mptcp_repro.Check

let has_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  if ln = 0 then true
  else
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0

(* The float-vs-fixed-point differential registry: every case names the
   kernel source its integer side mirrors, and the report carries the
   per-metric divergence next to its band. *)
let run_diff only out =
  let report = Ck.Diff.run_all ?only () in
  List.iter
    (fun (cr : Ck.Diff.case_report) ->
      Printf.printf "%s %s (%s vs %s)\n"
        (if cr.pass then "PASS" else "FAIL")
        cr.case cr.float_algo cr.fixed_algo;
      Printf.printf "  source: %s\n" cr.source;
      List.iter
        (fun (r : Ck.Diff.check_result) ->
          Printf.printf
            "  %s %-20s float %11.5g  fixed %11.5g  deviation %.4g (limit \
             %.4g)\n"
            (if r.pass then "ok  " else "FAIL")
            r.metric r.float_value r.fixed_value r.deviation r.limit)
        cr.results)
    report.Ck.Diff.cases;
  Option.iter (fun path -> Json.write ~path (Ck.Diff.report_to_json report)) out;
  Printf.printf "diff-conformance: %d/%d checks within divergence bands\n"
    (report.Ck.Diff.checks_total - report.Ck.Diff.checks_failed)
    report.Ck.Diff.checks_total;
  if not report.Ck.Diff.pass then exit 1

let run_check only out update_golden golden_dir diff =
  if diff then run_diff only out
  else if update_golden then begin
    Ck.Golden.update_all ~dir:golden_dir;
    Printf.printf "golden traces re-recorded under %s/\n" golden_dir
  end
  else begin
    let report = Ck.Conformance.run_all ?only () in
    List.iter
      (fun (cr : Ck.Conformance.case_report) ->
        Printf.printf "%s %s\n" (if cr.pass then "PASS" else "FAIL") cr.case;
        List.iter
          (fun (r : Ck.Band.result) ->
            Printf.printf
              "  %s %-24s %-38s actual %11.5g  band [%.5g, %.5g]\n"
              (if r.pass then "ok  " else "FAIL")
              r.band.Ck.Band.id r.band.Ck.Band.metric r.actual
              r.band.Ck.Band.lo r.band.Ck.Band.hi)
          cr.results)
      report.Ck.Conformance.cases;
    let golden_names =
      List.filter
        (fun n ->
          match only with
          | None -> true
          | Some s -> has_sub ("golden/" ^ n) s)
        Ck.Golden.names
    in
    let golden =
      List.map (fun n -> (n, Ck.Golden.check ~dir:golden_dir n)) golden_names
    in
    List.iter
      (fun (n, r) ->
        match r with
        | Ok () -> Printf.printf "PASS golden/%s\n" n
        | Error e -> Printf.printf "FAIL golden/%s\n  %s\n" n e)
      golden;
    let report_names =
      List.filter
        (fun n ->
          match only with
          | None -> true
          | Some s -> has_sub ("golden/" ^ n) s)
        Ck.Golden.report_names
    in
    let reports =
      List.map
        (fun n -> (n, Ck.Golden.check_report ~dir:golden_dir n))
        report_names
    in
    List.iter
      (fun (n, r) ->
        match r with
        | Ok () -> Printf.printf "PASS golden/%s\n" n
        | Error e -> Printf.printf "FAIL golden/%s\n  %s\n" n e)
      reports;
    let golden = golden @ reports in
    let golden_pass = List.for_all (fun (_, r) -> Result.is_ok r) golden in
    let json =
      let golden_json =
        Json.List
          (List.map
             (fun (n, r) ->
               Json.Obj
                 (("name", Json.String n)
                 :: ("pass", Json.Bool (Result.is_ok r))
                 ::
                 (match r with
                 | Ok () -> []
                 | Error e -> [ ("error", Json.String e) ])))
             golden)
      in
      match Ck.Conformance.report_to_json report with
      | Json.Obj fields -> Json.Obj (fields @ [ ("golden", golden_json) ])
      | j -> j
    in
    Option.iter (fun path -> Json.write ~path json) out;
    Printf.printf
      "conformance: %d/%d bands within tolerance, %d/%d golden traces match\n"
      (report.Ck.Conformance.bands_total - report.Ck.Conformance.bands_failed)
      report.Ck.Conformance.bands_total
      (List.length (List.filter (fun (_, r) -> Result.is_ok r) golden))
      (List.length golden);
    if not (report.Ck.Conformance.pass && golden_pass) then exit 1
  end

let check_cmd =
  let only =
    let doc =
      "Run only conformance cases whose name contains $(docv); golden traces \
       match against golden/<name>."
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"SUBSTR" ~doc)
  in
  let update_golden =
    let doc = "Re-record the golden trace files and exit." in
    Arg.(value & flag & info [ "update-golden" ] ~doc)
  in
  let golden_dir =
    let doc = "Directory holding the golden trace files." in
    Arg.(value & opt string "test/golden" & info [ "golden-dir" ] ~docv:"DIR" ~doc)
  in
  let diff =
    let doc =
      "Run the float-vs-fixed-point differential registry instead: the same \
       seeded scenarios under each backend, divergence bands with kernel \
       provenance, plus the per-ACK lockstep drivers."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let doc =
    "Differential conformance: packet simulations vs fluid-model tolerance \
     bands, fault-recovery checks and golden-trace regression (or, with \
     $(b,--diff), float vs fixed-point congestion control)."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const run_check $ only $ out_opt $ update_golden $ golden_dir $ diff)

(* --- main ------------------------------------------------------------------ *)

let () =
  let doc = "reproduction of 'MPTCP is not Pareto-Optimal' (OLIA)" in
  let info = Cmd.info "olia_sim" ~version:"1.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group info ~default
          [
            list_cmd; run_cmd; sweep_cmd; report_cmd; fluid_cmd;
            shard_invariance_cmd; check_cmd;
          ]))
