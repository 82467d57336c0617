(* lint: allow-file R1 -- wall-clock and CPU timing of the benchmark harness; simulation results never read it *)

(* The repository benchmark: three workloads from the paper, timed end
   to end with tracing off, or split per layer in a traced run.

     main.exe --workload scenB-olia --seed 1 --seconds 50 --trace 0
     main.exe --workload fattree8-perm-2shard --seed 2 --trace 1
     main.exe --workload fattree8-shortflows --seed 3 --digest

   A run repeats whole episodes (set-up, then the event loop to a fixed
   simulated horizon) until [--seconds] of wall time are spent, and
   reports medians over them, scaled to reference-host seconds by a
   host-speed probe timed before every episode (see Host). Every
   episode's outcome digest is checked against [--expect]; a mismatch,
   an exception or an episode over its time budget counts as a failed
   attempt. The last line of standard output is one JSON object;
   perfbench/run.py builds this program, supplies the reference digest
   and adds the peak resident memory. *)

open Perfbench
module Scen_b = Repro_scenarios.Scen_b
module Fattree_sharded = Repro_scenarios.Fattree_sharded
module Fattree_dynamic = Repro_scenarios.Fattree_dynamic

type workload = {
  name : string;
  shards : int;
  setup : ?tracers:Span.t array -> int -> Episodes.episode;
}

(* Horizons are sized so that one episode takes one to three seconds
   on a 2-core host: a run holds ten or more episodes, and the medians
   are taken over them. BENCHMARK.json lists the first two;
   fattree8-shortflows stays runnable, but its time metrics spread too
   widely from run to run on shared 2-vCPU hosts to gate on. *)
let workloads =
  [
    {
      name = "scenB-olia";
      shards = 1;
      setup =
        (fun ?tracers seed ->
          Episodes.scen_b ?tracers
            { Scen_b.default with duration = 200.; seed });
    };
    {
      name = "fattree8-perm-2shard";
      shards = 2;
      setup =
        (fun ?tracers seed ->
          Episodes.fattree_perm ?tracers
            { Fattree_sharded.default with shards = 2; duration = 3.; seed });
    };
    {
      name = "fattree8-shortflows";
      shards = 1;
      setup =
        (fun ?tracers seed ->
          Episodes.fattree_dynamic ?tracers
            { Fattree_dynamic.default with duration = 3.; warmup = 1.; seed });
    };
  ]

(* An episode whose event loop runs longer than this has hung or
   regressed far beyond any bound; it counts as failed. *)
let episode_budget_s = 60.

let now_s () = float_of_int (Span.now_ns ()) /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type sample = {
  setup_s : float;
  run_s : float;
  cpu_s : float;
  minor_words : float;
  major_collections : int;
  worker_s : float array;
  horizon : float;
  shards : int;
  outcome : Episodes.outcome;
  spans : Span.t option;  (* the episode's per-shard recorders, summed *)
}

let run_episode (wl : workload) ~seed ~traced =
  Gc.full_major ();
  let tracers =
    if traced then
      (* one recorder per shard; shard 0's belongs to this domain, which
         also builds the topology *)
      Some (Array.init wl.shards (fun _ -> Span.create ()))
    else None
  in
  let t0 = now_s () in
  let ep = wl.setup ?tracers seed in
  let setup_s = now_s () -. t0 in
  let gc0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let r0 = now_s () in
  ep.Episodes.run ();
  let run_s = now_s () -. r0 in
  let cpu = cpu_s () -. c0 in
  let gc1 = Gc.quick_stat () in
  {
    setup_s;
    run_s;
    cpu_s = cpu;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    worker_s =
      Array.map (fun ns -> float_of_int ns /. 1e9) ep.Episodes.worker_ns;
    horizon = ep.Episodes.horizon;
    shards = ep.Episodes.shards;
    outcome = ep.Episodes.outcome ();
    spans = Option.map Span.sum tracers;
  }

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum_f a = Array.fold_left ( +. ) 0. a

(* --- metrics ------------------------------------------------------------ *)

type metric = { key : string; value : float; unit_ : string }

let m key unit_ value = { key; value; unit_ }

(* Time metrics are scaled by the host probe's median over the run, so
   they read in reference-host seconds (see Host); the raw figures are
   printed beside them. *)
let end_to_end ~setups ~probes samples =
  let scale = Host.reference_s /. median probes in
  let per_sim f = median (List.map (fun s -> f s /. s.horizon) samples) in
  Printf.printf
    "raw: wall_per_sim_s %.6g  cpu_per_sim_s %.6g  setup_s %.6g  \
     host.probe_s %.6g\n"
    (per_sim (fun s -> s.run_s))
    (per_sim (fun s -> s.cpu_s))
    (median setups) (median probes);
  [
    m "wall_per_sim_s" "s/s" (scale *. per_sim (fun s -> s.run_s));
    m "cpu_per_sim_s" "s/s" (scale *. per_sim (fun s -> s.cpu_s));
    m "setup_s" "s" (scale *. median setups);
  ]

let per_layer ~(cost : Span.cost) ~probes ~untraced ~traced =
  let o = (List.hd untraced).outcome in
  let n_t = float_of_int (List.length traced) in
  let s =
    Span.sum (Array.of_list (List.filter_map (fun x -> x.spans) traced))
  in
  let calls l = float_of_int s.Span.calls.(l) /. n_t in
  let self_ns l = Span.corrected_self_ns cost s l in
  let per_call l =
    if s.Span.calls.(l) = 0 then 0.
    else self_ns l /. float_of_int s.Span.calls.(l)
  in
  let med f = median (List.map f untraced) in
  let sum_layers f = List.fold_left (fun a l -> a +. f l) 0. in
  let events = float_of_int o.Episodes.events in
  (* Run-phase accounting. Worker time outside every span, less the
     tracing cost that top-level spans leave outside themselves, is the
     residual: wheel dispatch, queue service and TCP timers (and, on
     shards, barrier waits). Self times with the tracing cost removed,
     plus the residual, estimate the untraced worker time. *)
  let worker_traced =
    List.fold_left (fun a x -> a +. sum_f x.worker_s) 0. traced *. 1e9
  in
  let run_top =
    s.Span.top_spans
    - List.fold_left (fun a l -> a + s.Span.calls.(l)) 0 Span.setup_phase
  in
  let residual =
    worker_traced
    -. sum_layers (fun l -> float_of_int s.Span.self_ns.(l)) Span.run_phase
    -. (float_of_int run_top *. cost.Span.outer_ns)
  in
  let estimate = sum_layers self_ns Span.run_phase +. residual in
  let share l = self_ns l /. estimate in
  let layer l =
    let name = Span.names.(l) in
    [
      m (name ^ ".calls") "count" (calls l);
      m (name ^ ".self_ns") "ns" (per_call l);
    ]
  in
  let run_layer l =
    layer l @ [ m (Span.names.(l) ^ ".share") "ratio" (share l) ]
  in
  let count key v = m key "count" (float_of_int v) in
  List.concat
    [
      [
        m "sim.events" "count" events;
        m "sim.ns_per_event" "ns" (med (fun x -> x.run_s *. 1e9) /. events);
        count "sim.max_pending" o.Episodes.max_pending;
        m "sim.residual_share" "ratio" (residual /. estimate);
      ];
      run_layer Span.queue_enqueue;
      [
        count "queue.drops" o.Episodes.queue_drops;
        m "queue.drop_ratio" "ratio"
          (float_of_int o.Episodes.queue_drops
          /. float_of_int (Stdlib.max 1 o.Episodes.queue_arrivals));
      ];
      run_layer Span.pipe_hop;
      run_layer Span.tcp_ack;
      run_layer Span.tcp_sink;
      [
        count "tcp.retransmits" o.Episodes.retransmits;
        count "tcp.timeouts" o.Episodes.timeouts;
        m "tcp.useful_ratio" "ratio"
          (float_of_int o.Episodes.delivered
          /. (float_of_int s.Span.first_hops /. n_t));
      ];
      layer Span.tcp_create;
      run_layer Span.cc_increase;
      run_layer Span.cc_on_ack;
      [ m "cc.on_loss.calls" "count" (calls Span.cc_on_loss) ];
      run_layer Span.shard_egress;
      [
        count "shard.windows" o.Episodes.windows;
        m "shard.worker_wall_s" "s"
          (med (fun x ->
               sum_f x.worker_s /. float_of_int (Array.length x.worker_s)));
        m "shard.idle_share" "ratio"
          (med (fun x ->
               1. -. (x.cpu_s /. (float_of_int x.shards *. x.run_s))));
        m "shard.event_imbalance" "ratio"
          (let a = Array.map float_of_int o.Episodes.shard_events in
           Array.fold_left Stdlib.max 0. a
           /. (sum_f a /. float_of_int (Array.length a)));
        m "topology.build_s" "s" (self_ns Span.topology_build /. n_t /. 1e9);
      ];
      layer Span.topology_paths;
      [
        m "workload.gen_s" "s" (self_ns Span.workload_gen /. n_t /. 1e9);
        m "gc.minor_words_per_event" "words"
          (med (fun x -> x.minor_words) /. events);
        m "gc.major_collections" "count"
          (med (fun x -> float_of_int x.major_collections));
        m "trace.overhead" "ratio"
          (median (List.map (fun x -> x.run_s) traced)
          /. med (fun x -> x.run_s));
        m "trace.span_ns" "ns" cost.Span.span_ns;
        m "host.probe_s" "s" (median probes);
        m "trace.unexplained_share" "ratio"
          ((estimate /. n_t /. 1e9 /. med (fun x -> sum_f x.worker_s)) -. 1.);
      ];
    ]

(* --- the run ------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reference : string option;
}

(* One checked episode. A run that raised gives no sample; one that
   overran its budget or produced another outcome than the reference
   still gives its timings, but counts as failed. *)
let checked tally wl ~seed ~traced =
  tally.attempted <- tally.attempted + 1;
  let fail why =
    tally.failed <- tally.failed + 1;
    Printf.printf "episode %d: FAILED (%s)\n%!" tally.attempted why
  in
  match run_episode wl ~seed ~traced with
  | exception e ->
    fail (Printexc.to_string e);
    None
  | s ->
    let d = s.outcome.Episodes.digest in
    Printf.printf
      "episode %d%s: setup %.4f s  run %.4f s  cpu %.4f s  events %d  \
       digest %s\n%!"
      tally.attempted
      (if traced then " (traced)" else "")
      s.setup_s s.run_s s.cpu_s s.outcome.Episodes.events d;
    let foreign = match s.spans with Some t -> t.Span.foreign | None -> 0 in
    (match tally.reference with
    | None -> tally.reference <- Some d
    | Some r when r <> d ->
      fail (Printf.sprintf "digest %s differs from the reference %s" d r)
    | Some _ -> ());
    if s.run_s > episode_budget_s then fail "over its time budget";
    if foreign > 0 then
      fail (Printf.sprintf "%d spans recorded from a foreign domain" foreign);
    Some s

let print_paper (o : Episodes.outcome) =
  List.iter
    (fun (k, v) -> Printf.printf "paper %s = %.6g\n" k v)
    o.Episodes.paper

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result tally metrics =
  Printf.printf "failed_frac = %.4g (%d of %d episodes)\n"
    (float_of_int tally.failed /. float_of_int (Stdlib.max 1 tally.attempted))
    tally.failed tally.attempted;
  List.iter
    (fun x -> Printf.printf "%-28s %14.6g %s\n" x.key x.value x.unit_)
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.key
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed
    (String.concat ", " fields)

(* Set-up alone, repeated: [setup_s] is a median over many samples,
   which the few episodes of a run would not give on their own. *)
let setup_samples (wl : workload) ~seed ~seconds =
  let t_end = now_s () +. seconds in
  let rec go acc n =
    if n >= 5 && (now_s () > t_end || n >= 200) then acc
    else begin
      Gc.full_major ();
      let t0 = now_s () in
      ignore (wl.setup seed : Episodes.episode);
      go ((now_s () -. t0) :: acc) (n + 1)
    end
  in
  go [] 0

let measure wl ~seed ~seconds ~expect ~trace =
  let tally = { attempted = 0; failed = 0; reference = expect } in
  let t_start = now_s () in
  let cost = if trace then Some (Span.calibrate ()) else None in
  let setups =
    if trace then [] else setup_samples wl ~seed ~seconds:(0.05 *. seconds)
  in
  let untraced = ref [] and traced = ref [] and probes = ref [] in
  let keep r = function Some s -> r := s :: !r | None -> () in
  (* One checked but untimed episode first: the heap grows to the
     workload's size and the worker domains' first spawn is paid. *)
  ignore (checked tally wl ~seed ~traced:false : sample option);
  let last = ref 0. in
  while
    tally.attempted = 1 || now_s () -. t_start +. !last <= seconds
  do
    let t0 = now_s () in
    probes := Host.probe ~domains:wl.shards :: !probes;
    keep untraced (checked tally wl ~seed ~traced:false);
    if trace then keep traced (checked tally wl ~seed ~traced:true);
    last := now_s () -. t0
  done;
  (match !untraced with s :: _ -> print_paper s.outcome | [] -> ());
  let probes = !probes in
  let metrics =
    match (cost, !untraced, !traced) with
    | _, [], _ -> []
    | None, us, _ ->
      end_to_end ~probes
        ~setups:(setups @ List.map (fun s -> s.setup_s) us)
        us
    | Some _, _, [] -> []
    | Some cost, us, ts -> per_layer ~cost ~probes ~untraced:us ~traced:ts
  in
  print_result tally metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 50. in
  let trace = ref 0 and expect = ref "" and digest_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S wall time to measure (50)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--expect", Arg.Set_string expect, "HEX reference outcome digest");
      ("--digest", Arg.Set digest_only, " print one episode's outcome digest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--expect HEX] [--digest]";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (valid: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !digest_only then begin
    let s = run_episode wl ~seed:!seed ~traced:false in
    print_paper s.outcome;
    print_endline s.outcome.Episodes.digest
  end
  else
    measure wl ~seed:!seed ~seconds:!seconds
      ~expect:(if !expect = "" then None else Some !expect)
      ~trace:(!trace = 1)
