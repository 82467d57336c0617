(* The benchmark's own checks, at short horizons:
   - each workload's outcome is bitwise its registry scenario's at the
     same parameters and seed (for the short-flow workload this also
     checks that Fattree_pods at one shard is link for link Fattree);
   - the 2-shard permutation run has the 1-shard digest;
   - a traced run has the untraced run's digest. *)

open Perfbench
module Spec = Repro_exp.Spec
module Outcome = Repro_exp.Outcome
module Registry = Repro_scenarios.Registry
module Scen_b = Repro_scenarios.Scen_b
module Fattree_sharded = Repro_scenarios.Fattree_sharded
module Fattree_dynamic = Repro_scenarios.Fattree_dynamic

let scen_b = { Scen_b.default with duration = 20.; warmup = 5.; seed = 3 }

let perm shards =
  {
    Fattree_sharded.default with
    shards;
    duration = 0.5;
    warmup = 0.2;
    seed = 3;
  }

let dynamic =
  { Fattree_dynamic.default with duration = 0.6; warmup = 0.2; seed = 3 }

let registry name bindings =
  let (module S : Registry.SCENARIO) = Registry.find name in
  S.run bindings

let episode (ep : Episodes.episode) =
  ep.Episodes.run ();
  ep.Episodes.outcome ()

(* Bitwise equality of every scalar and array the workload reports under
   a registry name, and of the event count where the registry has it. *)
let same_as_registry (o : Episodes.outcome) (r : Outcome.t) =
  List.iter
    (fun (k, v) ->
      match Outcome.metric_opt r k with
      | Some rv ->
        Alcotest.(check int64)
          k (Int64.bits_of_float rv) (Int64.bits_of_float v)
      | None -> ())
    o.Episodes.paper;
  List.iter
    (fun (k, a) ->
      match List.assoc_opt k r.Outcome.arrays with
      | Some ra ->
        Alcotest.(check (array (float 0.))) k ra a
      | None -> Alcotest.failf "registry outcome has no array %s" k)
    o.Episodes.arrays;
  match Outcome.metric_opt r "obs_events" with
  | Some e -> Alcotest.(check int) "events" (int_of_float e) o.Episodes.events
  | None -> ()

let test_scen_b () =
  let o = episode (Episodes.scen_b scen_b) in
  same_as_registry o
    (registry "scenario-b"
       [
         ("duration", Spec.Float scen_b.Scen_b.duration);
         ("warmup", Spec.Float scen_b.Scen_b.warmup);
         ("seed", Spec.Int scen_b.Scen_b.seed);
       ])

let test_perm () =
  let c = perm 2 in
  let o = episode (Episodes.fattree_perm c) in
  same_as_registry o
    (registry "fattree-sharded"
       [
         ("shards", Spec.Int 2);
         ("duration", Spec.Float c.Fattree_sharded.duration);
         ("warmup", Spec.Float c.Fattree_sharded.warmup);
         ("seed", Spec.Int c.Fattree_sharded.seed);
       ])

let test_dynamic () =
  let o = episode (Episodes.fattree_dynamic dynamic) in
  same_as_registry o
    (registry "fattree-dynamic"
       [
         ("duration", Spec.Float dynamic.Fattree_dynamic.duration);
         ("warmup", Spec.Float dynamic.Fattree_dynamic.warmup);
         ("seed", Spec.Int dynamic.Fattree_dynamic.seed);
       ])

let test_shard_invariance () =
  let one = episode (Episodes.fattree_perm (perm 1)) in
  let two = episode (Episodes.fattree_perm (perm 2)) in
  Alcotest.(check string) "digest" one.Episodes.digest two.Episodes.digest;
  Alcotest.(check bool) "traffic crossed the cut" true
    (List.assoc "cut_messages" two.Episodes.paper > 0.)

let traced shards setup =
  let untraced = episode (setup None) in
  let ts = Array.init shards (fun _ -> Span.create ()) in
  let o = episode (setup (Some ts)) in
  Alcotest.(check string) "digest" untraced.Episodes.digest o.Episodes.digest;
  let s = Span.sum ts in
  Alcotest.(check int) "no foreign spans" 0 s.Span.foreign;
  List.iter
    (fun l ->
      if s.Span.calls.(l) = 0 then
        Alcotest.failf "layer %s never recorded" Span.names.(l))
    [ Span.queue_enqueue; Span.pipe_hop; Span.tcp_ack; Span.tcp_sink;
      Span.cc_on_ack; Span.tcp_create; Span.topology_build ];
  s

let test_traced_scen_b () =
  ignore
    (traced 1 (fun tracers -> Episodes.scen_b ?tracers scen_b) : Span.t)

let test_traced_perm () =
  let s = traced 2 (fun tracers -> Episodes.fattree_perm ?tracers (perm 2)) in
  Alcotest.(check bool)
    "egress spans" true
    (s.Span.calls.(Span.shard_egress) > 0)

let test_traced_dynamic () =
  ignore
    (traced 1 (fun tracers -> Episodes.fattree_dynamic ?tracers dynamic)
      : Span.t)

(* Spans nest: a parent's self time excludes its children, and the
   empty-span cost is positive and split into its two parts. *)
let test_span_self_time () =
  let t = Span.create () in
  Span.enter t Span.tcp_ack;
  Span.enter t Span.cc_increase;
  Span.leave t;
  Span.leave t;
  Alcotest.(check int) "ack calls" 1 t.Span.calls.(Span.tcp_ack);
  Alcotest.(check int) "ack children" 1 t.Span.children.(Span.tcp_ack);
  Alcotest.(check int) "top-level spans" 1 t.Span.top_spans;
  let c = Span.calibrate ~n:10_000 ~rounds:3 () in
  Alcotest.(check bool) "span cost split" true
    (c.Span.span_ns > 0. && c.Span.inner_ns >= 0. && c.Span.outer_ns >= 0.)

(* The wrappers on the packet path allocate nothing per call, so a
   traced run's GC work is the untraced run's. *)
let test_wrappers_alloc_free () =
  let t = Span.create () in
  let hop = Probe.hop t Span.pipe_hop (fun _ -> ()) in
  let p = Repro_netsim.Packet.sentinel () in
  let noop =
    {
      Repro_cc.Cc_types.name = "noop";
      multipath_initial_ssthresh = None;
      on_ack = (fun ~idx:_ ~acked:_ -> ());
      on_loss = (fun ~idx:_ -> ());
      increase = (fun ~views:_ ~idx:_ -> 0.5);
      loss_decrease = Repro_cc.Cc_types.halve;
    }
  in
  let cc = Probe.cc (Some [| t |]) ~sender:0 noop in
  let views = [| { Repro_cc.Cc_types.cwnd = 2.; rtt = 0.1 } |] in
  let once () =
    hop p;
    cc.Repro_cc.Cc_types.on_ack ~idx:0 ~acked:1.;
    ignore (cc.Repro_cc.Cc_types.increase ~views ~idx:0 : float)
  in
  once ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    once ()
  done;
  let words = Gc.minor_words () -. before in
  if words > 100. then Alcotest.failf "%.0f words for 10000 calls" words;
  Alcotest.(check int) "hop spans" 10_001 t.Span.calls.(Span.pipe_hop)

let () =
  Alcotest.run "perfbench"
    [
      ( "registry",
        [
          Alcotest.test_case "scenario-b" `Quick test_scen_b;
          Alcotest.test_case "fattree-sharded" `Quick test_perm;
          Alcotest.test_case "fattree-dynamic on Fattree_pods" `Quick
            test_dynamic;
        ] );
      ( "shards",
        [ Alcotest.test_case "2 shards = 1 shard" `Quick test_shard_invariance ]
      );
      ( "trace",
        [
          Alcotest.test_case "scenB digest" `Quick test_traced_scen_b;
          Alcotest.test_case "2-shard digest" `Quick test_traced_perm;
          Alcotest.test_case "short-flow digest" `Quick test_traced_dynamic;
          Alcotest.test_case "self time" `Quick test_span_self_time;
          Alcotest.test_case "wrappers allocate nothing" `Quick
            test_wrappers_alloc_free;
        ] );
    ]
