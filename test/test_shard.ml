(* Tests of the sharded simulation runtime: pod-cut extraction on the
   FatTree, deterministic cross-shard merge order, the shards=1 ≡
   sequential golden, bitwise shard-count invariance, determinism of
   sharded runs, the per-shard busy/wait clocks, and byte-identical
   trace decode across shard counts. *)

open Mptcp_repro.Netsim
module Ftp = Mptcp_repro.Topology.Fattree_pods
module Fs = Mptcp_repro.Scenarios.Fattree_sharded
module Workload = Mptcp_repro.Workload

let seq_pool thunks = Array.iter (fun f -> f ()) thunks

let make_pods ?(k = 4) ?(shards = 2) ?(seed = 1) () =
  Ftp.create ~shards ~rng:(Rng.create ~seed) ~k ~rate_bps:10e6 ~delay:0.001
    ~buffer_pkts:100 ~discipline:Queue.Droptail ()

(* --- pod-cut extraction ------------------------------------------------ *)

let test_cut_k4 () =
  let t = make_pods ~k:4 ~shards:2 () in
  Alcotest.(check int) "hosts" 16 (Ftp.host_count t);
  Alcotest.(check int) "shards" 2 (Ftp.shards t);
  Alcotest.(check (list int)) "pod blocks" [ 0; 0; 1; 1 ]
    (List.map (Ftp.shard_of_pod t) [ 0; 1; 2; 3 ]);
  (* hosts 0-7 live in pods 0-1 (shard 0), hosts 8-15 in pods 2-3 *)
  Alcotest.(check int) "host 0" 0 (Ftp.shard_of_host t 0);
  Alcotest.(check int) "host 7" 0 (Ftp.shard_of_host t 7);
  Alcotest.(check int) "host 8" 1 (Ftp.shard_of_host t 8);
  Alcotest.(check bool) "same shard" false (Ftp.cross_shard t ~src:0 ~dst:7);
  Alcotest.(check bool) "cross shard" true (Ftp.cross_shard t ~src:0 ~dst:8);
  (* path multiplicity matches the uncut tree *)
  Alcotest.(check int) "same edge" 1 (Ftp.path_count t ~src:0 ~dst:1);
  Alcotest.(check int) "same pod" 2 (Ftp.path_count t ~src:0 ~dst:2);
  Alcotest.(check int) "cross pod" 4 (Ftp.path_count t ~src:0 ~dst:15);
  (* the cut replaces the agg->core pipe with a channel hop: same length *)
  let plain = make_pods ~k:4 ~shards:1 () in
  let len p = Array.length p.Tcp.fwd + Array.length p.Tcp.rev in
  Array.iteri
    (fun i p ->
      Alcotest.(check int) "hop count" (len (Ftp.all_paths plain ~src:0 ~dst:15).(i))
        (len p))
    (Ftp.all_paths t ~src:0 ~dst:15)

let test_cut_k8 () =
  let t = make_pods ~k:8 ~shards:4 () in
  Alcotest.(check int) "hosts" 128 (Ftp.host_count t);
  Alcotest.(check (list int)) "pod blocks" [ 0; 0; 1; 1; 2; 2; 3; 3 ]
    (List.map (Ftp.shard_of_pod t) [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  (* one channel per ordered shard pair, none on the diagonal *)
  let chans = ref 0 in
  for s = 0 to 3 do
    for d = 0 to 3 do
      match Ftp.channel t ~src:s ~dst:d with
      | Some _ ->
        incr chans;
        Alcotest.(check bool) "off-diagonal" true (s <> d)
      | None -> Alcotest.(check bool) "diagonal" true (s = d)
    done
  done;
  Alcotest.(check int) "channel count" 12 !chans;
  Alcotest.(check int) "cross pod paths" 16 (Ftp.path_count t ~src:0 ~dst:127)

let test_cut_rejects_bad_shards () =
  Alcotest.check_raises "3 does not divide 4"
    (Invalid_argument
       "Fattree_pods.create: shards must divide k (k = 4, shards = 3)")
    (fun () -> ignore (make_pods ~k:4 ~shards:3 ()));
  Alcotest.check_raises "more shards than pods"
    (Invalid_argument
       "Fattree_pods.create: shards must divide k (k = 4, shards = 8)")
    (fun () -> ignore (make_pods ~k:4 ~shards:8 ()))

(* --- merge order -------------------------------------------------------- *)

(* Channels into shard 0 from three or more source shards (so the
   k-way merge picks among several heads, which the two-shard
   benchmarks never exercise), some sources with two channels of
   different latency. Each
   source sim clocks its sends out at quarter-second multiples, so
   arrivals and egress instants tie across channels often. The order
   [Shard.pending] reports — the merge the window loop runs — must be
   the unique global (arrival, egress, src_shard, src_seq) order of the
   sends as the sources recorded them, however they are spread over
   the outboxes. *)
let prop_merge_is_sequential_order =
  QCheck.Test.make ~name:"shard: merge = sequential dispatch order" ~count:200
    QCheck.(
      pair (int_range 3 5)
        (list_of_size (Gen.int_range 3 8)
           (triple (int_range 1 5) (int_range 0 2)
              (small_list (int_range 0 3)))))
    (fun (n_src, chans) ->
      let sims = Array.init (n_src + 1) (fun _ -> Sim.create ()) in
      let group = Shard.create ~sims ~lookahead:1. in
      let sent = ref [] in
      let counters = Array.make (n_src + 1) 0 in
      List.iteri
        (fun c (src, lat, deltas) ->
          (* the first three channels cover three distinct sources *)
          let src = if c < 3 then c + 1 else 1 + (src mod n_src) in
          let latency = 1. +. (0.25 *. float_of_int lat) in
          let ch = Shard.open_channel group ~src ~dst:0 ~latency () in
          let route = [| Shard.egress ch |] in
          let t = ref 0. in
          List.iter
            (fun d ->
              t := Float.min 1. (!t +. (0.25 *. float_of_int d));
              let sim = sims.(src) in
              ignore
                (Sim.schedule_at sim !t (fun () ->
                     let now = Sim.now sim in
                     sent :=
                       (src, counters.(src), now +. latency, now) :: !sent;
                     counters.(src) <- counters.(src) + 1;
                     Packet.forward
                       (Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:now
                          ~route))
                  : Sim.Timer.t))
            deltas)
        chans;
      for s = 1 to n_src do
        Sim.run_until sims.(s) 1.
      done;
      let key (s, q, a, e) = (a, e, s, q) in
      let expected =
        List.sort (fun x y -> compare (key x) (key y)) !sent
      in
      let merged = Shard.pending group ~dst:0 in
      merged = expected && Shard.pending group ~dst:0 = merged)

let test_windows () =
  Alcotest.(check int) "exact" 10 (Shard.windows ~lookahead:0.001 ~horizon:0.01);
  Alcotest.(check int) "ragged" 11 (Shard.windows ~lookahead:0.001 ~horizon:0.0101);
  Alcotest.(check int) "sub-window" 1 (Shard.windows ~lookahead:1. ~horizon:0.5);
  Alcotest.(check int) "empty" 0 (Shard.windows ~lookahead:1. ~horizon:0.)

(* --- shards=1 ≡ sequential golden --------------------------------------- *)

(* The same seed builds two one-shard trees: one driven by plain
   Sim.run_until on its simulator, the other by the window loop.
   Identical construction and RNG stream, so per-flow delivered counts
   match exactly. *)
let run_workload ~mk_paths ~sim_of_host ~run ~seed =
  let rng = Rng.create ~seed in
  let hosts = 16 in
  let flows =
    Workload.permutation_long_flows ~rng:(Rng.split rng) ~hosts ~max_jitter:1.
  in
  let conns =
    List.mapi
      (fun i { Workload.start; src; dst; _ } ->
        Tcp.create ~sim:(sim_of_host src)
          ~cc:(Mptcp_repro.Cc.Olia.create ())
          ~paths:(mk_paths ~rng ~src ~dst)
          ~start ~flow_id:i ())
      flows
  in
  run ();
  List.map Tcp.total_acked conns

let test_shards1_matches_sequential () =
  let horizon = 3. in
  let seq =
    let tree = make_pods ~k:4 ~shards:1 ~seed:7 () in
    let sim = Shard.sim (Ftp.group tree) 0 in
    run_workload ~seed:7
      ~mk_paths:(fun ~rng ~src ~dst -> Ftp.sample_paths tree ~rng ~src ~dst ~n:2)
      ~sim_of_host:(fun _ -> sim)
      ~run:(fun () -> Sim.run_until sim horizon)
  in
  let sharded =
    let t = make_pods ~k:4 ~shards:1 ~seed:7 () in
    run_workload ~seed:7
      ~mk_paths:(fun ~rng ~src ~dst -> Ftp.sample_paths t ~rng ~src ~dst ~n:2)
      ~sim_of_host:(Ftp.sim_of_host t)
      ~run:(fun () ->
        Shard.run_windows ~pool:seq_pool (Ftp.group t) ~horizon)
  in
  Alcotest.(check (list int)) "per-flow delivered packets" seq sharded;
  Alcotest.(check bool) "progress" true (List.exists (fun n -> n > 0) seq)

(* --- shard-count invariance and determinism ----------------------------- *)

let small_cfg shards =
  { Fs.default with Fs.k = 4; shards; flows_per_host = 1; duration = 2.;
    warmup = 0.5; seed = 3 }

(* Despite the name, the check is exact: every compared field of the
   2-shard result has the float bits of the 1-shard result, and a
   single ulp, or -0 against 0, is caught by name. *)
let test_invariance_bands () =
  let r1 = Fs.run (small_cfg 1) in
  let r2 = Fs.run (small_cfg 2) in
  Alcotest.(check (option string)) "first differing field" None
    (Fs.first_difference r1 r2);
  Alcotest.(check bool) "progress" true (r1.Fs.aggregate_mbps > 0.);
  let bumped = Array.copy r2.Fs.ranked_pct in
  bumped.(0) <- Float.succ bumped.(0);
  Alcotest.(check (option string)) "one ulp in ranked_pct" (Some "ranked_pct")
    (Fs.first_difference r1 { r2 with Fs.ranked_pct = bumped });
  Alcotest.(check (option string)) "-0 vs 0" (Some "mean_core_loss")
    (Fs.first_difference
       { r1 with Fs.mean_core_loss = 0. }
       { r2 with Fs.mean_core_loss = -0. });
  Alcotest.(check int) "no cut traffic sequentially" 0 r1.Fs.cut_messages;
  Alcotest.(check bool) "cut traffic sharded" true (r2.Fs.cut_messages > 0)

(* Config errors surface before anything is built or run: a 1e6 s
   horizon would otherwise simulate for hours before the check. *)
let test_rejects_warmup_past_duration () =
  Alcotest.check_raises "warmup >= duration"
    (Invalid_argument "Fattree_sharded.run: warmup >= duration") (fun () ->
      ignore
        (Fs.run { (small_cfg 1) with duration = 1e6; warmup = 2e6 }
          : Fs.result))

let test_sharded_run_deterministic () =
  let r1 = Fs.run (small_cfg 2) in
  let r2 = Fs.run (small_cfg 2) in
  Alcotest.(check (array (float 0.)) "per-flow goodput bitwise")
    r1.Fs.flow_mbps r2.Fs.flow_mbps;
  Alcotest.(check int) "cut messages" r1.Fs.cut_messages r2.Fs.cut_messages

(* --- per-shard clocks ----------------------------------------------------- *)

(* Each worker splits its wall time into busy (drain and run) and
   barrier wait, both inside the run_windows call. *)
let test_shard_clocks () =
  let clocked ~shards ~pool =
    let t = make_pods ~k:4 ~shards ~seed:5 () in
    let group = Ftp.group t in
    let wall = ref 0. in
    ignore
      (run_workload ~seed:5
         ~mk_paths:(fun ~rng ~src ~dst ->
           Ftp.sample_paths t ~rng ~src ~dst ~n:2)
         ~sim_of_host:(Ftp.sim_of_host t)
         ~run:(fun () ->
           let t0 = Monotonic_clock.now () in
           Shard.run_windows ~pool group ~horizon:1.;
           let ns = Int64.sub (Monotonic_clock.now ()) t0 in
           wall := Int64.to_float ns *. 1e-9)
        : int list);
    (group, !wall)
  in
  let group, wall = clocked ~shards:2 ~pool:Mptcp_repro.Exp.Sweep.pool in
  for i = 0 to 1 do
    let busy = Shard.busy_s group i and wait = Shard.wait_s group i in
    Alcotest.(check bool) (Printf.sprintf "shard %d busy > 0" i) true (busy > 0.);
    Alcotest.(check bool) (Printf.sprintf "shard %d wait >= 0" i) true (wait >= 0.);
    Alcotest.(check bool)
      (Printf.sprintf "shard %d busy + wait (%g s) <= wall (%g s)" i
         (busy +. wait) wall)
      true
      (busy +. wait <= wall)
  done;
  let one, _ = clocked ~shards:1 ~pool:seq_pool in
  Alcotest.(check bool) "one shard busy" true (Shard.busy_s one 0 > 0.);
  Alcotest.(check (float 0.)) "one shard never waits" 0. (Shard.wait_s one 0)

(* --- sharded tracing ----------------------------------------------------- *)

(* Per-worker trace rings replaced the old run_windows tracing refusal:
   each worker domain binds its own pre-allocated ring, and the offline
   decoder merges them back into the scheduler's dispatch order. The
   check that matters is byte-level — a 2-shard traced run must decode
   to exactly the event stream of the 1-shard run. *)
let traced_lines shards =
  let (_ : Fs.result), events =
    Mptcp_repro.Obs.Trace.record ~capacity:(1 lsl 19) (fun () ->
        Fs.run (small_cfg shards))
  in
  List.map
    (fun ev -> Repro_stats.Json.to_string (Mptcp_repro.Obs.Trace.to_json ev))
    events

let test_traced_decode_shard_invariant () =
  let base = traced_lines 1 in
  let shd = traced_lines 2 in
  Alcotest.(check int) "event counts" (List.length base) (List.length shd);
  Alcotest.(check bool) "decoded traces byte-identical" true (base = shd);
  Alcotest.(check bool) "non-trivial trace" true (List.length base > 1000)

let suite =
  [
    Alcotest.test_case "pod cut k=4" `Quick test_cut_k4;
    Alcotest.test_case "pod cut k=8" `Quick test_cut_k8;
    Alcotest.test_case "rejects bad shard counts" `Quick
      test_cut_rejects_bad_shards;
    QCheck_alcotest.to_alcotest prop_merge_is_sequential_order;
    Alcotest.test_case "window count" `Quick test_windows;
    Alcotest.test_case "shards=1 = sequential (golden)" `Slow
      test_shards1_matches_sequential;
    Alcotest.test_case "shard-count invariance bands" `Slow
      test_invariance_bands;
    Alcotest.test_case "per-shard busy/wait clocks" `Quick test_shard_clocks;
    Alcotest.test_case "rejects warmup >= duration up front" `Quick
      test_rejects_warmup_past_duration;
    Alcotest.test_case "sharded run deterministic" `Slow
      test_sharded_run_deterministic;
    Alcotest.test_case "traced decode is shard-count invariant" `Slow
      test_traced_decode_shard_invariant;
  ]
