open Mptcp_repro.Netsim
open Mptcp_repro.Topology

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at sim t f = ignore (Sim.schedule_at sim t f : Sim.Timer.t)
  let schedule_after sim d f = ignore (Sim.schedule_after sim d f : Sim.Timer.t)
end

let check_close eps = Alcotest.(check (float eps))

module Ftp = Fattree_pods

let make_tree ?(k = 4) ?(oversubscription = 1.) () =
  let rng = Rng.create ~seed:1 in
  let tree =
    Ftp.create ~shards:1 ~rng ~k ~rate_bps:10e6 ~delay:0.001
      ~buffer_pkts:100 ~discipline:Queue.Droptail ~oversubscription ()
  in
  (Shard.sim (Ftp.group tree) 0, tree)

(* --- Duplex ----------------------------------------------------------- *)

let test_duplex_directions_independent () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let link =
    Duplex.create ~sim ~rng ~rate_bps:12e6 ~delay:0.01 ~buffer_pkts:10
      ~discipline:Queue.Droptail ()
  in
  let fwd_arr = ref nan and rev_arr = ref nan in
  let fwd_sink (_ : Packet.t) = fwd_arr := Sim.now sim in
  let rev_sink (_ : Packet.t) = rev_arr := Sim.now sim in
  let fwd_route = Array.append (Duplex.fwd_hops link) [| fwd_sink |] in
  let rev_route = Array.append (Duplex.rev_hops link) [| rev_sink |] in
  Sim.schedule_at sim 0. (fun () ->
      Packet.forward
        (Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route:fwd_route);
      Packet.forward
        (Packet.data ~flow:0 ~subflow:0 ~seq:1 ~sent_at:0. ~route:rev_route));
  Sim.run sim;
  (* both directions serve concurrently: same arrival time *)
  check_close 1e-9 "fwd" 0.011 !fwd_arr;
  check_close 1e-9 "rev" 0.011 !rev_arr;
  Alcotest.(check int) "fwd stats" 1 (Queue.arrivals (Duplex.fwd_queue link));
  Alcotest.(check int) "rev stats" 1 (Queue.arrivals (Duplex.rev_queue link));
  check_close 1e-12 "delay accessor" 0.01 (Duplex.one_way_delay link)

(* --- Fattree structure ------------------------------------------------- *)

let test_fattree_counts_k4 () =
  let _, tree = make_tree ~k:4 () in
  Alcotest.(check int) "hosts" 16 (Ftp.host_count tree);
  Alcotest.(check int) "k" 4 (Ftp.k tree)

let test_fattree_counts_k8 () =
  let _, tree = make_tree ~k:8 () in
  (* the paper's htsim topology: 128 hosts *)
  Alcotest.(check int) "hosts" 128 (Ftp.host_count tree)

let test_fattree_rejects_odd_k () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "odd k"
    (Invalid_argument "Fattree_pods.create: k must be even") (fun () ->
      ignore
        (Ftp.create ~shards:1 ~rng ~k:3 ~rate_bps:1e6 ~delay:0.001
           ~buffer_pkts:10 ~discipline:Queue.Droptail ()))

let test_fattree_path_counts () =
  let _, tree = make_tree ~k:4 () in
  (* same edge switch: hosts 0 and 1 *)
  Alcotest.(check int) "same edge" 1 (Ftp.path_count tree ~src:0 ~dst:1);
  (* same pod, different edge: hosts 0 and 2 *)
  Alcotest.(check int) "same pod" 2 (Ftp.path_count tree ~src:0 ~dst:2);
  (* different pods: hosts 0 and 15 *)
  Alcotest.(check int) "cross pod" 4 (Ftp.path_count tree ~src:0 ~dst:15)

let test_fattree_path_count_k8 () =
  let _, tree = make_tree ~k:8 () in
  Alcotest.(check int) "cross pod (k/2)²" 16
    (Ftp.path_count tree ~src:0 ~dst:127)

let test_fattree_all_paths_match_count () =
  let _, tree = make_tree ~k:4 () in
  List.iter
    (fun (src, dst) ->
      Alcotest.(check int) "lengths agree"
        (Ftp.path_count tree ~src ~dst)
        (Array.length (Ftp.all_paths tree ~src ~dst)))
    [ (0, 1); (0, 2); (0, 15); (5, 9); (12, 3) ]

let test_fattree_rejects_self_path () =
  let _, tree = make_tree () in
  Alcotest.check_raises "self" (Invalid_argument "Fattree_pods: src = dst")
    (fun () -> ignore (Ftp.all_paths tree ~src:3 ~dst:3));
  Alcotest.check_raises "range"
    (Invalid_argument "Fattree_pods: host out of range")
    (fun () -> ignore (Ftp.all_paths tree ~src:0 ~dst:99))

let test_fattree_sample_paths_distinct () =
  let _, tree = make_tree ~k:4 () in
  let rng = Rng.create ~seed:5 in
  let paths = Ftp.sample_paths tree ~rng ~src:0 ~dst:15 ~n:3 in
  Alcotest.(check int) "asked three" 3 (Array.length paths);
  let all = Ftp.sample_paths tree ~rng ~src:0 ~dst:15 ~n:100 in
  Alcotest.(check int) "capped at available" 4 (Array.length all)

let test_fattree_queue_lists () =
  let _, tree = make_tree ~k:4 () in
  (* k=4: agg-core links = k·(k/2)·(k/2) = 16, two queues each *)
  Alcotest.(check int) "core queues" 32 (List.length (Ftp.core_queues tree));
  (* all links: 16 host + 16 edge-agg + 16 agg-core = 48 links, 96 queues *)
  Alcotest.(check int) "all queues" 96 (List.length (Ftp.all_queues tree))

(* --- Fattree routing actually delivers --------------------------------- *)

let test_fattree_paths_deliver_and_return () =
  let sim, tree = make_tree ~k:4 () in
  List.iter
    (fun (src, dst) ->
      Array.iteri
        (fun i { Mptcp_repro.Netsim.Tcp.fwd; rev } ->
          let got_fwd = ref false and got_rev = ref false in
          let fwd_route = Array.append fwd [| (fun _ -> got_fwd := true) |] in
          let rev_route = Array.append rev [| (fun _ -> got_rev := true) |] in
          Packet.forward
            (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:(Sim.now sim)
               ~route:fwd_route);
          Sim.run sim;
          Packet.forward
            (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:(Sim.now sim)
               ~route:rev_route);
          Sim.run sim;
          Alcotest.(check bool)
            (Printf.sprintf "fwd %d->%d path %d" src dst i)
            true !got_fwd;
          Alcotest.(check bool)
            (Printf.sprintf "rev %d->%d path %d" src dst i)
            true !got_rev)
        (Ftp.all_paths tree ~src ~dst))
    [ (0, 1); (0, 2); (0, 15); (7, 8) ]

let test_fattree_oversubscription_slows_uplinks () =
  let sim, tree = make_tree ~k:4 ~oversubscription:4. () in
  (* send a burst cross-pod and check it takes ~4x longer than the host
     link would: uplink rate = 2.5 Mb/s -> 4.8 ms per packet *)
  let path = (Ftp.all_paths tree ~src:0 ~dst:15).(0) in
  let last_arrival = ref 0. in
  let route =
    Array.append path.Mptcp_repro.Netsim.Tcp.fwd
      [| (fun _ -> last_arrival := Sim.now sim) |]
  in
  Sim.schedule_at sim 0. (fun () ->
      for i = 0 to 9 do
        Packet.forward
          (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route)
      done);
  Sim.run sim;
  (* ten packets paced by the slowest (uplink) hop at 4.8 ms apiece *)
  Alcotest.(check bool) "uplink pacing" true (!last_arrival > 0.045)

let prop_fattree_path_endpoints_valid =
  QCheck.Test.make ~name:"fattree: every host pair has >= 1 path" ~count:60
    QCheck.(pair (int_range 0 15) (int_range 0 15))
    (fun (src, dst) ->
      let _, tree = make_tree ~k:4 () in
      src = dst
      || Array.length (Ftp.all_paths tree ~src ~dst) >= 1)

(* --- Workload ----------------------------------------------------------- *)

let test_workload_permutation () =
  let rng = Rng.create ~seed:21 in
  let flows =
    Mptcp_repro.Workload.permutation_long_flows ~rng ~hosts:16 ~max_jitter:1.
  in
  Alcotest.(check int) "one per host" 16 (List.length flows);
  List.iter
    (fun { Mptcp_repro.Workload.src; dst; size_pkts; start } ->
      Alcotest.(check bool) "no self" true (src <> dst);
      Alcotest.(check bool) "long" true (size_pkts = None);
      Alcotest.(check bool) "jittered" true (start >= 0. && start < 1.))
    flows;
  (* destinations form a permutation *)
  let dsts =
    List.sort compare (List.map (fun f -> f.Mptcp_repro.Workload.dst) flows)
  in
  Alcotest.(check (list int)) "permutation" (List.init 16 Fun.id) dsts

let test_workload_poisson () =
  let rng = Rng.create ~seed:22 in
  let flows =
    Mptcp_repro.Workload.poisson_short_flows ~rng ~src:1 ~dst:2
      ~mean_interval:0.2 ~size_pkts:47 ~duration:100.
  in
  let n = List.length flows in
  (* expectation 500; allow wide slack *)
  Alcotest.(check bool) (Printf.sprintf "count %d near 500" n) true
    (n > 400 && n < 600);
  let sorted = ref true and prev = ref 0. in
  List.iter
    (fun { Mptcp_repro.Workload.start; size_pkts; _ } ->
      if start < !prev then sorted := false;
      prev := start;
      Alcotest.(check (option int)) "size" (Some 47) size_pkts)
    flows;
  Alcotest.(check bool) "sorted by arrival" true !sorted;
  Alcotest.(check bool) "within duration" true (!prev < 100.)

let test_workload_short_flow_size () =
  (* 70 kB of 1500-byte segments *)
  Alcotest.(check int) "47 packets" 47 Mptcp_repro.Workload.short_flow_pkts

let test_workload_staggered () =
  let rng = Rng.create ~seed:23 in
  let starts =
    Mptcp_repro.Workload.staggered_starts ~rng ~n:50 ~max_jitter:2.
  in
  Alcotest.(check int) "count" 50 (Array.length starts);
  Array.iter
    (fun s -> Alcotest.(check bool) "in range" true (s >= 0. && s < 2.))
    starts

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "duplex: independent directions" `Quick
      test_duplex_directions_independent;
    Alcotest.test_case "fattree: k=4 counts" `Quick test_fattree_counts_k4;
    Alcotest.test_case "fattree: k=8 = paper topology" `Quick
      test_fattree_counts_k8;
    Alcotest.test_case "fattree: rejects odd k" `Quick test_fattree_rejects_odd_k;
    Alcotest.test_case "fattree: path counts" `Quick test_fattree_path_counts;
    Alcotest.test_case "fattree: 16 cross-pod paths at k=8" `Quick
      test_fattree_path_count_k8;
    Alcotest.test_case "fattree: all_paths matches count" `Quick
      test_fattree_all_paths_match_count;
    Alcotest.test_case "fattree: rejects bad pairs" `Quick
      test_fattree_rejects_self_path;
    Alcotest.test_case "fattree: path sampling" `Quick
      test_fattree_sample_paths_distinct;
    Alcotest.test_case "fattree: queue inventories" `Quick
      test_fattree_queue_lists;
    Alcotest.test_case "fattree: paths deliver both ways" `Quick
      test_fattree_paths_deliver_and_return;
    Alcotest.test_case "fattree: oversubscription" `Quick
      test_fattree_oversubscription_slows_uplinks;
    q prop_fattree_path_endpoints_valid;
    Alcotest.test_case "workload: permutation flows" `Quick
      test_workload_permutation;
    Alcotest.test_case "workload: poisson shorts" `Quick test_workload_poisson;
    Alcotest.test_case "workload: 70kB short size" `Quick
      test_workload_short_flow_size;
    Alcotest.test_case "workload: staggered starts" `Quick test_workload_staggered;
  ]
