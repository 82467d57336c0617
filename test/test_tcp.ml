open Mptcp_repro.Netsim
open Mptcp_repro.Cc

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at sim t f = ignore (Sim.schedule_at sim t f : Sim.Timer.t)
  let schedule_after sim d f = ignore (Sim.schedule_after sim d f : Sim.Timer.t)
end

let check_close eps = Alcotest.(check (float eps))

(* One bottleneck link with configurable rate/discipline and symmetric
   40 ms pipes, as in the testbed scenarios. *)
type rig = {
  sim : Sim.t;
  queue : Queue.t;
  path : Tcp.path;
}

let make_rig ?(rate_bps = 10e6) ?(buffer = 300) ?(discipline = Queue.Droptail)
    ?(delay = 0.04) ~seed () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let queue =
    Queue.create ~sim ~rng ~rate_bps ~buffer_pkts:buffer ~discipline ()
  in
  let fwd_pipe = Pipe.create ~sim ~delay in
  let rev_pipe = Pipe.create ~sim ~delay in
  let path =
    {
      Tcp.fwd = [| Queue.hop queue; Pipe.hop fwd_pipe |];
      rev = [| Pipe.hop rev_pipe |];
    }
  in
  { sim; queue; path }

let second_path ?(rate_bps = 10e6) rig =
  (* an extra path through its own bottleneck queue *)
  let rng = Rng.create ~seed:99 in
  let q =
    Queue.create ~sim:rig.sim ~rng ~rate_bps ~buffer_pkts:300
      ~discipline:Queue.Droptail ()
  in
  let fwd_pipe = Pipe.create ~sim:rig.sim ~delay:0.04 in
  let rev_pipe = Pipe.create ~sim:rig.sim ~delay:0.04 in
  {
    Tcp.fwd = [| Queue.hop q; Pipe.hop fwd_pipe |];
    rev = [| Pipe.hop rev_pipe |];
  }

(* --- basic delivery ------------------------------------------------- *)

let test_finite_flow_completes () =
  let rig = make_rig ~seed:1 () in
  let done_at = ref nan in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~size_pkts:50 ~on_complete:(fun t -> done_at := t) ~flow_id:0 ()
  in
  Sim.run_until rig.sim 30.;
  Alcotest.(check bool) "completed" true (Tcp.completed conn);
  Alcotest.(check int) "all delivered" 50 (Tcp.total_acked conn);
  Alcotest.(check bool) "time recorded" true (Float.is_finite !done_at);
  Alcotest.(check (option (float 1e-9))) "completion_time agrees"
    (Some !done_at) (Tcp.completion_time conn)

let test_infinite_flow_saturates_link () =
  let rig = make_rig ~seed:2 () in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~flow_id:0 ()
  in
  Sim.run_until rig.sim 60.;
  let mbps = float_of_int (Tcp.total_acked conn * 12000) /. 60. /. 1e6 in
  Alcotest.(check bool) "above 7 of 10 Mb/s" true (mbps > 7.)

let test_delivery_is_exactly_once () =
  (* with heavy random loss, a finite transfer still delivers exactly its
     size, no more (completion counts unique packets) *)
  let rig =
    make_rig ~rate_bps:2e6 ~buffer:10 ~seed:3 ()
  in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~size_pkts:500 ~flow_id:0 ()
  in
  Sim.run_until rig.sim 200.;
  Alcotest.(check bool) "completed" true (Tcp.completed conn);
  Alcotest.(check int) "exact count" 500 (Tcp.total_acked conn)

let test_two_flows_share_fairly () =
  let rig = make_rig ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:10.))
      ~seed:4 () in
  let mk start flow_id =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~start ~flow_id ()
  in
  let a = mk 0. 0 and b = mk 0.3 1 in
  (* skip startup transients *)
  let snap_a = ref 0 and snap_b = ref 0 in
  Sim.schedule_at rig.sim 30. (fun () ->
      snap_a := Tcp.total_acked a;
      snap_b := Tcp.total_acked b);
  Sim.run_until rig.sim 120.;
  let ra = Tcp.total_acked a - !snap_a and rb = Tcp.total_acked b - !snap_b in
  let ratio = float_of_int ra /. float_of_int rb in
  Alcotest.(check bool)
    (Printf.sprintf "fair within 35%% (ratio %.2f)" ratio)
    true
    (ratio > 0.65 && ratio < 1.55)

let test_loss_recovery_without_timeout () =
  (* a single isolated drop at a healthy window is repaired by fast
     retransmit, not by RTO *)
  let rig = make_rig ~buffer:1000 ~seed:5 () in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~size_pkts:2000 ~flow_id:0 ()
  in
  Sim.run_until rig.sim 60.;
  Alcotest.(check bool) "completed" true (Tcp.completed conn);
  Alcotest.(check int) "no timeouts on a clean link" 0
    (Tcp.subflow_timeouts conn 0)

let test_rtt_estimate_tracks_path () =
  let rig = make_rig ~seed:6 () in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~size_pkts:100 ~flow_id:0 ()
  in
  Sim.run_until rig.sim 20.;
  (* propagation 80 ms + serialization + queueing: in [0.08, 0.5] *)
  let rtt = Tcp.subflow_rtt conn 0 in
  Alcotest.(check bool) "plausible" true (rtt >= 0.08 && rtt < 0.5)

let test_create_requires_paths () =
  let rig = make_rig ~seed:7 () in
  Alcotest.check_raises "no paths" (Invalid_argument "Tcp.create: no paths")
    (fun () ->
      ignore
        (Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[||] ~flow_id:0 ()))

let test_start_time_respected () =
  let rig = make_rig ~seed:8 () in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~start:5. ~flow_id:0 ()
  in
  Sim.run_until rig.sim 4.9;
  Alcotest.(check int) "nothing before start" 0 (Tcp.total_acked conn);
  Sim.run_until rig.sim 10.;
  Alcotest.(check bool) "data after start" true (Tcp.total_acked conn > 0)

(* --- multipath ------------------------------------------------------- *)

let test_mptcp_uses_both_paths () =
  let rig = make_rig ~seed:9 () in
  (* a second independent bottleneck on the same simulator *)
  let rng = Rng.create ~seed:11 in
  let q2 =
    Queue.create ~sim:rig.sim ~rng ~rate_bps:10e6 ~buffer_pkts:300
      ~discipline:Queue.Droptail ()
  in
  let fwd2 = Pipe.create ~sim:rig.sim ~delay:0.04 in
  let rev2 = Pipe.create ~sim:rig.sim ~delay:0.04 in
  let path2 =
    { Tcp.fwd = [| Queue.hop q2; Pipe.hop fwd2 |]; rev = [| Pipe.hop rev2 |] }
  in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Olia.create ()) ~paths:[| rig.path; path2 |]
      ~flow_id:0 ()
  in
  Sim.run_until rig.sim 60.;
  Alcotest.(check bool) "path 0 used" true (Tcp.subflow_acked conn 0 > 1000);
  Alcotest.(check bool) "path 1 used" true (Tcp.subflow_acked conn 1 > 1000);
  let mbps = float_of_int (Tcp.total_acked conn * 12000) /. 60. /. 1e6 in
  Alcotest.(check bool) "pools both links" true (mbps > 12.)

let test_mptcp_finite_flow_splits_and_completes () =
  let rig = make_rig ~seed:12 () in
  let path2 = second_path rig in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Olia.create ()) ~paths:[| rig.path; path2 |]
      ~size_pkts:300 ~flow_id:0 ()
  in
  Sim.run_until rig.sim 60.;
  Alcotest.(check bool) "completed" true (Tcp.completed conn);
  Alcotest.(check int) "no duplicate accounting" 300 (Tcp.total_acked conn);
  Alcotest.(check int) "sum of subflows" 300
    (Tcp.subflow_acked conn 0 + Tcp.subflow_acked conn 1)

let test_olia_multipath_starts_in_congestion_avoidance () =
  let rig = make_rig ~seed:13 () in
  let path2 = second_path rig in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Olia.create ()) ~paths:[| rig.path; path2 |]
      ~flow_id:0 ()
  in
  Alcotest.(check (float 1e-9)) "ssthresh forced to 1" 1.
    (Tcp.subflow_ssthresh conn 0);
  Sim.run_until rig.sim 1.;
  (* no slow-start doubling: window stays small initially *)
  Alcotest.(check bool) "no exponential burst" true
    (Tcp.subflow_cwnd conn 0 < 16.)

let test_lia_multipath_keeps_slow_start () =
  let rig = make_rig ~seed:14 () in
  let path2 = second_path rig in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Lia.create ()) ~paths:[| rig.path; path2 |]
      ~flow_id:0 ()
  in
  Alcotest.(check bool) "ssthresh unbounded" true
    (Float.equal (Tcp.subflow_ssthresh conn 0) infinity)

let test_subflow_counters () =
  let rig = make_rig ~seed:15 () in
  let path2 = second_path rig in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Lia.create ()) ~paths:[| rig.path; path2 |]
      ~flow_id:0 ()
  in
  Alcotest.(check int) "subflows" 2 (Tcp.subflow_count conn);
  Sim.run_until rig.sim 5.;
  Alcotest.(check bool) "cwnd positive" true (Tcp.subflow_cwnd conn 1 >= 1.)

(* --- stress / integration with loss -------------------------------- *)

let test_heavy_congestion_progress () =
  (* 20 flows on a tight droptail buffer: everyone still progresses *)
  let rig = make_rig ~rate_bps:5e6 ~buffer:30 ~seed:16 () in
  let conns =
    List.init 20 (fun i ->
        Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
          ~start:(float_of_int i *. 0.1) ~flow_id:i ())
  in
  Sim.run_until rig.sim 60.;
  List.iter
    (fun c ->
      Alcotest.(check bool) "every flow progresses" true
        (Tcp.total_acked c > 200))
    conns

let test_utilization_under_full_load () =
  let rig = make_rig ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:10.))
      ~seed:17 () in
  let _ =
    List.init 5 (fun i ->
        Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
          ~start:(float_of_int i *. 0.2) ~flow_id:i ())
  in
  Sim.schedule_at rig.sim 20. (fun () -> Queue.reset_stats rig.queue);
  Sim.run_until rig.sim 80.;
  let util = Queue.utilization rig.queue ~since:20. ~now:80. in
  Alcotest.(check bool)
    (Printf.sprintf "high utilization (%.3f)" util)
    true (util > 0.90)

let test_goodput_matches_loss_throughput_formula () =
  (* cross-validation with the fluid model: measured goodput within a
     factor ~[0.5, 2.2] of (1/rtt)·sqrt(2/p) under RED. The upper slack
     covers clustered drops that TCP treats as one loss event. *)
  let rig = make_rig ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:10.))
      ~seed:18 () in
  let conns =
    List.init 10 (fun i ->
        Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
          ~start:(float_of_int i *. 0.2) ~flow_id:i ())
  in
  let snaps = Array.make 10 0 in
  Sim.schedule_at rig.sim 30. (fun () ->
      Queue.reset_stats rig.queue;
      List.iteri (fun i c -> snaps.(i) <- Tcp.total_acked c) conns);
  Sim.run_until rig.sim 120.;
  let p = Queue.loss_probability rig.queue in
  Alcotest.(check bool) "loss observed" true (p > 0.001);
  let rtt = 0.08 +. 0.15 in
  (* propagation + typical RED queueing *)
  let predicted = sqrt (2. /. p) /. rtt in
  let total_pps =
    List.fold_left ( +. ) 0.
      (List.mapi
         (fun i c -> float_of_int (Tcp.total_acked c - snaps.(i)) /. 90.)
         conns)
    /. 10.
  in
  let ratio = total_pps /. predicted in
  Alcotest.(check bool)
    (Printf.sprintf "formula holds (ratio %.2f, p %.4f)" ratio p)
    true
    (ratio > 0.5 && ratio < 2.2)

let suite =
  [
    Alcotest.test_case "tcp: finite flow completes" `Quick
      test_finite_flow_completes;
    Alcotest.test_case "tcp: saturates a clean link" `Slow
      test_infinite_flow_saturates_link;
    Alcotest.test_case "tcp: exactly-once delivery under loss" `Slow
      test_delivery_is_exactly_once;
    Alcotest.test_case "tcp: two flows share fairly" `Slow
      test_two_flows_share_fairly;
    Alcotest.test_case "tcp: clean link needs no timeouts" `Quick
      test_loss_recovery_without_timeout;
    Alcotest.test_case "tcp: rtt estimate plausible" `Quick
      test_rtt_estimate_tracks_path;
    Alcotest.test_case "tcp: rejects empty paths" `Quick test_create_requires_paths;
    Alcotest.test_case "tcp: start time respected" `Quick test_start_time_respected;
    Alcotest.test_case "mptcp: pools two links" `Slow test_mptcp_uses_both_paths;
    Alcotest.test_case "mptcp: finite flow splits and completes" `Quick
      test_mptcp_finite_flow_splits_and_completes;
    Alcotest.test_case "mptcp: OLIA skips slow start" `Quick
      test_olia_multipath_starts_in_congestion_avoidance;
    Alcotest.test_case "mptcp: LIA keeps slow start" `Quick
      test_lia_multipath_keeps_slow_start;
    Alcotest.test_case "mptcp: subflow counters" `Quick test_subflow_counters;
    Alcotest.test_case "tcp: heavy congestion progress" `Slow
      test_heavy_congestion_progress;
    Alcotest.test_case "tcp: high utilization under load" `Slow
      test_utilization_under_full_load;
    Alcotest.test_case "tcp: loss-throughput formula" `Slow
      test_goodput_matches_loss_throughput_formula;
  ]

let test_subflow_join_delay () =
  let rig = make_rig ~seed:20 () in
  let path2 = second_path rig in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Olia.create ()) ~paths:[| rig.path; path2 |]
      ~subflow_join_delay:5. ~flow_id:0 ()
  in
  Sim.run_until rig.sim 4.;
  Alcotest.(check bool) "first subflow active" true
    (Tcp.subflow_acked conn 0 > 0);
  Alcotest.(check int) "second subflow waiting" 0 (Tcp.subflow_acked conn 1);
  Sim.run_until rig.sim 15.;
  Alcotest.(check bool) "second subflow joined" true
    (Tcp.subflow_acked conn 1 > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "mptcp: subflow join delay" `Quick
        test_subflow_join_delay;
    ]

let test_rto_backoff_and_reset () =
  (* a blackhole path: every RTO doubles the timer; after the path heals
     the next RTT sample restores a normal RTO *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:30 in
  let broken = ref true in
  let gate (p : Packet.t) = if not !broken then Packet.forward p in
  let q = Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:50
      ~discipline:Queue.Droptail () in
  let fwd = Pipe.create ~sim ~delay:0.02 and rv = Pipe.create ~sim ~delay:0.02 in
  let conn =
    Tcp.create ~sim ~cc:(Reno.create ())
      ~paths:[| { Tcp.fwd = [| gate; Queue.hop q; Pipe.hop fwd |];
                  rev = [| Pipe.hop rv |] } |]
      ~size_pkts:50 ~flow_id:0 ()
  in
  Sim.run_until sim 10.;
  let timeouts_during_blackhole = Tcp.subflow_timeouts conn 0 in
  (* exponential backoff: in 10 s we see only a handful of attempts *)
  Alcotest.(check bool)
    (Printf.sprintf "backoff limits retries (%d)" timeouts_during_blackhole)
    true
    (timeouts_during_blackhole >= 3 && timeouts_during_blackhole <= 8);
  broken := false;
  Sim.run_until sim 120.;
  Alcotest.(check bool) "completes after healing" true (Tcp.completed conn)

let test_rcv_wnd_caps_flight () =
  let rig = make_rig ~buffer:2000 ~seed:31 () in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~rcv_wnd:5. ~flow_id:0 ()
  in
  Sim.run_until rig.sim 20.;
  (* 5 packets per ~0.1 s RTT: goodput is pinned near 50 pkt/s *)
  let pps = float_of_int (Tcp.total_acked conn) /. 20. in
  Alcotest.(check bool) (Printf.sprintf "capped (%.0f pkt/s)" pps) true
    (pps < 70.)

let test_completion_callback_time_matches () =
  let rig = make_rig ~seed:32 () in
  let cb_time = ref nan in
  let conn =
    Tcp.create ~sim:rig.sim ~cc:(Reno.create ()) ~paths:[| rig.path |]
      ~size_pkts:20 ~on_complete:(fun t -> cb_time := t) ~flow_id:0 ()
  in
  Sim.run_until rig.sim 30.;
  match Tcp.completion_time conn with
  | Some t ->
    Alcotest.(check (float 1e-12)) "callback time" t !cb_time;
    Alcotest.(check bool) "sane time" true (t > 0.08 && t < 10.)
  | None -> Alcotest.fail "did not complete"

let suite =
  suite
  @ [
      Alcotest.test_case "tcp: rto backoff and healing" `Quick
        test_rto_backoff_and_reset;
      Alcotest.test_case "tcp: rcv_wnd caps flight" `Quick
        test_rcv_wnd_caps_flight;
      Alcotest.test_case "tcp: completion callback" `Quick
        test_completion_callback_time_matches;
    ]
