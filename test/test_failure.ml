(* Failure-injection tests: links that die and heal mid-flow, receivers
   that fall silent, and path churn. MPTCP's raison d'être is surviving
   exactly these events. *)

open Mptcp_repro.Netsim
open Mptcp_repro.Cc

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at sim t f = ignore (Sim.schedule_at sim t f : Sim.Timer.t)
  let schedule_after sim d f = ignore (Sim.schedule_after sim d f : Sim.Timer.t)
end

(* a controllable on/off valve placed on a path *)
let make_gate () =
  let up = ref true in
  let hop (p : Packet.t) = if !up then Packet.forward p in
  (up, hop)

let two_path_rig ~seed =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let mk () =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:10e6 ~buffer_pkts:300
      ~discipline:Queue.Droptail ()
  in
  let q1 = mk () and q2 = mk () in
  let pipe () = Pipe.create ~sim ~delay:0.02 in
  let gate1, ghop1 = make_gate () in
  let gate2, ghop2 = make_gate () in
  let path g q =
    {
      Tcp.fwd = [| g; Queue.hop q; Pipe.hop (pipe ()) |];
      rev = [| Pipe.hop (pipe ()) |];
    }
  in
  (sim, gate1, gate2, [| path ghop1 q1; path ghop2 q2 |])

let test_mptcp_survives_one_path_failure () =
  let sim, gate1, _gate2, paths = two_path_rig ~seed:1 in
  let conn = Tcp.create ~sim ~cc:(Olia.create ()) ~paths ~flow_id:0 () in
  Sim.schedule_at sim 20. (fun () -> gate1 := false);
  let acked_path2_at_cut = ref 0 in
  Sim.schedule_at sim 20.01 (fun () ->
      acked_path2_at_cut := Tcp.subflow_acked conn 1);
  Sim.run_until sim 60.;
  (* the surviving path keeps the connection moving at link speed *)
  let path2_after =
    float_of_int ((Tcp.subflow_acked conn 1 - !acked_path2_at_cut) * 12000)
    /. 40. /. 1e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "survivor carries %.1f Mb/s" path2_after)
    true (path2_after > 6.)

let test_mptcp_reclaims_healed_path () =
  let sim, gate1, _gate2, paths = two_path_rig ~seed:2 in
  let conn = Tcp.create ~sim ~cc:(Olia.create ()) ~paths ~flow_id:0 () in
  Sim.schedule_at sim 20. (fun () -> gate1 := false);
  Sim.schedule_at sim 40. (fun () -> gate1 := true);
  let acked_at_heal = ref 0 in
  Sim.schedule_at sim 40.01 (fun () ->
      acked_at_heal := Tcp.subflow_acked conn 0);
  Sim.run_until sim 160.;
  (* after healing, path 1 carries real traffic again; RTO backoff (up to
     60 s) bounds how fast the retransmit probes rediscover it *)
  Alcotest.(check bool) "healed path reused" true
    (Tcp.subflow_acked conn 0 - !acked_at_heal > 500)

let test_total_blackout_then_recovery () =
  let sim, gate1, gate2, paths = two_path_rig ~seed:3 in
  let done_at = ref nan in
  let conn =
    Tcp.create ~sim ~cc:(Lia.create ()) ~paths ~size_pkts:3000
      ~on_complete:(fun t -> done_at := t) ~flow_id:0 ()
  in
  (* both paths die for 5 seconds, early enough to interrupt the flow *)
  Sim.schedule_at sim 1. (fun () ->
      gate1 := false;
      gate2 := false);
  Sim.schedule_at sim 6. (fun () ->
      gate1 := true;
      gate2 := true);
  Sim.run_until sim 120.;
  Alcotest.(check bool) "completes despite blackout" true (Tcp.completed conn);
  Alcotest.(check bool) "blackout visible in completion time" true
    (!done_at > 6.)

let test_receiver_silence_causes_backoff_not_livelock () =
  (* the reverse (ACK) path dies: the sender must back off, not spin *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:4 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:100
      ~discipline:Queue.Droptail ()
  in
  let ack_up, ack_gate = make_gate () in
  let fwd = Pipe.create ~sim ~delay:0.02 and rv = Pipe.create ~sim ~delay:0.02 in
  let conn =
    Tcp.create ~sim ~cc:(Reno.create ())
      ~paths:
        [|
          {
            Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |];
            rev = [| ack_gate; Pipe.hop rv |];
          };
        |]
      ~flow_id:0 ()
  in
  Sim.schedule_at sim 5. (fun () -> ack_up := false);
  Sim.run_until sim 65.;
  let sent_during_silence = Sim.events_processed sim in
  (* exponential backoff keeps the event count bounded: far fewer than a
     second of line-rate traffic *)
  Alcotest.(check bool) "bounded activity" true (sent_during_silence < 500_000);
  ack_up := true;
  Sim.run_until sim 130.;
  Alcotest.(check bool) "resumes when ACKs return" true
    (Tcp.total_acked conn > 1000)

let test_path_manager_handles_flapping_link () =
  (* a link that flaps every 15 s: the manager discards it during outages
     and re-probes it afterwards without wedging the connection *)
  let sim, gate1, _gate2, paths = two_path_rig ~seed:5 in
  let conn = Tcp.create ~sim ~cc:(Olia.create ()) ~paths ~flow_id:0 () in
  let pm =
    Path_manager.attach ~sim
      ~policy:
        { Path_manager.default_policy with check_period = 3.;
          reprobe_period = 10. }
      conn
  in
  let rec flap up t =
    Sim.schedule_at sim t (fun () -> gate1 := up);
    if t +. 15. < 120. then flap (not up) (t +. 15.)
  in
  flap false 15.;
  Sim.run_until sim 150.;
  Alcotest.(check bool) "connection alive" true (Tcp.total_acked conn > 10_000);
  Alcotest.(check bool) "manager acted" true
    (Path_manager.discards pm + Path_manager.reprobes pm > 0)

let test_short_flow_during_outage_still_completes () =
  let sim, gate1, _gate2, paths = two_path_rig ~seed:6 in
  (* the flow starts exactly during a path-1 outage *)
  gate1 := false;
  Sim.schedule_at sim 30. (fun () -> gate1 := true);
  let conn =
    Tcp.create ~sim ~cc:(Olia.create ()) ~paths ~size_pkts:100 ~flow_id:0 ()
  in
  Sim.run_until sim 60.;
  Alcotest.(check bool) "completed" true (Tcp.completed conn);
  Alcotest.(check int) "exact delivery" 100 (Tcp.total_acked conn)

let suite =
  [
    Alcotest.test_case "failure: one path dies, MPTCP survives" `Slow
      test_mptcp_survives_one_path_failure;
    Alcotest.test_case "failure: healed path reused" `Slow
      test_mptcp_reclaims_healed_path;
    Alcotest.test_case "failure: total blackout recovery" `Slow
      test_total_blackout_then_recovery;
    Alcotest.test_case "failure: ACK silence backs off" `Slow
      test_receiver_silence_causes_backoff_not_livelock;
    Alcotest.test_case "failure: flapping link + path manager" `Slow
      test_path_manager_handles_flapping_link;
    Alcotest.test_case "failure: flow born during outage" `Quick
      test_short_flow_during_outage_still_completes;
  ]
