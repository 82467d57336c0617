(* Tests for the extension features: CUBIC and Scalable TCP (paper
   Remark 3), the LIA fluid ODE, delayed ACKs, CBR background traffic and
   the path manager (paper §VII future-work items). *)

open Mptcp_repro.Netsim
open Mptcp_repro.Cc

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at sim t f = ignore (Sim.schedule_at sim t f : Sim.Timer.t)
  let schedule_after sim d f = ignore (Sim.schedule_after sim d f : Sim.Timer.t)
end

let check_close eps = Alcotest.(check (float eps))
let view cwnd rtt = { Types.cwnd; rtt }

(* --- Scalable TCP ------------------------------------------------------ *)

let test_scalable_constant_increase () =
  let cc = Scalable.create () in
  let views = [| view 10. 0.1 |] in
  check_close 1e-12 "a" 0.01 (cc.Types.increase ~views ~idx:0);
  let views = [| view 1000. 0.1 |] in
  check_close 1e-12 "a at any window" 0.01 (cc.Types.increase ~views ~idx:0)

let test_scalable_decrease () =
  let cc = Scalable.create () in
  let views = [| view 80. 0.1 |] in
  check_close 1e-12 "b·w" 10. (cc.Types.loss_decrease ~views ~idx:0)

let test_scalable_custom_params () =
  let cc = Scalable.create ~a:0.02 ~b:0.25 () in
  let views = [| view 40. 0.1 |] in
  check_close 1e-12 "a" 0.02 (cc.Types.increase ~views ~idx:0);
  check_close 1e-12 "b·w" 10. (cc.Types.loss_decrease ~views ~idx:0)

let test_scalable_rejects_bad_params () =
  Alcotest.check_raises "a" (Invalid_argument "Scalable.create: a must be > 0")
    (fun () -> ignore (Scalable.create ~a:0. ()));
  Alcotest.check_raises "b"
    (Invalid_argument "Scalable.create: b must be in (0,1)") (fun () ->
      ignore (Scalable.create ~b:1. ()))

let test_scalable_rate_rtt_independent () =
  (* MIMD equilibrium: the per-RTT growth is a fraction of the window, so
     the sawtooth mean window depends only on the loss rate, not the RTT.
     Check the window recovers a loss in a fixed number of ACKs. *)
  let cc = Scalable.create () in
  let recover_acks rtt =
    let w = ref 80. in
    let dec = cc.Types.loss_decrease ~views:[| view !w rtt |] ~idx:0 in
    w := !w -. dec;
    let n = ref 0 in
    while !w < 80. do
      w := !w +. cc.Types.increase ~views:[| view !w rtt |] ~idx:0;
      incr n
    done;
    !n
  in
  Alcotest.(check int) "same ACK count at any rtt" (recover_acks 0.01)
    (recover_acks 1.)

(* --- CUBIC -------------------------------------------------------------- *)

let test_cubic_reno_before_first_loss () =
  let cc = Cubic.create () in
  let views = [| view 10. 0.1 |] in
  check_close 1e-12 "1/w" 0.1 (cc.Types.increase ~views ~idx:0)

let test_cubic_decrease_is_beta () =
  let cc = Cubic.create () in
  let views = [| view 100. 0.1 |] in
  check_close 1e-9 "0.3·w" 30. (cc.Types.loss_decrease ~views ~idx:0)

let test_cubic_concave_recovery_toward_wmax () =
  (* after a loss at W_max = 100 the window climbs back towards 100,
     fast at first, flat near W_max *)
  let cc = Cubic.create () in
  let w = ref 100. in
  let dec = cc.Types.loss_decrease ~views:[| view !w 0.1 |] ~idx:0 in
  cc.Types.on_loss ~idx:0;
  w := !w -. dec;
  let early_gain = ref 0. and late_gain = ref 0. in
  for i = 1 to 4000 do
    let inc = cc.Types.increase ~views:[| view !w 0.1 |] ~idx:0 in
    w := !w +. inc;
    if i <= 200 then early_gain := !early_gain +. inc
    else if !w < 99. then late_gain := inc
  done;
  Alcotest.(check bool) "recovers most of the drop" true (!w > 95.);
  Alcotest.(check bool)
    (Printf.sprintf "early growth %.2f dominates late %.4f" !early_gain
       !late_gain)
    true
    (!early_gain > 10. *. !late_gain)

let test_cubic_rejects_bad_params () =
  Alcotest.check_raises "c" (Invalid_argument "Cubic.create: c must be > 0")
    (fun () -> ignore (Cubic.create ~c:0. ()));
  Alcotest.check_raises "beta"
    (Invalid_argument "Cubic.create: beta must be in (0,1)") (fun () ->
      ignore (Cubic.create ~beta:0. ()))

let test_cubic_and_scalable_in_registry () =
  Alcotest.(check string) "cubic" "cubic" (Registry.create "cubic").Types.name;
  Alcotest.(check string) "scalable" "scalable"
    (Registry.create "scalable").Types.name

let test_cubic_saturates_link () =
  (* a CUBIC flow should fill a clean 10 Mb/s bottleneck at least as well
     as Reno *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:300
      ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:10.)) ()
  in
  let fwd = Pipe.create ~sim ~delay:0.04 and rv = Pipe.create ~sim ~delay:0.04 in
  let conn =
    Tcp.create ~sim ~cc:(Cubic.create ())
      ~paths:
        [| { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |]; rev = [| Pipe.hop rv |] } |]
      ~flow_id:0 ()
  in
  Sim.run_until sim 60.;
  let mbps = float_of_int (Tcp.total_acked conn * 12000) /. 60. /. 1e6 in
  Alcotest.(check bool) (Printf.sprintf "%.1f Mb/s > 7" mbps) true (mbps > 7.)

(* --- LIA fluid ODE ------------------------------------------------------- *)

module F = Mptcp_repro.Fluid

let two_link_net () =
  {
    F.Network_model.links =
      [| F.Network_model.link 100.; F.Network_model.link 100. |];
    users =
      [|
        {
          F.Network_model.routes =
            [|
              { F.Network_model.links = [| 0 |]; rtt = 0.1 };
              { F.Network_model.links = [| 1 |]; rtt = 0.1 };
            |];
        };
        {
          F.Network_model.routes =
            [| { F.Network_model.links = [| 1 |]; rtt = 0.1 } |];
        };
      |];
  }

let test_lia_ode_reaches_eq2_fixed_point () =
  let net = two_link_net () in
  let x0 = [| [| 10.; 10. |]; [| 10. |] |] in
  let x =
    F.Lia_ode.integrate
      ~options:{ F.Lia_ode.default_options with t_end = 600. }
      net ~x0
  in
  let predicted = F.Lia_ode.fixed_point_prediction net x in
  (* the integrated rates satisfy Eq. 2 given their own induced losses *)
  Array.iteri
    (fun u xu ->
      Array.iteri
        (fun r xr ->
          let p = predicted.(u).(r) in
          Alcotest.(check bool)
            (Printf.sprintf "user %d route %d: %.2f vs %.2f" u r xr p)
            true
            (abs_float (xr -. p) < 0.15 *. (abs_float p +. 1.)))
        xu)
    x

let test_lia_ode_keeps_congested_path () =
  (* LIA's fixed point keeps meaningful traffic on the worse path, unlike
     OLIA's (the root of problems P1/P2) *)
  let net =
    {
      (two_link_net ()) with
      F.Network_model.links =
        [| F.Network_model.link 100.; F.Network_model.link 30. |];
    }
  in
  let x0 = [| [| 5.; 5. |]; [| 5. |] |] in
  let lia =
    F.Lia_ode.integrate
      ~options:{ F.Lia_ode.default_options with t_end = 600. }
      net ~x0
  in
  let olia =
    (F.Olia_ode.integrate
       ~options:{ F.Olia_ode.default_options with t_end = 600. }
       net ~x0:[| [| 5.; 5. |]; [| 5. |] |])
      .F.Olia_ode.rates
  in
  Alcotest.(check bool)
    (Printf.sprintf "LIA x2 %.2f >> OLIA x2 %.2f" lia.(0).(1) olia.(0).(1))
    true
    (lia.(0).(1) > 4. *. olia.(0).(1))

let test_lia_ode_derivative_zero_at_fixed_point () =
  (* construct the analytic scenario-C-like fixed point and check the
     derivative is small there *)
  let net = two_link_net () in
  let x0 = [| [| 20.; 20. |]; [| 20. |] |] in
  let x =
    F.Lia_ode.integrate
      ~options:{ F.Lia_ode.default_options with t_end = 600. }
      net ~x0
  in
  let dx = F.Lia_ode.derivative net x in
  Array.iteri
    (fun u du ->
      Array.iteri
        (fun r d ->
          Alcotest.(check bool)
            (Printf.sprintf "du[%d][%d] = %.4f small" u r d)
            true
            (abs_float d < 0.05 *. (x.(u).(r) +. 1.)))
        du)
    dx

(* --- CBR ------------------------------------------------------------------ *)

let test_cbr_rate () =
  let sim = Sim.create () in
  let count = ref 0 in
  let sink (_ : Packet.t) = incr count in
  let cbr =
    Cbr.create ~sim ~rate_bps:1.2e6 ~route:[| sink |] ~stop:10. ~flow_id:99 ()
  in
  Sim.run_until sim 20.;
  (* 1.2 Mb/s of 1500-byte packets = 100 pkt/s for 10 s (±1 for floating
     point accumulation at the boundary) *)
  Alcotest.(check bool) "sent" true (abs (Cbr.packets_sent cbr - 1000) <= 1);
  Alcotest.(check int) "delivered" (Cbr.packets_sent cbr) !count

let test_cbr_start_stop () =
  let sim = Sim.create () in
  let cbr =
    Cbr.create ~sim ~rate_bps:1.2e6 ~route:[| Cbr.blackhole |] ~start:5.
      ~stop:6. ~flow_id:0 ()
  in
  Sim.run_until sim 4.;
  Alcotest.(check int) "nothing early" 0 (Cbr.packets_sent cbr);
  Sim.run_until sim 20.;
  Alcotest.(check bool) "one second's worth" true
    (abs (Cbr.packets_sent cbr - 100) <= 1)

let test_cbr_steals_capacity_from_tcp () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:300
      ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:10.)) ()
  in
  let fwd = Pipe.create ~sim ~delay:0.04 and rv = Pipe.create ~sim ~delay:0.04 in
  let conn =
    Tcp.create ~sim ~cc:(Reno.create ())
      ~paths:
        [| { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |]; rev = [| Pipe.hop rv |] } |]
      ~flow_id:0 ()
  in
  (* 5 Mb/s of background noise through the same bottleneck *)
  let _ =
    Cbr.create ~sim ~rate_bps:5e6
      ~route:[| Queue.hop q; Cbr.blackhole |]
      ~flow_id:1 ()
  in
  Sim.run_until sim 60.;
  let mbps = float_of_int (Tcp.total_acked conn * 12000) /. 60. /. 1e6 in
  Alcotest.(check bool) (Printf.sprintf "TCP squeezed to %.1f" mbps) true
    (mbps < 7.)

(* --- delayed ACKs ----------------------------------------------------------- *)

let delack_rig ~delayed_ack ~seed =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let q =
    Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:300
      ~discipline:Queue.Droptail ()
  in
  let ack_count = ref 0 in
  let count_acks (p : Packet.t) =
    (match p.Packet.kind with Packet.Ack -> incr ack_count | Packet.Data -> ());
    Packet.forward p
  in
  let fwd = Pipe.create ~sim ~delay:0.04 and rv = Pipe.create ~sim ~delay:0.04 in
  let conn =
    Tcp.create ~sim ~cc:(Reno.create ()) ~delayed_ack
      ~paths:
        [|
          {
            Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |];
            rev = [| count_acks; Pipe.hop rv |];
          };
        |]
      ~size_pkts:400 ~flow_id:0 ()
  in
  Sim.run_until sim 60.;
  (conn, !ack_count)

let test_delayed_ack_halves_ack_count () =
  let conn1, acks1 = delack_rig ~delayed_ack:false ~seed:3 in
  let conn2, acks2 = delack_rig ~delayed_ack:true ~seed:3 in
  Alcotest.(check bool) "both complete" true
    (Tcp.completed conn1 && Tcp.completed conn2);
  Alcotest.(check bool)
    (Printf.sprintf "acks %d < 0.7 x %d" acks2 acks1)
    true
    (float_of_int acks2 < 0.7 *. float_of_int acks1)

let test_delayed_ack_still_completes_under_loss () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:4 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:2e6 ~buffer_pkts:15
      ~discipline:Queue.Droptail ()
  in
  let fwd = Pipe.create ~sim ~delay:0.04 and rv = Pipe.create ~sim ~delay:0.04 in
  let conn =
    Tcp.create ~sim ~cc:(Reno.create ()) ~delayed_ack:true
      ~paths:
        [| { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |]; rev = [| Pipe.hop rv |] } |]
      ~size_pkts:600 ~flow_id:0 ()
  in
  Sim.run_until sim 120.;
  Alcotest.(check bool) "completed" true (Tcp.completed conn);
  Alcotest.(check int) "exact delivery" 600 (Tcp.total_acked conn)

(* --- subflow enable/disable and the path manager ----------------------------- *)

let two_queue_conn ~sim ~rng ~cc ~rate2 =
  let mk rate =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate ~buffer_pkts:300
      ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:(rate /. 1e6))) ()
  in
  let q1 = mk 10e6 and q2 = mk rate2 in
  let fwd = Pipe.create ~sim ~delay:0.04 and rv = Pipe.create ~sim ~delay:0.04 in
  let rev = [| Pipe.hop rv |] in
  let conn =
    Tcp.create ~sim ~cc
      ~paths:
        [|
          { Tcp.fwd = [| Queue.hop q1; Pipe.hop fwd |]; rev };
          { Tcp.fwd = [| Queue.hop q2; Pipe.hop fwd |]; rev };
        |]
      ~flow_id:0 ()
  in
  (conn, q1, q2)

let test_disable_stops_new_data () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:8 in
  let conn, _, _ = two_queue_conn ~sim ~rng ~cc:(Olia.create ()) ~rate2:10e6 in
  Sim.run_until sim 10.;
  Tcp.set_subflow_enabled conn 1 false;
  Alcotest.(check bool) "reported disabled" false (Tcp.subflow_enabled conn 1);
  let acked_at_disable = Tcp.subflow_acked conn 1 in
  Sim.run_until sim 30.;
  (* the flight drains but nothing new goes out: only a few more packets *)
  Alcotest.(check bool) "path quiesced" true
    (Tcp.subflow_acked conn 1 - acked_at_disable < 50);
  Tcp.set_subflow_enabled conn 1 true;
  Sim.run_until sim 50.;
  Alcotest.(check bool) "path resumed" true
    (Tcp.subflow_acked conn 1 - acked_at_disable > 100)

let congest_queue ~sim ~rng q n =
  let fwd = Pipe.create ~sim ~delay:0.04 and rv = Pipe.create ~sim ~delay:0.04 in
  List.init n (fun i ->
      Tcp.create ~sim ~cc:(Reno.create ())
        ~paths:
          [| { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |]; rev = [| Pipe.hop rv |] } |]
        ~start:(Rng.uniform rng 1.) ~flow_id:(1000 + i) ())

let test_path_manager_discards_bad_path () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:9 in
  (* second path through a slow queue crowded by six TCP flows *)
  let conn, _, q2 = two_queue_conn ~sim ~rng ~cc:(Olia.create ()) ~rate2:1e6 in
  let _ = congest_queue ~sim ~rng q2 6 in
  (* attach after the start-up transients have settled *)
  let pm = ref None in
  Sim.schedule_at sim 20. (fun () ->
      pm :=
        Some
          (Path_manager.attach ~sim
             ~policy:{ Path_manager.default_policy with reprobe_period = 1e6 }
             conn));
  Sim.run_until sim 120.;
  let pm = Option.get !pm in
  Alcotest.(check bool) "bad path discarded" true (Path_manager.discards pm >= 1);
  Alcotest.(check bool) "path 1 disabled" false (Tcp.subflow_enabled conn 1);
  Alcotest.(check bool) "good path kept" true (Tcp.subflow_enabled conn 0)

let test_path_manager_reprobes () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:10 in
  let conn, _, q2 = two_queue_conn ~sim ~rng ~cc:(Olia.create ()) ~rate2:1e6 in
  let _ = congest_queue ~sim ~rng q2 6 in
  let pm =
    Path_manager.attach ~sim
      ~policy:{ Path_manager.default_policy with reprobe_period = 10. }
      conn
  in
  Sim.run_until sim 120.;
  Alcotest.(check bool) "reprobed at least once" true
    (Path_manager.reprobes pm >= 1)

let test_path_manager_keeps_min_active () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  (* both paths horrid: the manager must never disable the last one *)
  let mk rate =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate ~buffer_pkts:20
      ~discipline:Queue.Droptail ()
  in
  let q1 = mk 2e5 and q2 = mk 2e5 in
  let fwd = Pipe.create ~sim ~delay:0.04 and rv = Pipe.create ~sim ~delay:0.04 in
  let rev = [| Pipe.hop rv |] in
  let conn =
    Tcp.create ~sim ~cc:(Olia.create ())
      ~paths:
        [|
          { Tcp.fwd = [| Queue.hop q1; Pipe.hop fwd |]; rev };
          { Tcp.fwd = [| Queue.hop q2; Pipe.hop fwd |]; rev };
        |]
      ~flow_id:0 ()
  in
  let _ = Path_manager.attach ~sim ~policy:Path_manager.default_policy conn in
  Sim.run_until sim 60.;
  Alcotest.(check bool) "at least one active" true
    (Tcp.subflow_enabled conn 0 || Tcp.subflow_enabled conn 1)

let suite =
  [
    Alcotest.test_case "scalable: constant per-ACK increase" `Quick
      test_scalable_constant_increase;
    Alcotest.test_case "scalable: 1/8 decrease" `Quick test_scalable_decrease;
    Alcotest.test_case "scalable: custom params" `Quick
      test_scalable_custom_params;
    Alcotest.test_case "scalable: rejects bad params" `Quick
      test_scalable_rejects_bad_params;
    Alcotest.test_case "scalable: rtt-independent recovery" `Quick
      test_scalable_rate_rtt_independent;
    Alcotest.test_case "cubic: reno before first loss" `Quick
      test_cubic_reno_before_first_loss;
    Alcotest.test_case "cubic: beta decrease" `Quick test_cubic_decrease_is_beta;
    Alcotest.test_case "cubic: concave recovery" `Quick
      test_cubic_concave_recovery_toward_wmax;
    Alcotest.test_case "cubic: rejects bad params" `Quick
      test_cubic_rejects_bad_params;
    Alcotest.test_case "registry: cubic and scalable" `Quick
      test_cubic_and_scalable_in_registry;
    Alcotest.test_case "cubic: saturates a link" `Slow test_cubic_saturates_link;
    Alcotest.test_case "lia ode: lands on Eq. 2" `Slow
      test_lia_ode_reaches_eq2_fixed_point;
    Alcotest.test_case "lia ode: keeps congested path (vs OLIA)" `Slow
      test_lia_ode_keeps_congested_path;
    Alcotest.test_case "lia ode: derivative ~0 at fixed point" `Slow
      test_lia_ode_derivative_zero_at_fixed_point;
    Alcotest.test_case "cbr: rate and count" `Quick test_cbr_rate;
    Alcotest.test_case "cbr: start/stop window" `Quick test_cbr_start_stop;
    Alcotest.test_case "cbr: displaces TCP" `Slow
      test_cbr_steals_capacity_from_tcp;
    Alcotest.test_case "delack: halves ACK volume" `Slow
      test_delayed_ack_halves_ack_count;
    Alcotest.test_case "delack: completes under loss" `Slow
      test_delayed_ack_still_completes_under_loss;
    Alcotest.test_case "paths: disable stops new data" `Slow
      test_disable_stops_new_data;
    Alcotest.test_case "path manager: discards bad path" `Slow
      test_path_manager_discards_bad_path;
    Alcotest.test_case "path manager: re-probes" `Slow test_path_manager_reprobes;
    Alcotest.test_case "path manager: keeps one active" `Slow
      test_path_manager_keeps_min_active;
  ]

(* --- lossy links and the wireless scenario ----------------------------- *)

let test_lossy_drop_rate () =
  let rng = Rng.create ~seed:40 in
  let lossy = Lossy.create ~rng ~loss_prob:0.2 () in
  let forwarded = ref 0 in
  let route = [| Lossy.hop lossy; (fun _ -> incr forwarded) |] in
  for i = 0 to 9999 do
    Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route)
  done;
  Alcotest.(check int) "conservation" 10000
    (Lossy.dropped lossy + Lossy.passed lossy);
  Alcotest.(check int) "forwarded = passed" (Lossy.passed lossy) !forwarded;
  let rate = float_of_int (Lossy.dropped lossy) /. 10000. in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.2" rate) true
    (rate > 0.17 && rate < 0.23)

let test_lossy_spares_acks () =
  let rng = Rng.create ~seed:41 in
  let lossy = Lossy.create ~rng ~loss_prob:0.9 () in
  let forwarded = ref 0 in
  let route = [| Lossy.hop lossy; (fun _ -> incr forwarded) |] in
  for _ = 1 to 100 do
    Packet.forward
      (Packet.ack ~flow:0 ~subflow:0 ~ackno:0 ~echo:0. ~sack:None ~route
         ~sent_at:0.)
  done;
  Alcotest.(check int) "all acks pass" 100 !forwarded

let test_lossy_rejects_bad_prob () =
  let rng = Rng.create ~seed:42 in
  Alcotest.check_raises "p=1"
    (Invalid_argument "Lossy.create: loss_prob must be in [0, 1)") (fun () ->
      ignore (Lossy.create ~rng ~loss_prob:1. ()))

let test_wireless_multipath_beats_lossy_tcp () =
  let module W = Mptcp_repro.Scenarios.Wireless in
  let cfg = { W.default with duration = 60.; warmup = 15. } in
  let tcp = W.run { cfg with algo = "reno" } in
  let olia = W.run { cfg with algo = "olia" } in
  Alcotest.(check bool)
    (Printf.sprintf "OLIA %.1f > TCP-on-WiFi %.1f" olia.total_mbps
       tcp.total_mbps)
    true
    (olia.total_mbps > tcp.total_mbps);
  (* the clean cellular path carries the bulk for OLIA *)
  Alcotest.(check bool) "cellular saturated" true (olia.cell_mbps > 6.)

let test_wireless_olia_at_least_matches_lia () =
  (* reference [12]'s qualitative finding, within simulation noise *)
  let module W = Mptcp_repro.Scenarios.Wireless in
  let cfg = { W.default with duration = 90.; warmup = 20. } in
  let lia = W.run { cfg with algo = "lia" } in
  let olia = W.run { cfg with algo = "olia" } in
  Alcotest.(check bool)
    (Printf.sprintf "OLIA %.1f vs LIA %.1f" olia.total_mbps lia.total_mbps)
    true
    (olia.total_mbps > 0.85 *. lia.total_mbps)

let suite =
  suite
  @ [
      Alcotest.test_case "lossy: drop rate" `Quick test_lossy_drop_rate;
      Alcotest.test_case "lossy: spares acks" `Quick test_lossy_spares_acks;
      Alcotest.test_case "lossy: rejects p=1" `Quick test_lossy_rejects_bad_prob;
      Alcotest.test_case "wireless: MPTCP beats lossy TCP" `Slow
        test_wireless_multipath_beats_lossy_tcp;
      Alcotest.test_case "wireless: OLIA ~ LIA (ref [12])" `Slow
        test_wireless_olia_at_least_matches_lia;
    ]
