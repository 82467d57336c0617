open Repro_netsim
module SC = Repro_scenarios.Common

(* Fault-recovery conformance scenarios. Each builds a small topology
   around a [Fault] gate, measures goodput over windows placed before,
   during and after the injected episode, and returns a flat metric
   list for the generic band checker. Everything is driven by the
   seeded Rng and the simulator clock, so a fixed seed gives a
   byte-identical metric list on every run. *)

let capacity_mbps = 8.
let one_way = SC.paper_propagation_delay /. 2.

let sample_total ~sim conn t =
  let r = ref 0 in
  ignore
    (Sim.schedule_at sim t (fun () -> r := Tcp.total_acked conn)
      : Sim.Timer.t);
  r

let sample_subflow ~sim conn s t =
  let r = ref 0 in
  ignore
    (Sim.schedule_at sim t (fun () -> r := Tcp.subflow_acked conn s)
      : Sim.Timer.t);
  r

let window_mbps a b ~t0 ~t1 =
  SC.mbps_of_pps (float_of_int (!b - !a) /. (t1 -. t0))

let mk_queue ~sim ~rng name =
  let rate_bps = capacity_mbps *. 1e6 in
  Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps
    ~buffer_pkts:(SC.bottleneck_buffer ~rate_bps) ~discipline:Queue.Droptail
    ~name ()

(* --- link flap --------------------------------------------------------- *)

(* One OLIA connection over two disjoint 8 Mb/s paths; path 0 goes dark
   over [40 s, 70 s). The outage length is chosen against the RTO
   backoff (doubling, capped at 60 s): the retry ladder started at the
   outage probes again around t ≈ 78 s, so the connection re-
   establishes the subflow well before the recovery window. *)
let flap_down_at = 40.
let flap_up_at = 70.

let link_flap ~seed =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let q0 = mk_queue ~sim ~rng "path0" and q1 = mk_queue ~sim ~rng "path1" in
  let pipe () = Pipe.create ~sim ~delay:one_way in
  let fwd0 = pipe () and rev0 = pipe () and fwd1 = pipe () and rev1 = pipe () in
  let gate = Fault.create ~sim ~rng:(Rng.split rng) ~name:"gate0" () in
  let paths =
    [|
      {
        Tcp.fwd = [| Fault.hop gate; Queue.hop q0; Pipe.hop fwd0 |];
        rev = [| Fault.hop gate; Pipe.hop rev0 |];
      };
      { Tcp.fwd = [| Queue.hop q1; Pipe.hop fwd1 |]; rev = [| Pipe.hop rev1 |] };
    |]
  in
  let conn =
    Tcp.create ~sim ~cc:(Repro_cc.Olia.create ()) ~paths ~flow_id:0 ()
  in
  Fault.schedule_flap gate ~down_at:flap_down_at ~up_at:flap_up_at;
  let pre0 = sample_total ~sim conn 10. and pre1 = sample_total ~sim conn 40. in
  let down0 = sample_total ~sim conn 45.
  and down1 = sample_total ~sim conn 68. in
  let sf_down0 = sample_subflow ~sim conn 0 45.
  and sf_down1 = sample_subflow ~sim conn 0 68. in
  let post0 = sample_total ~sim conn 95.
  and post1 = sample_total ~sim conn 120. in
  let sf_post0 = sample_subflow ~sim conn 0 80.
  and sf_post1 = sample_subflow ~sim conn 0 120. in
  Sim.run_until sim 120.;
  [
    ("pre_mbps", window_mbps pre0 pre1 ~t0:10. ~t1:40.);
    ("down_mbps", window_mbps down0 down1 ~t0:45. ~t1:68.);
    ("down_subflow0_mbps", window_mbps sf_down0 sf_down1 ~t0:45. ~t1:68.);
    ("post_mbps", window_mbps post0 post1 ~t0:95. ~t1:120.);
    ("reprobed_pkts", float_of_int (!sf_post1 - !sf_post0));
    ("fault_dropped", float_of_int (Fault.dropped gate));
  ]

let link_flap_bands =
  let both = 2. *. capacity_mbps and one = capacity_mbps in
  [
    Band.within ~id:"fault.flap.pre" ~metric:"pre_mbps"
      ~source:"two saturated 8 Mb/s bottlenecks (fluid: x = C per path)"
      ~expected:both ~lo:(0.85 *. both) ~hi:(1.02 *. both);
    Band.within ~id:"fault.flap.down" ~metric:"down_mbps"
      ~source:"surviving path's fluid prediction: x = C of path 1"
      ~expected:one ~lo:(0.85 *. one) ~hi:(1.02 *. one);
    Band.within ~id:"fault.flap.rerouted" ~metric:"down_subflow0_mbps"
      ~source:"OLIA reroutes: the dead subflow carries nothing"
      ~expected:0. ~lo:0. ~hi:0.05;
    (* After the gate reopens the aggregate must at least hold the
       surviving path's prediction; full re-saturation of path 0 is NOT
       required within the run: repeated RTOs collapsed its ssthresh to
       the floor and OLIA re-probes a recently lossy path only through
       its coupled (w_r/W²-sized) increase — the responsiveness
       trade-off of the paper's §VII. *)
    Band.within ~id:"fault.flap.post" ~metric:"post_mbps"
      ~source:"at least the surviving path's fluid prediction after the flap"
      ~expected:one ~lo:(0.85 *. one) ~hi:(1.02 *. both);
    Band.within ~id:"fault.flap.reprobed" ~metric:"reprobed_pkts"
      ~source:"the flapped subflow must carry traffic again once the link \
               is back"
      ~expected:100. ~lo:10. ~hi:1e7;
    Band.within ~id:"fault.flap.drops" ~metric:"fault_dropped"
      ~source:"the outage must actually swallow traffic"
      ~expected:10. ~lo:1. ~hi:10_000.;
  ]

(* --- burst loss -------------------------------------------------------- *)

(* One Reno connection through a single 8 Mb/s bottleneck; a 30% burst-
   loss episode over [40 s, 50 s) knocks the rate down (fluid:
   p = 0.3 caps TCP at (1/rtt)·sqrt(3/(2·0.3)) ≈ 0.4 Mb/s), and the
   post window checks it climbs back to the capacity. *)
let burst_at = 40.
let burst_until = 50.
let burst_loss_prob = 0.3

let burst_loss ~seed =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let q = mk_queue ~sim ~rng "bottleneck" in
  let fwd = Pipe.create ~sim ~delay:one_way in
  let rev = Pipe.create ~sim ~delay:one_way in
  let gate = Fault.create ~sim ~rng:(Rng.split rng) ~name:"burst" () in
  let paths =
    [|
      {
        Tcp.fwd = [| Fault.hop gate; Queue.hop q; Pipe.hop fwd |];
        rev = [| Pipe.hop rev |];
      };
    |]
  in
  let conn =
    Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths ~flow_id:0 ()
  in
  Fault.schedule_burst gate ~at:burst_at ~until:burst_until
    ~loss_prob:burst_loss_prob;
  let pre0 = sample_total ~sim conn 10. and pre1 = sample_total ~sim conn 40. in
  let in0 = sample_total ~sim conn 40. and in1 = sample_total ~sim conn 50. in
  let post0 = sample_total ~sim conn 60.
  and post1 = sample_total ~sim conn 120. in
  Sim.run_until sim 120.;
  [
    ("pre_mbps", window_mbps pre0 pre1 ~t0:10. ~t1:40.);
    ("burst_mbps", window_mbps in0 in1 ~t0:40. ~t1:50.);
    ("post_mbps", window_mbps post0 post1 ~t0:60. ~t1:120.);
    ("fault_dropped", float_of_int (Fault.dropped gate));
  ]

let burst_loss_bands =
  let c = capacity_mbps in
  [
    Band.within ~id:"fault.burst.pre" ~metric:"pre_mbps"
      ~source:"saturated 8 Mb/s bottleneck (fluid: x = C)" ~expected:c
      ~lo:(0.85 *. c) ~hi:(1.02 *. c);
    Band.within ~id:"fault.burst.during" ~metric:"burst_mbps"
      ~source:"p = 0.3 caps the TCP rate near (1/rtt)·sqrt(3/2p)"
      ~expected:0.4 ~lo:0. ~hi:(0.25 *. c);
    Band.within ~id:"fault.burst.post" ~metric:"post_mbps"
      ~source:"recovery: capacity again once the episode ends" ~expected:c
      ~lo:(0.85 *. c) ~hi:(1.02 *. c);
    Band.within ~id:"fault.burst.drops" ~metric:"fault_dropped"
      ~source:"the episode must actually drop data" ~expected:20. ~lo:1.
      ~hi:10_000.;
  ]

(* --- reordering -------------------------------------------------------- *)

(* A finite Reno transfer through a reordering window: a quarter of the
   packets are held back by 30 ms (several times the serialization
   time), forcing dupACK/SACK handling. Delivery must still be exact —
   the conservation property fault injection must never break. *)
let reorder ~seed =
  let size = 2000 in
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let q = mk_queue ~sim ~rng "bottleneck" in
  let fwd = Pipe.create ~sim ~delay:one_way in
  let rev = Pipe.create ~sim ~delay:one_way in
  let gate = Fault.create ~sim ~rng:(Rng.split rng) ~name:"reorder" () in
  let paths =
    [|
      {
        Tcp.fwd = [| Queue.hop q; Fault.hop gate; Pipe.hop fwd |];
        rev = [| Pipe.hop rev |];
      };
    |]
  in
  let conn =
    Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths ~size_pkts:size
      ~flow_id:0 ()
  in
  Fault.schedule_reorder gate ~at:1. ~until:30. ~prob:0.25 ~extra_delay:0.03;
  Sim.run_until sim 300.;
  [
    ("completed", if Tcp.completed conn then 1. else 0.);
    ("delivered", float_of_int (Tcp.total_acked conn));
    ("reordered", float_of_int (Fault.reordered gate));
  ]

let reorder_bands =
  [
    Band.within ~id:"fault.reorder.completed" ~metric:"completed"
      ~source:"reliable delivery despite reordering" ~expected:1. ~lo:1. ~hi:1.;
    Band.within ~id:"fault.reorder.delivered" ~metric:"delivered"
      ~source:"exactly the transfer size, no duplicates counted"
      ~expected:2000. ~lo:2000. ~hi:2000.;
    Band.within ~id:"fault.reorder.active" ~metric:"reordered"
      ~source:"the window must actually reorder packets" ~expected:100. ~lo:1.
      ~hi:1e6;
  ]
