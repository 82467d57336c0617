open Repro_netsim

type config = {
  n_tcp1 : int;
  n_tcp2 : int;
  c_mbps : float;
  delay1_ms : float;
  delay2_ms : float;
  algo : string;
  duration : float;
  sample_period : float;
  seed : int;
}

let symmetric =
  {
    n_tcp1 = 5;
    n_tcp2 = 5;
    c_mbps = 10.;
    delay1_ms = 40.;
    delay2_ms = 40.;
    algo = "olia";
    duration = 120.;
    sample_period = 0.1;
    seed = 1;
  }

let asymmetric = { symmetric with n_tcp2 = 10 }

type traces = {
  w1 : Repro_stats.Timeseries.t;
  w2 : Repro_stats.Timeseries.t;
  alpha1 : Repro_stats.Timeseries.t;
  alpha2 : Repro_stats.Timeseries.t;
  goodput1_mbps : float;
  goodput2_mbps : float;
  flip_count : int;
}

let run cfg =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.c_mbps *. 1e6 in
  let mk name =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
      ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
      ~discipline:(Common.red_for ~rate_bps:rate) ~name ()
  in
  let q1 = mk "bottleneck1" and q2 = mk "bottleneck2" in
  let pipes delay_ms =
    let one_way = delay_ms /. 1000. in
    (Pipe.create ~sim ~delay:one_way, Pipe.create ~sim ~delay:one_way)
  in
  let fwd1, rev1 = pipes cfg.delay1_ms in
  let fwd2, rev2 = pipes cfg.delay2_ms in
  let path1 =
    { Tcp.fwd = [| Queue.hop q1; Pipe.hop fwd1 |]; rev = [| Pipe.hop rev1 |] }
  in
  let path2 =
    { Tcp.fwd = [| Queue.hop q2; Pipe.hop fwd2 |]; rev = [| Pipe.hop rev2 |] }
  in
  (* The multipath user, instrumented when the algorithm is OLIA. *)
  let cc, probe =
    if cfg.algo = "olia" then
      let cc, probe = Repro_cc.Olia.create_instrumented () in
      (cc, fun () -> (probe 2).Repro_cc.Olia.alpha)
    else (Common.factory_of_name cfg.algo (), fun () -> [| 0.; 0. |])
  in
  let mp =
    Tcp.create ~sim ~cc ~paths:[| path1; path2 |] ~start:(Rng.uniform rng 1.)
      ~flow_id:0 ()
  in
  let tcp_on path base n =
    List.init n (fun i ->
        Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths:[| path |]
          ~start:(Rng.uniform rng 2.) ~flow_id:(base + i) ())
  in
  let _ = tcp_on path1 1 cfg.n_tcp1 and _ = tcp_on path2 100 cfg.n_tcp2 in
  let w1 = Repro_stats.Timeseries.create () in
  let w2 = Repro_stats.Timeseries.create () in
  let alpha1 = Repro_stats.Timeseries.create () in
  let alpha2 = Repro_stats.Timeseries.create () in
  let flips = ref 0 and order = ref 0 in
  let sample_timer = ref Sim.Timer.none in
  let sample () =
    let t = Sim.now sim in
    let cw1 = Tcp.subflow_cwnd mp 0 and cw2 = Tcp.subflow_cwnd mp 1 in
    Repro_stats.Timeseries.add w1 ~time:t cw1;
    Repro_stats.Timeseries.add w2 ~time:t cw2;
    let a = probe () in
    Repro_stats.Timeseries.add alpha1 ~time:t a.(0);
    Repro_stats.Timeseries.add alpha2 ~time:t a.(1);
    (* flappiness: count strict dominance reversals with a 2-packet margin *)
    let new_order =
      if cw1 > cw2 +. 2. then 1 else if cw2 > cw1 +. 2. then -1 else !order
    in
    if new_order <> !order && !order <> 0 then incr flips;
    order := new_order;
    if not (t +. cfg.sample_period <= cfg.duration) then
      Sim.Timer.cancel sim !sample_timer
  in
  sample_timer := Sim.every ~start:0. sim cfg.sample_period sample;
  let acked1 = ref 0 and acked2 = ref 0 in
  let warmup = cfg.duration /. 6. in
  ignore
    (Sim.schedule_at sim warmup (fun () ->
         acked1 := Tcp.subflow_acked mp 0;
         acked2 := Tcp.subflow_acked mp 1)
      : Sim.Timer.t);
  Sim.run_until sim cfg.duration;
  let window = cfg.duration -. warmup in
  let mbps acked snap =
    float_of_int (acked - snap) *. 12000. /. window /. 1e6
  in
  {
    w1;
    w2;
    alpha1;
    alpha2;
    goodput1_mbps = mbps (Tcp.subflow_acked mp 0) !acked1;
    goodput2_mbps = mbps (Tcp.subflow_acked mp 1) !acked2;
    flip_count = !flips;
  }
