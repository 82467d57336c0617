open Repro_netsim

type config = {
  n : int;
  cx_mbps : float;
  ct_mbps : float;
  red_multipath : bool;
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

let default =
  {
    n = 15;
    cx_mbps = 27.;
    ct_mbps = 36.;
    red_multipath = true;
    algo = "olia";
    duration = 120.;
    warmup = 30.;
    seed = 1;
  }

type result = {
  blue_rate : float;
  red_rate : float;
  aggregate : float;
  px : float;
  pt : float;
  obs : Repro_obs.Meter.report;
}

let run cfg =
  let meter = Repro_obs.Meter.start () in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate_x = cfg.cx_mbps *. 1e6 and rate_t = cfg.ct_mbps *. 1e6 in
  let mk_queue rate name =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
      ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
      ~discipline:(Common.red_for ~rate_bps:rate) ~name ()
  in
  let qx = mk_queue rate_x "ispX" and qt = mk_queue rate_t "ispT" in
  let one_way = Common.paper_propagation_delay /. 2. in
  let fwd_pipe = Pipe.create ~sim ~delay:one_way in
  let rev_pipe = Pipe.create ~sim ~delay:one_way in
  let rev = [| Pipe.hop rev_pipe |] in
  let factory = Common.factory_of_name cfg.algo in
  let via_x = { Tcp.fwd = [| Queue.hop qx; Pipe.hop fwd_pipe |]; rev } in
  let via_t = { Tcp.fwd = [| Queue.hop qt; Pipe.hop fwd_pipe |]; rev } in
  let via_x_t =
    { Tcp.fwd = [| Queue.hop qx; Queue.hop qt; Pipe.hop fwd_pipe |]; rev }
  in
  let blue =
    List.init cfg.n (fun i ->
        Tcp.create ~sim ~cc:(factory ()) ~paths:[| via_x; via_t |]
          ~start:(Rng.uniform rng 2.) ~flow_id:i ())
  in
  let red =
    List.init cfg.n (fun i ->
        let paths =
          if cfg.red_multipath then [| via_t; via_x_t |] else [| via_t |]
        in
        let cc =
          if cfg.red_multipath then factory () else Repro_cc.Reno.create ()
        in
        Tcp.create ~sim ~cc ~paths ~start:(Rng.uniform rng 2.)
          ~flow_id:(cfg.n + i) ())
  in
  ignore
    (Sim.schedule_at sim cfg.warmup (fun () ->
         Queue.reset_stats qx;
         Queue.reset_stats qt)
      : Sim.Timer.t);
  let measured =
    Common.measure_conns ~sim ~warmup:cfg.warmup ~duration:cfg.duration
      (blue @ red)
  in
  let rates = List.map (fun m -> m.Common.goodput_mbps) measured in
  let rb, rr = Common.split_at cfg.n rates in
  let mb, mr = Common.split_at cfg.n measured in
  {
    blue_rate = Common.mean rb;
    red_rate = Common.mean rr;
    aggregate = List.fold_left ( +. ) 0. rates;
    px = Queue.loss_probability qx;
    pt = Queue.loss_probability qt;
    obs =
      Common.observe ~meter ~sim
        ~subflow_goodput_bps:
          (Common.subflow_goodput_bps ~label:"blue" ~subflows:2 mb
          @ Common.subflow_goodput_bps ~label:"red" ~subflows:2 mr)
        [ qx; qt ];
  }

let replicate cfg ~seeds = List.map (fun seed -> run { cfg with seed }) seeds
