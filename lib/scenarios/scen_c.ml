open Repro_netsim

type config = {
  n1 : int;
  n2 : int;
  c1_mbps : float;
  c2_mbps : float;
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
  background_mbps : float;
  with_path_manager : bool;
}

let default =
  {
    n1 = 10;
    n2 = 10;
    c1_mbps = 1.;
    c2_mbps = 1.;
    algo = "olia";
    duration = 120.;
    warmup = 30.;
    seed = 1;
    background_mbps = 0.;
    with_path_manager = false;
  }

type result = {
  norm_multipath : float;
  norm_single : float;
  p1 : float;
  p2 : float;
  obs : Repro_obs.Meter.report;
}

let run cfg =
  let meter = Repro_obs.Meter.start () in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate1 = float_of_int cfg.n1 *. cfg.c1_mbps *. 1e6 in
  let rate2 = float_of_int cfg.n2 *. cfg.c2_mbps *. 1e6 in
  let mk_queue rate name =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
      ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
      ~discipline:(Common.red_for ~rate_bps:rate) ~name ()
  in
  let ap1 = mk_queue rate1 "AP1" and ap2 = mk_queue rate2 "AP2" in
  let one_way = Common.paper_propagation_delay /. 2. in
  let fwd_pipe = Pipe.create ~sim ~delay:one_way in
  let rev_pipe = Pipe.create ~sim ~delay:one_way in
  let rev = [| Pipe.hop rev_pipe |] in
  let factory = Common.factory_of_name cfg.algo in
  let multipath =
    List.init cfg.n1 (fun i ->
        let paths =
          [|
            { Tcp.fwd = [| Queue.hop ap1; Pipe.hop fwd_pipe |]; rev };
            { Tcp.fwd = [| Queue.hop ap2; Pipe.hop fwd_pipe |]; rev };
          |]
        in
        let conn =
          Tcp.create ~sim ~cc:(factory ()) ~paths ~start:(Rng.uniform rng 2.)
            ~flow_id:i ()
        in
        if cfg.with_path_manager then
          ignore
            (Path_manager.attach ~sim ~policy:Path_manager.default_policy conn);
        conn)
  in
  if cfg.background_mbps > 0. then
    ignore
      (Cbr.create ~sim ~rate_bps:(cfg.background_mbps *. 1e6)
         ~route:[| Queue.hop ap2; Cbr.blackhole |]
         ~flow_id:(-1) ());
  let single =
    List.init cfg.n2 (fun i ->
        let paths =
          [| { Tcp.fwd = [| Queue.hop ap2; Pipe.hop fwd_pipe |]; rev } |]
        in
        Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths
          ~start:(Rng.uniform rng 2.) ~flow_id:(cfg.n1 + i) ())
  in
  ignore
    (Sim.schedule_at sim cfg.warmup (fun () ->
         Queue.reset_stats ap1;
         Queue.reset_stats ap2)
      : Sim.Timer.t);
  let measured =
    Common.measure_conns ~sim ~warmup:cfg.warmup ~duration:cfg.duration
      (multipath @ single)
  in
  let rates = List.map (fun m -> m.Common.goodput_mbps) measured in
  let rm, rs = Common.split_at cfg.n1 rates in
  let mm, ms = Common.split_at cfg.n1 measured in
  {
    norm_multipath = Common.mean rm /. cfg.c1_mbps;
    norm_single = Common.mean rs /. cfg.c2_mbps;
    p1 = Queue.loss_probability ap1;
    p2 = Queue.loss_probability ap2;
    obs =
      Common.observe ~meter ~sim
        ~subflow_goodput_bps:
          (Common.subflow_goodput_bps ~label:"multipath" ~subflows:2 mm
          @ Common.subflow_goodput_bps ~label:"single" ~subflows:1 ms)
        [ ap1; ap2 ];
  }

let replicate cfg ~seeds = List.map (fun seed -> run { cfg with seed }) seeds
