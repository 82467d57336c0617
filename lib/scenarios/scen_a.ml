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
  }

type result = {
  norm_type1 : float;
  norm_type2 : float;
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
  let q1 = mk_queue rate1 "server" and q2 = mk_queue rate2 "sharedAP" in
  let one_way = Common.paper_propagation_delay /. 2. in
  let fwd_pipe = Pipe.create ~sim ~delay:one_way in
  let rev_pipe = Pipe.create ~sim ~delay:one_way in
  let rev = [| Pipe.hop rev_pipe |] in
  let factory = Common.factory_of_name cfg.algo in
  let starts = ref [] in
  let next_start () =
    let s = Rng.uniform rng 2. in
    starts := s :: !starts;
    s
  in
  let type1 =
    List.init cfg.n1 (fun i ->
        let paths =
          [|
            { Tcp.fwd = [| Queue.hop q1; Pipe.hop fwd_pipe |]; rev };
            {
              Tcp.fwd = [| Queue.hop q1; Queue.hop q2; Pipe.hop fwd_pipe |];
              rev;
            };
          |]
        in
        Tcp.create ~sim ~cc:(factory ()) ~paths ~start:(next_start ())
          ~flow_id:i ())
  in
  let type2 =
    List.init cfg.n2 (fun i ->
        let paths =
          [| { Tcp.fwd = [| Queue.hop q2; Pipe.hop fwd_pipe |]; rev } |]
        in
        Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths
          ~start:(next_start ()) ~flow_id:(cfg.n1 + i) ())
  in
  ignore
    (Sim.schedule_at sim cfg.warmup (fun () ->
         Queue.reset_stats q1;
         Queue.reset_stats q2)
      : Sim.Timer.t);
  let measured =
    Common.measure_conns ~sim ~warmup:cfg.warmup ~duration:cfg.duration
      (type1 @ type2)
  in
  let rates = List.map (fun m -> m.Common.goodput_mbps) measured in
  let r1, r2 = Common.split_at cfg.n1 rates in
  let m1, m2 = Common.split_at cfg.n1 measured in
  {
    norm_type1 = Common.mean r1 /. cfg.c1_mbps;
    norm_type2 = Common.mean r2 /. cfg.c2_mbps;
    p1 = Queue.loss_probability q1;
    p2 = Queue.loss_probability q2;
    obs =
      Common.observe ~meter ~sim
        ~subflow_goodput_bps:
          (Common.subflow_goodput_bps ~label:"type1" ~subflows:2 m1
          @ Common.subflow_goodput_bps ~label:"type2" ~subflows:1 m2)
        [ q1; q2 ];
  }

let replicate cfg ~seeds = List.map (fun seed -> run { cfg with seed }) seeds
