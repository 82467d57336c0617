open Repro_netsim

type config = {
  wifi_mbps : float;
  wifi_loss : float;
  wifi_delay_ms : float;
  cell_mbps : float;
  cell_delay_ms : float;
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

let default =
  {
    wifi_mbps = 20.;
    wifi_loss = 0.01;
    wifi_delay_ms = 15.;
    cell_mbps = 8.;
    cell_delay_ms = 40.;
    algo = "olia";
    duration = 90.;
    warmup = 20.;
    seed = 1;
  }

type result = {
  wifi_mbps : float;
  cell_mbps : float;
  total_mbps : float;
  wifi_timeouts : int;
}

let run cfg =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let mk_queue mbps name =
    let rate = mbps *. 1e6 in
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
      ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
      ~discipline:Queue.Droptail ~name ()
  in
  let wifi_q = mk_queue cfg.wifi_mbps "wifi" in
  let cell_q = mk_queue cfg.cell_mbps "cellular" in
  let lossy = Lossy.create ~sim ~name:"wifi-lossy" ~rng:(Rng.split rng) ~loss_prob:cfg.wifi_loss () in
  let pipe delay_ms = Pipe.create ~sim ~delay:(delay_ms /. 1000.) in
  let wifi_fwd = pipe cfg.wifi_delay_ms and wifi_rev = pipe cfg.wifi_delay_ms in
  let cell_fwd = pipe cfg.cell_delay_ms and cell_rev = pipe cfg.cell_delay_ms in
  let wifi_path =
    {
      Tcp.fwd = [| Queue.hop wifi_q; Lossy.hop lossy; Pipe.hop wifi_fwd |];
      rev = [| Pipe.hop wifi_rev |];
    }
  in
  let cell_path =
    {
      Tcp.fwd = [| Queue.hop cell_q; Pipe.hop cell_fwd |];
      rev = [| Pipe.hop cell_rev |];
    }
  in
  let paths =
    if cfg.algo = "reno" then [| wifi_path |] else [| wifi_path; cell_path |]
  in
  let conn =
    Tcp.create ~sim
      ~cc:(Common.factory_of_name cfg.algo ())
      ~paths ~flow_id:0 ()
  in
  let snap = Array.make 2 0 in
  ignore
    (Sim.schedule_at sim cfg.warmup (fun () ->
         Array.iteri
           (fun i _ ->
             if i < Tcp.subflow_count conn then
               snap.(i) <- Tcp.subflow_acked conn i)
           snap)
      : Sim.Timer.t);
  Sim.run_until sim cfg.duration;
  let window = cfg.duration -. cfg.warmup in
  let mbps idx =
    if idx < Tcp.subflow_count conn then
      float_of_int ((Tcp.subflow_acked conn idx - snap.(idx)) * 12000)
      /. window /. 1e6
    else 0.
  in
  let wifi = mbps 0 and cell = mbps 1 in
  {
    wifi_mbps = wifi;
    cell_mbps = cell;
    total_mbps = wifi +. cell;
    wifi_timeouts = Tcp.subflow_timeouts conn 0;
  }
