open Repro_netsim
module Ftp = Repro_topology.Fattree_pods
module Workload = Repro_workload.Workload

type config = {
  k : int;
  rate_mbps : float;
  delay_ms : float;
  oversubscription : float;
  algo : string;
  subflows : int;
  mean_interval : float;
  duration : float;
  warmup : float;
  seed : int;
}

let default =
  {
    k = 8;
    rate_mbps = 100.;
    delay_ms = 1.;
    oversubscription = 4.;
    algo = "olia";
    subflows = 8;
    mean_interval = 0.2;
    duration = 30.;
    warmup = 5.;
    seed = 1;
  }

type result = {
  completion_times_ms : float array;
  mean_completion_ms : float;
  stdev_completion_ms : float;
  core_utilization_pct : float;
  long_flow_mbps : float;
  unfinished_shorts : int;
}

let run cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.rate_mbps *. 1e6 in
  let tree =
    Ftp.create ~shards:1 ~rng:(Rng.split rng) ~k:cfg.k ~rate_bps:rate
      ~delay:(cfg.delay_ms /. 1000.)
      ~buffer_pkts:100 ~discipline:Queue.Droptail
      ~oversubscription:cfg.oversubscription ()
  in
  let sim = Shard.sim (Ftp.group tree) 0 in
  let hosts = Ftp.host_count tree in
  let wl_rng = Rng.split rng in
  let dest = Rng.derangement_permutation wl_rng hosts in
  (* every third host runs a continuous flow; the rest send shorts *)
  let is_long src = src mod 3 = 0 in
  let factory =
    if cfg.subflows <= 1 || cfg.algo = "reno" then fun () ->
      Repro_cc.Reno.create ()
    else Common.factory_of_name cfg.algo
  in
  let long_conns = ref [] in
  let completions = ref [] in
  let started_shorts = ref 0 and finished_shorts = ref 0 in
  for src = 0 to hosts - 1 do
    if is_long src then begin
      let n = if cfg.algo = "reno" then 1 else cfg.subflows in
      let paths = Ftp.sample_paths tree ~rng ~src ~dst:dest.(src) ~n in
      let conn =
        Tcp.create ~sim ~cc:(factory ()) ~paths
          ~start:(Rng.uniform wl_rng 1.) ~flow_id:src ()
      in
      long_conns := conn :: !long_conns
    end
    else begin
      let shorts =
        Workload.poisson_short_flows ~rng:wl_rng ~src ~dst:dest.(src)
          ~mean_interval:cfg.mean_interval ~size_pkts:Workload.short_flow_pkts
          ~duration:cfg.duration
      in
      List.iter
        (fun { Workload.start; size_pkts; src; dst } ->
          incr started_shorts;
          let paths = Ftp.sample_paths tree ~rng ~src ~dst ~n:1 in
          let on_complete t_end =
            incr finished_shorts;
            if start >= cfg.warmup then
              completions := ((t_end -. start) *. 1000.) :: !completions
          in
          ignore
            (Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths ?size_pkts
               ~start ~on_complete ~flow_id:src ()
              : Tcp.conn))
        shorts
    end
  done;
  let core = Ftp.core_queues tree in
  ignore
    (Sim.schedule_at sim cfg.warmup (fun () -> List.iter Queue.reset_stats core)
      : Sim.Timer.t);
  let measured =
    Common.measure_conns ~sim ~warmup:cfg.warmup ~duration:cfg.duration
      !long_conns
  in
  let completion_times_ms = Array.of_list !completions in
  let summary = Repro_stats.Summary.of_array completion_times_ms in
  let utils =
    List.map
      (fun q -> Queue.utilization q ~since:cfg.warmup ~now:cfg.duration)
      core
  in
  {
    completion_times_ms;
    mean_completion_ms = Repro_stats.Summary.mean summary;
    stdev_completion_ms = Repro_stats.Summary.stdev summary;
    core_utilization_pct = 100. *. Common.mean utils;
    long_flow_mbps =
      Common.mean (List.map (fun m -> m.Common.goodput_mbps) measured);
    unfinished_shorts = !started_shorts - !finished_shorts;
  }
