open Repro_netsim

type config = {
  c_mbps : float;
  n_shock : int;
  shock_at : float;
  relief_at : float;
  duration : float;
  algo : string;
  seed : int;
}

let default =
  {
    c_mbps = 10.;
    n_shock = 8;
    shock_at = 60.;
    relief_at = 120.;
    duration = 180.;
    algo = "olia";
    seed = 1;
  }

type result = {
  pre_shock_share : float;
  shock_response_s : float;
  relief_response_s : float;
  post_relief_share : float;
}

let run cfg =
  if not (0. < cfg.shock_at && cfg.shock_at < cfg.relief_at
          && cfg.relief_at < cfg.duration) then
    invalid_arg "Responsiveness.run: need 0 < shock < relief < duration";
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.c_mbps *. 1e6 in
  let mk name =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
      ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
      ~discipline:(Common.red_for ~rate_bps:rate) ~name ()
  in
  let q1 = mk "path1" and q2 = mk "path2" in
  let one_way = Common.paper_propagation_delay /. 2. in
  let fwd_pipe = Pipe.create ~sim ~delay:one_way in
  let rev_pipe = Pipe.create ~sim ~delay:one_way in
  let rev = [| Pipe.hop rev_pipe |] in
  let path q = { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd_pipe |]; rev } in
  let mp =
    Tcp.create ~sim
      ~cc:(Common.factory_of_name cfg.algo ())
      ~paths:[| path q1; path q2 |]
      ~flow_id:0 ()
  in
  (* a permanent TCP companion on each path keeps both links busy *)
  let mk_tcp q start flow_id size =
    Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths:[| path q |] ~start
      ?size_pkts:size ~flow_id ()
  in
  let _ = mk_tcp q1 0.2 1 None and _ = mk_tcp q2 0.4 2 None in
  (* the shock: n TCP flows hammer path 2 between shock_at and relief_at;
     they are finite but large enough to outlast the window, and are
     silenced at relief by disabling their subflow *)
  let shock_flows =
    List.init cfg.n_shock (fun i ->
        mk_tcp q2
          (cfg.shock_at +. (0.1 *. float_of_int i))
          (100 + i) None)
  in
  ignore
    (Sim.schedule_at sim cfg.relief_at (fun () ->
         List.iter (fun c -> Tcp.set_subflow_enabled c 0 false) shock_flows)
      : Sim.Timer.t);
  (* sample the multipath user's path-2 window share *)
  let share_ts = Repro_stats.Timeseries.create () in
  let sample_timer = ref Sim.Timer.none in
  let sample () =
    let w1 = Tcp.subflow_cwnd mp 0 and w2 = Tcp.subflow_cwnd mp 1 in
    Repro_stats.Timeseries.add share_ts ~time:(Sim.now sim)
      (w2 /. Stdlib.max (w1 +. w2) 1e-9);
    if not (Sim.now sim +. 0.2 < cfg.duration) then
      Sim.Timer.cancel sim !sample_timer
  in
  sample_timer := Sim.every ~start:1. sim 0.2 sample;
  (* goodput share probes *)
  let acked2_at = ref [] in
  List.iter
    (fun t ->
      ignore
        (Sim.schedule_at sim t (fun () ->
             acked2_at :=
               (t, Tcp.subflow_acked mp 1, Tcp.total_acked mp) :: !acked2_at)
          : Sim.Timer.t))
    [ cfg.shock_at /. 2.; cfg.shock_at; cfg.relief_at; cfg.duration -. 0.1 ];
  Sim.run_until sim cfg.duration;
  let share_between t0 t1 =
    Repro_stats.Timeseries.mean_over share_ts ~from:t0 ~until:t1
  in
  let pre = share_between (cfg.shock_at /. 2.) cfg.shock_at in
  (* first crossing of a threshold after a reference time *)
  let first_crossing ~after ~below threshold =
    let hit = ref nan in
    Repro_stats.Timeseries.fold share_ts ~init:() ~f:(fun () t v ->
        if Float.is_nan !hit && t >= after then
          if (below && v < threshold) || ((not below) && v > threshold) then
            hit := t -. after);
    !hit
  in
  let goodput_share t0 t1 =
    let find t =
      List.find_opt (fun (x, _, _) -> abs_float (x -. t) < 1e-6) !acked2_at
    in
    match (find t0, find t1) with
    | Some (_, a2, tot), Some (_, b2, tot') when tot' > tot ->
      float_of_int (b2 - a2) /. float_of_int (tot' - tot)
    | _ -> nan
  in
  {
    pre_shock_share = pre;
    shock_response_s = first_crossing ~after:cfg.shock_at ~below:true (pre /. 2.);
    relief_response_s =
      first_crossing ~after:cfg.relief_at ~below:false (pre /. 2.);
    post_relief_share = goodput_share cfg.relief_at (cfg.duration -. 0.1);
  }
