open Repro_netsim
module Ftp = Repro_topology.Fattree_pods

type config = {
  k : int;
  shards : int;
  rate_mbps : float;
  delay_ms : float;
  subflows : int;
  flows_per_host : int;
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

let default =
  {
    k = 8;
    shards = 1;
    rate_mbps = 10.;
    delay_ms = 1.;
    subflows = 2;
    flows_per_host = 8;
    algo = "olia";
    duration = 5.;
    warmup = 1.;
    seed = 1;
  }

type result = {
  flow_mbps : float array;
  aggregate_mbps : float;
  aggregate_pct_optimal : float;
  mean_flow_mbps : float;
  p10_flow_mbps : float;
  p50_flow_mbps : float;
  p90_flow_mbps : float;
  ranked_pct : float array;
  mean_core_loss : float;
  cut_messages : int;
  obs : Repro_obs.Meter.report;
  shard_obs : Repro_obs.Meter.shard_counters list;
      (* per-shard loop counters; their deterministic merge is exactly
         what [obs] carries as events/max-depth *)
}

(* [rounds] independent random permutations (no fixed point), expanded
   in explicit order so the RNG stream never depends on library
   evaluation order. *)
let rec permutation_rounds ~rng ~hosts ~rounds acc =
  if rounds = 0 then List.concat (List.rev acc)
  else
    let round =
      Repro_workload.Workload.permutation_long_flows ~rng:(Rng.split rng)
        ~hosts ~max_jitter:1.
    in
    permutation_rounds ~rng ~hosts ~rounds:(rounds - 1) (round :: acc)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int n)))

let run cfg =
  if cfg.flows_per_host < 1 then
    invalid_arg "Fattree_sharded.run: flows_per_host must be >= 1";
  let window = cfg.duration -. cfg.warmup in
  if not (window > 0.) then
    invalid_arg "Fattree_sharded.run: warmup >= duration";
  let meter = Repro_obs.Meter.start () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.rate_mbps *. 1e6 in
  let tree =
    Ftp.create ~shards:cfg.shards ~rng:(Rng.split rng) ~k:cfg.k
      ~rate_bps:rate
      ~delay:(cfg.delay_ms /. 1000.)
      ~buffer_pkts:100 ~discipline:Queue.Droptail ()
  in
  let group = Ftp.group tree in
  let hosts = Ftp.host_count tree in
  let flows =
    permutation_rounds ~rng ~hosts ~rounds:cfg.flows_per_host []
  in
  let factory =
    if cfg.subflows <= 1 then fun () -> Repro_cc.Reno.create ()
    else Common.factory_of_name cfg.algo
  in
  let conns =
    List.mapi
      (fun i { Repro_workload.Workload.start; src; dst; _ } ->
        let paths =
          Ftp.sample_paths tree ~rng ~src ~dst
            ~n:(Stdlib.max 1 cfg.subflows)
        in
        Tcp.create
          ~sim:(Ftp.sim_of_host tree src)
          ~rcv_sim:(Ftp.sim_of_host tree dst)
          ~cc:(factory ()) ~paths ~start ~flow_id:i ())
      flows
  in
  let conns_a = Array.of_list conns in
  let totals = Array.make (Array.length conns_a) 0 in
  (* warm-up bookkeeping runs on each owning shard's own loop: queue
     statistics reset per shard, and each connection's delivered-packet
     snapshot on its sender's simulator (snd_una is sender-side state) *)
  for s = 0 to Shard.shard_count group - 1 do
    let queues = Ftp.shard_queues tree s in
    ignore
      (Sim.schedule_at (Shard.sim group s) cfg.warmup
         (fun () -> List.iter Queue.reset_stats queues)
        : Sim.Timer.t)
  done;
  List.iteri
    (fun i { Repro_workload.Workload.src; _ } ->
      ignore
        (Sim.schedule_at
           (Ftp.sim_of_host tree src)
           cfg.warmup
           (fun () -> totals.(i) <- Tcp.total_acked conns_a.(i))
          : Sim.Timer.t))
    flows;
  Shard.run_windows ~pool:Repro_exp.Sweep.pool group ~horizon:cfg.duration;
  let flow_mbps =
    Array.mapi
      (fun i c ->
        Common.mbps_of_pps
          (float_of_int (Tcp.total_acked c - totals.(i)) /. window))
      conns_a
  in
  let total = Array.fold_left ( +. ) 0. flow_mbps in
  let optimal = float_of_int hosts *. cfg.rate_mbps in
  let sorted = Array.copy flow_mbps in
  Array.sort compare sorted;
  let cut_messages =
    let acc = ref 0 in
    for s = 0 to cfg.shards - 1 do
      for d = 0 to cfg.shards - 1 do
        match Ftp.channel tree ~src:s ~dst:d with
        | Some ch -> acc := !acc + Shard.sent_count ch
        | None -> ()
      done
    done;
    !acc
  in
  let losses = List.map Queue.loss_probability (Ftp.core_queues tree) in
  let all_q = Ftp.all_queues tree in
  let sum f = List.fold_left (fun acc q -> acc + f q) 0 all_q in
  let shard_obs =
    List.init (Shard.shard_count group) (fun s ->
        let sim = Shard.sim group s in
        {
          Repro_obs.Meter.shard = s;
          events_processed = Sim.events_processed sim;
          max_heap_depth = Sim.max_heap_depth sim;
          busy_s = Shard.busy_s group s;
          wait_s = Shard.wait_s group s;
        })
  in
  let events, depth = Repro_obs.Meter.merge_shards shard_obs in
  let obs =
    (* lint: allow R11 -- the meter reports elapsed wall time of the run by design (operator-facing); every simulation metric it carries is seeded *)
    Repro_obs.Meter.finish meter ~sim_s:cfg.duration ~events_processed:events
      ~max_heap_depth:depth
      ~drops_overflow:(sum Queue.drops_overflow)
      ~drops_red:(sum Queue.drops_red) ~drops_random:0
      ~subflow_goodput_bps:[]
  in
  {
    flow_mbps;
    aggregate_mbps = total;
    aggregate_pct_optimal = 100. *. total /. optimal;
    mean_flow_mbps = total /. float_of_int (Array.length flow_mbps);
    p10_flow_mbps = percentile sorted 0.10;
    p50_flow_mbps = percentile sorted 0.50;
    p90_flow_mbps = percentile sorted 0.90;
    ranked_pct = Array.map (fun m -> 100. *. m /. cfg.rate_mbps) sorted;
    mean_core_loss = Common.mean losses;
    cut_messages;
    obs;
    shard_obs;
  }

(* Every field but [cut_messages] (0 at one shard by construction) and
   [obs]/[shard_obs] (wall clocks, and one warm-up timer per shard in
   the raw event count), in declaration order. *)
let compared_fields r =
  [
    ("flow_mbps", r.flow_mbps);
    ("aggregate_mbps", [| r.aggregate_mbps |]);
    ("aggregate_pct_optimal", [| r.aggregate_pct_optimal |]);
    ("mean_flow_mbps", [| r.mean_flow_mbps |]);
    ("p10_flow_mbps", [| r.p10_flow_mbps |]);
    ("p50_flow_mbps", [| r.p50_flow_mbps |]);
    ("p90_flow_mbps", [| r.p90_flow_mbps |]);
    ("ranked_pct", r.ranked_pct);
    ("mean_core_loss", [| r.mean_core_loss |]);
  ]

let same_bits x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x y

let first_difference a b =
  List.find_map
    (fun ((name, x), (_, y)) -> if same_bits x y then None else Some name)
    (List.combine (compared_fields a) (compared_fields b))
