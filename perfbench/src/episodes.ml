(* The three benchmark workloads, rebuilt from the layers' public
   constructors so the benchmark can hand instrumented hops,
   controllers and pools to them. Each workload replays its registry
   scenario's construction step for step (same RNG draws in the same
   order), and the test suite checks that the outcome is bitwise the
   registry's. With [tracers = None] nothing is wrapped: the run is the
   scenario's own. *)

open Repro_netsim
module Ftp = Repro_topology.Fattree_pods
module Workload = Repro_workload.Workload
module Common = Repro_scenarios.Common
module Scen_b = Repro_scenarios.Scen_b
module Fattree_sharded = Repro_scenarios.Fattree_sharded
module Fattree_dynamic = Repro_scenarios.Fattree_dynamic

(* What one simulated episode produced. [digest] covers the
   deterministic outcome (network event count, per-queue drops,
   per-flow delivered packets), which is the same for any shard count
   and with or without tracing. The network event count leaves out the
   measurement's own timers (warm-up resets and snapshots): a sharded
   run arms one queue reset per shard, so its raw event count exceeds
   the 1-shard run's by [shards - 1]. *)
type outcome = {
  digest : string;
  events : int;
  shard_events : int array;
  max_pending : int;
  delivered : int;  (* unique packets delivered, all flows *)
  retransmits : int;
  timeouts : int;
  queue_drops : int;  (* data drops after warm-up *)
  queue_arrivals : int;  (* data arrivals after warm-up *)
  windows : int;  (* lockstep shard windows (0 on one event loop) *)
  paper : (string * float) list;
      (* scalar results, named as the registry scenario names them *)
  arrays : (string * float array) list;
}

type episode = {
  horizon : float;
  shards : int;
  run : unit -> unit;  (* every event loop to the horizon *)
  worker_ns : int array;  (* wall time of each worker of the last [run] *)
  outcome : unit -> outcome;
}

let digest ~events ~queues ~conns =
  let b = Buffer.create 4096 in
  Buffer.add_string b (string_of_int events);
  List.iter
    (fun q ->
      Buffer.add_char b 'q';
      Buffer.add_string b (string_of_int (Queue.drops q)))
    queues;
  List.iter
    (fun c ->
      Buffer.add_char b 'f';
      Buffer.add_string b (string_of_int (Tcp.total_acked c)))
    conns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sum_subflows f conns =
  List.fold_left
    (fun acc c ->
      let s = ref acc in
      for i = 0 to Tcp.subflow_count c - 1 do
        s := !s + f c i
      done;
      !s)
    0 conns

let outcome ~sims ~bookkeeping ~queues ~conns ~windows ~paper ~arrays =
  let shard_events = Array.map Sim.events_processed sims in
  let events = Array.fold_left ( + ) 0 shard_events in
  let sum f = List.fold_left (fun acc q -> acc + f q) 0 queues in
  {
    digest = digest ~events:(events - bookkeeping) ~queues ~conns;
    events;
    shard_events;
    max_pending =
      Array.fold_left (fun m s -> Stdlib.max m (Sim.max_heap_depth s)) 0 sims;
    delivered = List.fold_left (fun acc c -> acc + Tcp.total_acked c) 0 conns;
    retransmits = sum_subflows Tcp.subflow_retransmits conns;
    timeouts = sum_subflows Tcp.subflow_timeouts conns;
    queue_drops = sum Queue.drops;
    queue_arrivals = sum Queue.arrivals;
    windows;
    paper;
    arrays;
  }

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int n)))

let tracer ts = Option.map (fun ts -> ts.(0)) ts

(* The run phase of a single-loop workload is one call; its only
   worker is the calling domain. *)
let timed_single worker_ns f () =
  let t0 = Span.now_ns () in
  f ();
  worker_ns.(0) <- Span.now_ns () - t0

(* --- Scenario B (paper Tables I/II) ---------------------------------- *)

let scen_b ?tracers (cfg : Scen_b.config) =
  let tr = tracer tracers in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate_x = cfg.cx_mbps *. 1e6 and rate_t = cfg.ct_mbps *. 1e6 in
  let qx, qt, fwd_pipe, rev_pipe =
    Span.around tr Span.topology_build (fun () ->
        let mk_queue rate name =
          Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
            ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
            ~discipline:(Common.red_for ~rate_bps:rate) ~name ()
        in
        let qx = mk_queue rate_x "ispX" and qt = mk_queue rate_t "ispT" in
        let one_way = Common.paper_propagation_delay /. 2. in
        let fwd_pipe = Pipe.create ~sim ~delay:one_way in
        let rev_pipe = Pipe.create ~sim ~delay:one_way in
        (qx, qt, fwd_pipe, rev_pipe))
  in
  let rev = [| Pipe.hop rev_pipe |] in
  let factory = Common.factory_of_name cfg.algo in
  (* forward routes are queues then the propagation pipe; the reverse
     route is the pipe alone *)
  let shape n_fwd =
    {
      Probe.fwd_layer =
        (fun i -> if i = n_fwd - 1 then Span.pipe_hop else Span.queue_enqueue);
      rev_layer = (fun _ -> Span.pipe_hop);
      fwd_owner = (fun _ -> 0);
      rev_owner = (fun _ -> 0);
      sender = 0;
      receiver = 0;
    }
  in
  let instrument p = Probe.path tracers (shape (Array.length p.Tcp.fwd)) p in
  let via q =
    instrument { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd_pipe |]; rev }
  in
  let via_x = via qx and via_t = via qt in
  let via_x_t =
    instrument
      { Tcp.fwd = [| Queue.hop qx; Queue.hop qt; Pipe.hop fwd_pipe |]; rev }
  in
  let create ~cc ~paths ~flow_id =
    let start = Rng.uniform rng 2. in
    let cc = Probe.cc tracers ~sender:0 cc in
    Span.around tr Span.tcp_create (fun () ->
        Tcp.create ~sim ~cc ~paths ~start ~flow_id ())
  in
  let blue =
    List.init cfg.n (fun i ->
        create ~cc:(factory ()) ~paths:[| via_x; via_t |] ~flow_id:i)
  in
  let red =
    List.init cfg.n (fun i ->
        let paths =
          if cfg.red_multipath then [| via_t; via_x_t |] else [| via_t |]
        in
        let cc =
          if cfg.red_multipath then factory () else Repro_cc.Reno.create ()
        in
        create ~cc ~paths ~flow_id:(cfg.n + i))
  in
  ignore
    (Sim.schedule_at ~src:"scenario.warmup" sim cfg.warmup (fun () ->
         Queue.reset_stats qx;
         Queue.reset_stats qt)
      : Sim.Timer.t);
  let conns = blue @ red in
  let measured = ref [] in
  let worker_ns = [| 0 |] in
  let run =
    timed_single worker_ns (fun () ->
        measured :=
          Common.measure_conns ~sim ~warmup:cfg.warmup ~duration:cfg.duration
            conns)
  in
  let outcome () =
    let rates = List.map (fun m -> m.Common.goodput_mbps) !measured in
    let rb, rr = Common.split_at cfg.n rates in
    outcome ~sims:[| sim |] ~bookkeeping:2 ~queues:[ qx; qt ] ~conns ~windows:0
      ~paper:
        [
          ("blue_rate", Common.mean rb);
          ("red_rate", Common.mean rr);
          ("aggregate", List.fold_left ( +. ) 0. rates);
          ("px", Queue.loss_probability qx);
          ("pt", Queue.loss_probability qt);
        ]
      ~arrays:[]
  in
  { horizon = cfg.duration; shards = 1; run; worker_ns; outcome }

(* --- FatTree shapes --------------------------------------------------- *)

(* Fattree_pods routes are (queue, propagation) pairs per link. On a
   path between pods the sixth hop is the aggregation-to-core
   propagation stage: a cross-shard channel when the pods live on
   different shards, and the last hop run by the source's shard. *)
let fattree_shape tree ~src ~dst =
  let s_src = Ftp.shard_of_host tree src in
  let s_dst = Ftp.shard_of_host tree dst in
  let cross = s_src <> s_dst in
  let layer i =
    if i mod 2 = 0 then Span.queue_enqueue
    else if i = 5 && cross then Span.shard_egress
    else Span.pipe_hop
  in
  {
    Probe.fwd_layer = layer;
    rev_layer = layer;
    fwd_owner = (fun i -> if i <= 5 then s_src else s_dst);
    rev_owner = (fun i -> if i <= 5 then s_dst else s_src);
    sender = s_src;
    receiver = s_dst;
  }

let sample_paths ?tracers tree ~rng ~src ~dst ~n =
  let paths =
    Span.around (tracer tracers) Span.topology_paths (fun () ->
        Ftp.sample_paths tree ~rng ~src ~dst ~n)
  in
  match tracers with
  | None -> paths
  | Some _ ->
    Array.map (Probe.path tracers (fattree_shape tree ~src ~dst)) paths

(* --- FatTree permutation, sharded (the fattree-sharded experiment) ---- *)

(* As in Fattree_sharded: [rounds] random permutations, expanded in
   explicit order so the RNG stream never depends on evaluation order. *)
let rec permutation_rounds ~rng ~hosts ~rounds acc =
  if rounds = 0 then List.concat (List.rev acc)
  else
    let round =
      Workload.permutation_long_flows ~rng:(Rng.split rng) ~hosts
        ~max_jitter:1.
    in
    permutation_rounds ~rng ~hosts ~rounds:(rounds - 1) (round :: acc)

let fattree_perm ?tracers (cfg : Fattree_sharded.config) =
  let tr = tracer tracers in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.rate_mbps *. 1e6 in
  let tree =
    Span.around tr Span.topology_build (fun () ->
        Ftp.create ~shards:cfg.shards ~rng:(Rng.split rng) ~k:cfg.k
          ~rate_bps:rate
          ~delay:(cfg.delay_ms /. 1000.)
          ~buffer_pkts:100 ~discipline:Queue.Droptail ())
  in
  let group = Ftp.group tree in
  let hosts = Ftp.host_count tree in
  let flows =
    Span.around tr Span.workload_gen (fun () ->
        permutation_rounds ~rng ~hosts ~rounds:cfg.flows_per_host [])
  in
  let factory =
    if cfg.subflows <= 1 then fun () -> Repro_cc.Reno.create ()
    else Common.factory_of_name cfg.algo
  in
  let conns =
    List.mapi
      (fun i { Workload.start; src; dst; _ } ->
        let paths =
          sample_paths ?tracers tree ~rng ~src ~dst
            ~n:(Stdlib.max 1 cfg.subflows)
        in
        let sender = Ftp.shard_of_host tree src in
        let cc = Probe.cc tracers ~sender (factory ()) in
        Span.around tr Span.tcp_create (fun () ->
            Tcp.create
              ~sim:(Ftp.sim_of_host tree src)
              ~rcv_sim:(Ftp.sim_of_host tree dst)
              ~cc ~paths ~start ~flow_id:i ()))
      flows
  in
  let conns_a = Array.of_list conns in
  let totals = Array.make (Array.length conns_a) 0 in
  let n_shards = Shard.shard_count group in
  for s = 0 to n_shards - 1 do
    let queues = Ftp.shard_queues tree s in
    ignore
      (Sim.schedule_at ~src:"scenario.warmup" (Shard.sim group s) cfg.warmup
         (fun () -> List.iter Queue.reset_stats queues)
        : Sim.Timer.t)
  done;
  List.iteri
    (fun i { Workload.src; _ } ->
      ignore
        (Sim.schedule_at ~src:"scenario.warmup"
           (Ftp.sim_of_host tree src)
           cfg.warmup
           (fun () -> totals.(i) <- Tcp.total_acked conns_a.(i))
          : Sim.Timer.t))
    flows;
  let worker_ns = Array.make n_shards 0 in
  let run () =
    if n_shards = 1 then
      (* one shard never calls the pool: the loop runs on this domain *)
      timed_single worker_ns
        (fun () ->
          Shard.run_windows ~pool:Repro_exp.Sweep.pool group
            ~horizon:cfg.duration)
        ()
    else
      Shard.run_windows
        ~pool:(Probe.pool ~walls:worker_ns tracers)
        group ~horizon:cfg.duration
  in
  let outcome () =
    let window = cfg.duration -. cfg.warmup in
    let flow_mbps =
      Array.mapi
        (fun i c ->
          Common.mbps_of_pps
            (float_of_int (Tcp.total_acked c - totals.(i)) /. window))
        conns_a
    in
    let total = Array.fold_left ( +. ) 0. flow_mbps in
    let sorted = Array.copy flow_mbps in
    Array.sort compare sorted;
    let cut_messages =
      let acc = ref 0 in
      for s = 0 to n_shards - 1 do
        for d = 0 to n_shards - 1 do
          match Ftp.channel tree ~src:s ~dst:d with
          | Some ch -> acc := !acc + Shard.sent_count ch
          | None -> ()
        done
      done;
      !acc
    in
    let optimal = float_of_int hosts *. cfg.rate_mbps in
    outcome
      ~sims:(Array.init n_shards (Shard.sim group))
      ~bookkeeping:(n_shards + Array.length conns_a)
      ~queues:(Ftp.all_queues tree) ~conns
      ~windows:
        (if n_shards = 1 then 0
         else
           Shard.windows ~lookahead:(Shard.lookahead group)
             ~horizon:cfg.duration)
      ~paper:
        [
          ("aggregate_mbps", total);
          ("aggregate_pct_optimal", 100. *. total /. optimal);
          ("mean_flow_mbps", total /. float_of_int (Array.length flow_mbps));
          ("p10_flow_mbps", percentile sorted 0.10);
          ("p50_flow_mbps", percentile sorted 0.50);
          ("p90_flow_mbps", percentile sorted 0.90);
          ( "mean_core_loss",
            Common.mean (List.map Queue.loss_probability (Ftp.core_queues tree))
          );
          ("cut_messages", float_of_int cut_messages);
        ]
      ~arrays:[ ("flow_mbps", flow_mbps) ]
  in
  { horizon = cfg.duration; shards = n_shards; run; worker_ns; outcome }

(* --- FatTree short flows (the fattree-dynamic experiment) ------------ *)

(* Fattree_dynamic builds on Fattree; this workload builds the same tree
   with Fattree_pods at one shard, which is documented to be link for
   link identical. The registry comparison in the test suite checks
   that claim. *)
let fattree_dynamic ?tracers (cfg : Fattree_dynamic.config) =
  let tr = tracer tracers in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.rate_mbps *. 1e6 in
  let tree =
    Span.around tr Span.topology_build (fun () ->
        Ftp.create ~shards:1 ~rng:(Rng.split rng) ~k:cfg.k ~rate_bps:rate
          ~delay:(cfg.delay_ms /. 1000.)
          ~buffer_pkts:100 ~discipline:Queue.Droptail
          ~oversubscription:cfg.oversubscription ())
  in
  let sim = Shard.sim (Ftp.group tree) 0 in
  let hosts = Ftp.host_count tree in
  let wl_rng = Rng.split rng in
  let dest =
    Span.around tr Span.workload_gen (fun () ->
        Rng.derangement_permutation wl_rng hosts)
  in
  let is_long src = src mod 3 = 0 in
  let factory =
    if cfg.subflows <= 1 || cfg.algo = "reno" then fun () ->
      Repro_cc.Reno.create ()
    else Common.factory_of_name cfg.algo
  in
  let long_conns = ref [] and short_conns = ref [] in
  let completions = ref [] in
  let started_shorts = ref 0 and finished_shorts = ref 0 in
  for src = 0 to hosts - 1 do
    if is_long src then begin
      let n = if cfg.algo = "reno" then 1 else cfg.subflows in
      let paths = sample_paths ?tracers tree ~rng ~src ~dst:dest.(src) ~n in
      let start = Rng.uniform wl_rng 1. in
      let cc = Probe.cc tracers ~sender:0 (factory ()) in
      let conn =
        Span.around tr Span.tcp_create (fun () ->
            Tcp.create ~sim ~cc ~paths ~start ~flow_id:src ())
      in
      long_conns := conn :: !long_conns
    end
    else begin
      let shorts =
        Span.around tr Span.workload_gen (fun () ->
            Workload.poisson_short_flows ~rng:wl_rng ~src ~dst:dest.(src)
              ~mean_interval:cfg.mean_interval
              ~size_pkts:Workload.short_flow_pkts ~duration:cfg.duration)
      in
      List.iter
        (fun { Workload.start; size_pkts; src; dst } ->
          incr started_shorts;
          let paths = sample_paths ?tracers tree ~rng ~src ~dst ~n:1 in
          let on_complete t_end =
            incr finished_shorts;
            if start >= cfg.warmup then
              completions := ((t_end -. start) *. 1000.) :: !completions
          in
          let cc = Probe.cc tracers ~sender:0 (Repro_cc.Reno.create ()) in
          let conn =
            Span.around tr Span.tcp_create (fun () ->
                Tcp.create ~sim ~cc ~paths ?size_pkts ~start ~on_complete
                  ~flow_id:src ())
          in
          short_conns := conn :: !short_conns)
        shorts
    end
  done;
  let core = Ftp.core_queues tree in
  ignore
    (Sim.schedule_at ~src:"scenario.warmup" sim cfg.warmup (fun () ->
         List.iter Queue.reset_stats core)
      : Sim.Timer.t);
  let measured = ref [] in
  let worker_ns = [| 0 |] in
  let run =
    timed_single worker_ns (fun () ->
        measured :=
          Common.measure_conns ~sim ~warmup:cfg.warmup ~duration:cfg.duration
            !long_conns)
  in
  let outcome () =
    let completion_times_ms = Array.of_list !completions in
    let summary = Repro_stats.Summary.of_array completion_times_ms in
    let sorted = Array.copy completion_times_ms in
    Array.sort compare sorted;
    let utils =
      List.map
        (fun q -> Queue.utilization q ~since:cfg.warmup ~now:cfg.duration)
        core
    in
    outcome ~sims:[| sim |] ~bookkeeping:2 ~queues:(Ftp.all_queues tree)
      ~conns:(List.rev_append !long_conns (List.rev !short_conns))
      ~windows:0
      ~paper:
        [
          ("mean_completion_ms", Repro_stats.Summary.mean summary);
          ("stdev_completion_ms", Repro_stats.Summary.stdev summary);
          ("core_utilization_pct", 100. *. Common.mean utils);
          ( "long_flow_mbps",
            Common.mean (List.map (fun m -> m.Common.goodput_mbps) !measured) );
          ( "unfinished_shorts",
            float_of_int (!started_shorts - !finished_shorts) );
          ("p50_completion_ms", percentile sorted 0.50);
          ("p99_completion_ms", percentile sorted 0.99);
        ]
      ~arrays:[ ("completion_times_ms", completion_times_ms) ]
  in
  { horizon = cfg.duration; shards = 1; run; worker_ns; outcome }
