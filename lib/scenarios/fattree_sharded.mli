(** The FatTree permutation experiment: every host sends
    [flows_per_host] long-lived flows to random distinct hosts, using
    TCP or MPTCP (LIA/OLIA) with a given number of subflows spread over
    the equal-cost paths. With one flow per host this is the htsim
    experiment of paper §VI-B1 (Fig. 13); k = 8 and 8 flows/host give
    1024 concurrent MPTCP connections over 128 hosts. It runs on one
    event loop or sharded pod-per-domain across OCaml domains with
    conservative lookahead ({!Repro_netsim.Shard}).

    Results are bitwise shard-count-invariant: the same seed produces
    identical goodputs for any shard count (the scheduler's
    [(time, sched, content)] dispatch order is reconstructible from
    cross-shard messages), and [shards = 1] is bitwise identical to a
    sequential run of the same topology — the properties the
    `shard-invariance` CI job enforces via [olia_sim shard-invariance],
    including a traced leg that byte-compares the decoded sharded
    trace against the 1-shard trace. *)

type config = {
  k : int;  (** FatTree arity; k = 8 gives 128 hosts *)
  shards : int;  (** domains; must divide k (1 = sequential) *)
  rate_mbps : float;  (** host link capacity *)
  delay_ms : float;  (** per-hop one-way latency = shard lookahead *)
  subflows : int;  (** MPTCP subflows per connection (1 = plain TCP) *)
  flows_per_host : int;  (** long-lived flows originating at each host *)
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

val default : config
(** k = 8, shards = 1, 10 Mb/s links, 1 ms hops, 2 subflows, 8 flows
    per host (1024 flows), OLIA, 5 s with 1 s warm-up. *)

type result = {
  flow_mbps : float array;  (** per-flow goodput, flow order *)
  aggregate_mbps : float;
  aggregate_pct_optimal : float;
      (** total goodput as % of [hosts·rate] (host links are the
          permutation bottleneck regardless of flows per host) *)
  mean_flow_mbps : float;
  p10_flow_mbps : float;
  p50_flow_mbps : float;
  p90_flow_mbps : float;
  ranked_pct : float array;
      (** per-flow goodput as % of the host link rate, ascending —
          Fig. 13(b) *)
  mean_core_loss : float;  (** mean loss probability over core queues *)
  cut_messages : int;
      (** packets that crossed a shard boundary (0 when [shards = 1]) *)
  obs : Repro_obs.Meter.report;
      (** counters summed over the shards' simulators *)
  shard_obs : Repro_obs.Meter.shard_counters list;
      (** per-shard loop counters, ascending shards; their
          deterministic merge ([Meter.merge_shards]) is exactly what
          [obs] carries as events and max heap depth *)
}

val run : config -> result
(** Build the sharded tree, start every flow, run the barrier/window
    loop on [shards] domains ({!Repro_exp.Sweep.pool} plumbing) and
    measure goodputs over [\[warmup, duration\]]. Deterministic for a
    given (seed, shards) — and bitwise shard-count-invariant: the
    scheduler's [(time, sched, content)] dispatch order makes the same
    seed produce identical goodputs for any shard count. Tracing a
    sharded run works through per-worker rings ([Trace.arm_rings]).
    Raises [Invalid_argument] before building anything when
    [flows_per_host < 1] or [warmup >= duration], and on a shard count
    that does not divide [k]. *)
