(** k-ary FatTree (paper §VI-B; the htsim data-center setting: k = 8
    gives 128 hosts and 80 switches), built pod-sharded: cut at the
    core links for conservative parallel simulation
    ({!Repro_netsim.Shard}).

    The tree has [k] pods, each with [k/2] edge and [k/2] aggregation
    switches, and [(k/2)²] core switches. Every adjacent pair is joined
    by a bidirectional link. Between two hosts in different pods there
    are [(k/2)²] equal-length paths (one per aggregation/core choice),
    which MPTCP subflows are spread across ECMP-style.

    Pods are assigned to shards in contiguous blocks ([shards] must
    divide [k]), every link of a pod lives on its shard's simulator,
    and each aggregation↔core link is owned by its pod's shard. The
    only inter-shard edges are the core traversals: a cross-shard path
    keeps the real aggregation→core queue (so intra-pod contention is
    exact) and replaces that link's propagation pipe with a cross-shard
    channel of the same latency — end-to-end path delay is unchanged,
    and the per-hop latency is exactly the group's conservative
    lookahead. With [shards = 1] no channel exists: the whole tree
    lives on one simulator, and the construction (one RNG split per
    queue, in a fixed order) does not depend on the shard count. *)

type t

val create :
  shards:int ->
  rng:Repro_netsim.Rng.t ->
  k:int ->
  rate_bps:float ->
  delay:float ->
  buffer_pkts:int ->
  discipline:Repro_netsim.Queue.discipline ->
  ?oversubscription:float ->
  unit ->
  t
(** Build the tree over [shards] fresh simulators. [k] must be even and
    ≥ 2, and [shards] must satisfy [1 ≤ shards ≤ k] and [k mod shards =
    0] (pods map to shards in blocks of [k / shards]). [delay] is the
    one-way latency of each hop and doubles as the shard lookahead, so
    it must be positive when [shards > 1]. [oversubscription] divides
    the capacity of edge→aggregation and aggregation→core links
    (default 1., i.e. a full-bisection tree; Fig. 14 uses 4). *)

val k : t -> int
val host_count : t -> int
val shards : t -> int

val group : t -> Repro_netsim.Shard.t
(** The shard group, to run with {!Repro_netsim.Shard.run_windows}. *)

val shard_of_pod : t -> int -> int
val shard_of_host : t -> int -> int

val sim_of_host : t -> int -> Repro_netsim.Sim.t
(** The simulator owning a host's links — the [sim] for senders and the
    [rcv_sim] for receivers rooted at that host. *)

val cross_shard : t -> src:int -> dst:int -> bool
(** Do paths between these hosts cross a shard boundary? *)

val channel :
  t -> src:int -> dst:int -> Repro_netsim.Shard.channel option
(** The channel carrying shard [src] → shard [dst] traffic ([None] when
    [src = dst] or either is out of range), for cut statistics. *)

val path_count : t -> src:int -> dst:int -> int
(** Number of distinct shortest paths between two hosts. *)

val all_paths : t -> src:int -> dst:int -> Repro_netsim.Tcp.path array
(** Every shortest path, forward and reverse routes cut at shard
    boundaries as described above. Raises [Invalid_argument] if
    [src = dst] or out of range. *)

val sample_paths :
  t ->
  rng:Repro_netsim.Rng.t ->
  src:int ->
  dst:int ->
  n:int ->
  Repro_netsim.Tcp.path array
(** [n] paths chosen uniformly without replacement (all of them if
    fewer than [n] exist) — the paper's "MPTCP with n subflows". *)

val shard_queues : t -> int -> Repro_netsim.Queue.t list
(** Queues owned by one shard (its pods' host, edge and core links),
    for per-shard warm-up statistic resets on that shard's own
    simulator. *)

val core_queues : t -> Repro_netsim.Queue.t list
(** Queues of every aggregation→core and core→aggregation hop, for the
    network-core utilization figure of Table III. *)

val all_queues : t -> Repro_netsim.Queue.t list
