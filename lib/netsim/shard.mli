(** Conservative parallel simulation: one {!Sim} event loop per shard,
    synchronized in lockstep windows of length [lookahead].

    A sharded topology is an ordinary topology whose graph has been cut
    at links of latency ≥ [lookahead]: each cut link's propagation pipe
    is replaced by a cross-shard {!channel}, and every shard runs its
    own simulator, in its own domain, over the sub-topology it owns.

    The synchronization protocol is the classic conservative-lookahead
    window loop, degenerate (all-to-all) form: all shards advance
    through the same window boundaries [H_w = w·lookahead]. A message
    sent at time [s ∈ (H_{w-1}, H_w]] travels a channel of latency
    [≥ lookahead], so it arrives strictly after [H_w] — handing it over
    at every boundary therefore delivers every message before its
    arrival time is reached, no shard ever receives an event in its
    past, and no rollback is needed.

    Each channel owns two flat outboxes, chosen by window parity: in
    window [w] the source appends to outbox [w mod 2] while the
    destination, before running window [w], drains outbox [(w-1) mod 2].
    One barrier per window separates the phases: a source refills an
    outbox only two windows after filling it, by which time the
    destination has passed the intervening barrier and so finished
    draining it. The barrier's lock orders these accesses across
    domains, so the outboxes themselves need none. Deadlock-freedom is
    immediate: windows are fixed in advance, every shard always
    advances to the next boundary without waiting on message
    availability, and the barrier is the only blocking point. See
    DESIGN.md ("Sharded multicore simulation") for the full argument.

    Determinism: within a window each shard is an ordinary sequential
    simulator. At each boundary the drained outboxes are k-way merged
    in [(arrival, egress, src_shard, src_seq)] order before being
    scheduled, so the schedule-order tie-break of {!Sim} is a pure
    function of the simulation state — results are reproducible for a
    given (seed, shard count). Moreover each delivery carries its
    source-shard egress time as the [(time, sched, seq)] tie-break key
    of {!Sim.schedule_pkt_at_sched} — the same key the sequential run's
    propagation pipe produces — so same-instant events dispatch in the
    sequential order regardless of shard count, and a sharded run is
    bitwise identical to the unsharded one. A one-shard group is
    trivially so because windowed [run_until] calls chain exactly like
    a single call.

    Cost: parking and re-materializing a message allocates nothing once
    the outboxes and the packet pools have grown to their peak. *)

type t
(** A shard group: the sims, their channels and the lookahead. *)

type channel
(** A unidirectional cross-shard link stage of fixed latency: packets
    entering its {!egress} hop on the source shard reappear on the
    destination shard [latency] seconds later (re-allocated from the
    destination domain's packet pool). *)

val create : sims:Sim.t array -> lookahead:float -> t
(** A group over the given per-shard simulators. [lookahead] is the
    window length and the minimum legal channel latency; it must be
    finite and positive when there is more than one shard. Raises
    [Invalid_argument] on an empty [sims]. *)

val shard_count : t -> int

val sim : t -> int -> Sim.t
(** The simulator owned by one shard. *)

val lookahead : t -> float

val open_channel : t -> src:int -> dst:int -> ?latency:float -> unit -> channel
(** Register a channel from shard [src] to shard [dst] (default latency
    = the group's lookahead). Raises [Invalid_argument] if [src = dst],
    either index is out of range, or [latency < lookahead] (a shorter
    channel would deliver inside the current window and break the
    conservative bound). Construction-time only: not safe once
    {!run_windows} has started. *)

val egress : channel -> Packet.hop
(** The hop to splice into a route in place of the cut link's
    propagation pipe. It consumes the packet (returning it to the
    source domain's pool) and copies it into the channel's current
    outbox; the destination shard re-materializes the packet at the
    next window boundary and delivers it at [now + latency]. *)

val sent_count : channel -> int
(** Messages sent so far (source-domain view). *)

val pending : t -> dst:int -> (int * int * float * float) list
(** The messages waiting for shard [dst] at the next window boundary,
    as [(src_shard, src_seq, arrival, egress)] in the order the
    destination will schedule them: the k-way merge of its inbound
    outboxes that {!run_windows} runs, in [(arrival, egress, src_shard,
    src_seq)] order. An inspection for the merge-order property tests;
    it consumes nothing. *)

val windows : lookahead:float -> horizon:float -> int
(** Number of lockstep windows needed to reach [horizon]. *)

val run_windows :
  pool:((unit -> unit) array -> unit) -> t -> horizon:float -> unit
(** Run every shard to [horizon] through the barrier/window loop, one
    worker per shard scheduled by [pool] (pass [Repro_exp.Sweep.pool]
    to use the sweep engine's domain plumbing, or a sequential pool for
    single-domain tests — the results are identical by construction;
    with a single shard the loop degenerates to chained [run_until]
    calls on the calling domain). Tracing and profiling are
    per-worker: when trace rings are armed ([Trace.arm_rings]) each
    worker binds its own ring under its shard id — the decoded merge
    reproduces the sequential event order — and each worker's profile
    table is tagged with its shard (barrier wait accounted under
    ["shard.barrier"]). Worker exceptions are re-raised after all
    domains have been joined. *)
