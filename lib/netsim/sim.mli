(** Discrete-event simulation core: a clock and a time-ordered set of
    timers. Events at equal times fire in scheduling order, so runs are
    deterministic.

    Internally the scheduler is a hierarchical timing wheel over
    ns-resolution integer ticks (four levels of 256 slots; events beyond
    the wheel horizon fall back to a sorted spill list). Dispatch order
    is [(time, sched, seq)] using the exact [float] times, where [sched]
    is the clock value at the moment the timer was armed: within one
    simulator [sched] is non-decreasing in [seq], so this orders exactly
    like the old binary heap's [(time, seq)] — the middle key exists for
    cross-shard deliveries ({!schedule_pkt_at_sched}), which carry the
    arming time a sequential run would have used so that a sharded run
    breaks same-instant ties identically. The tick quantisation is never
    observable.

    Timer cells are pooled in free lists and handles are unboxed
    integers, so the steady-state schedule/cancel/reschedule cycle of a
    well-behaved component (one persistent timer, re-armed in place)
    allocates nothing. *)

type t

type sim = t
(** Alias so {!Timer}'s signature can refer to the simulator type. *)

(** Cancellable timer handles.

    A handle names one scheduled occurrence. It is an unboxed integer
    carrying a generation stamp: once the timer has fired or been
    cancelled, the handle goes stale and every operation on it is
    either a no-op ([cancel]) or an error ([reschedule]), never a
    corruption of an unrelated timer that happens to reuse the cell. *)
module Timer : sig
  type t

  val none : t
  (** A handle that is never active: the right initial value for a
      mutable timer field. *)

  val active : sim -> t -> bool
  (** [active sim h] is [true] while the timer is scheduled and has not
      yet fired or been cancelled. A periodic timer is also active
      while its callback is running (it will re-arm unless cancelled). *)

  val cancel : sim -> t -> unit
  (** Cancel the timer. A no-op on a stale handle (already fired or
      cancelled), so callers need not track firing themselves. A
      periodic timer cancelled from inside its own callback does not
      re-arm. *)

  val reschedule : sim -> t -> float -> unit
  (** [reschedule sim h time] moves a pending one-shot timer to [time],
      keeping its callback and handle but taking a fresh tie-break
      sequence number (exactly as if it had been cancelled and
      scheduled anew at this instant). Raises [Invalid_argument] if the
      handle is stale, the timer is periodic, [time] is not finite, or
      [time] is in the past (rescheduling backward across [now] is
      rejected). *)
end

val create : unit -> t
(** A simulator at time 0 with no events. *)

val now : t -> float
(** Current simulated time, seconds. *)

val schedule_at : ?src:string -> t -> float -> (unit -> unit) -> Timer.t
(** [schedule_at t time fn] runs [fn] when the clock reaches [time] and
    returns a handle for cancellation. Raises [Invalid_argument] if
    [time] is in the past or not finite (NaN and infinities are
    rejected rather than silently misordering the schedule). [src] is
    ignored; it is kept so that callers written against the earlier
    labelled form still compile. *)

val schedule_after : t -> float -> (unit -> unit) -> Timer.t
(** [schedule_after t delay fn] = [schedule_at t (now t +. delay) fn]. *)

val schedule_pkt_at :
  t -> float -> (Packet.t -> unit) -> Packet.t -> Timer.t
(** [schedule_pkt_at t time fn p] runs [fn p] when the clock reaches
    [time]. The packet rides in the pooled timer cell itself, so
    scheduling a delivery costs no closure allocation: pass a static
    function (for example [Packet.forward]) and the whole operation is
    allocation-free. Semantics otherwise as {!schedule_at}. *)

val schedule_pkt_after :
  t -> float -> (Packet.t -> unit) -> Packet.t -> Timer.t
(** Delay form of {!schedule_pkt_at}. *)

val schedule_pkt_at_sched :
  t ->
  sched:float ->
  float ->
  (Packet.t -> unit) ->
  Packet.t ->
  Timer.t
(** [schedule_pkt_at_sched t ~sched time fn p] is {!schedule_pkt_at}
    with an explicit tie-break key: same-instant events dispatch as if
    this timer had been armed when the clock read [sched] rather than
    now. [Shard.deliver] passes the message's egress time on the source
    shard — the instant the sequential run's propagation pipe would
    have scheduled the arrival — so sharded and sequential runs order
    same-instant ties identically. [sched] may lie in the past; it is
    an ordering key, not a deadline. *)

val every : ?start:float -> t -> float -> (unit -> unit) -> Timer.t
(** [every t period fn] runs [fn] at [start] (default [now t +. period])
    and then every [period] seconds until the returned timer is
    cancelled — the one sanctioned way to stop it is
    [Timer.cancel t h] (typically from inside [fn] itself). The re-arm
    happens after [fn] returns and reuses the same cell and handle, so
    a periodic tick allocates nothing and its tie-break sequence number
    is taken exactly where the old hand-rolled [let rec tick () = ...;
    schedule_after t period tick] idiom took it. Raises
    [Invalid_argument] if [period] is not finite and positive, or
    [start] is in the past. *)

val run_until : t -> float -> unit
(** Process events in order until no event remains at or before the
    horizon; the clock ends at the horizon. Raises [Invalid_argument]
    if the horizon is not finite. *)

val run : t -> unit
(** Process events until none remain. Periodic timers re-arm forever,
    so a simulation using {!every} must cancel its periodic timers (or
    use {!run_until}) to terminate. *)

val pending : t -> int
(** Number of scheduled timers (periodic timers count once). *)

val events_processed : t -> int
(** Total events executed so far (for the micro-benchmarks). *)

val max_heap_depth : t -> int
(** High-water mark of the scheduler: the most timers that were ever
    pending at once (for the observability counters). *)
