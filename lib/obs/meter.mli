(** Per-run counters and timers.

    [let m = Meter.start ()] before the event loop, then
    [Meter.finish m ~sim_s ... ] with the simulator's own counters
    yields a {!report}: how long the run took on the wall, how that
    relates to simulated time, and where packets were dropped. *)

type t

val start : unit -> t
(** Capture the wall-clock start of a run. *)

type report = {
  wall_s : float;  (** wall-clock duration of the run *)
  sim_s : float;  (** simulated seconds covered *)
  wall_per_sim_s : float;  (** wall seconds per simulated second *)
  events_processed : int;  (** events the sim loop dispatched *)
  max_heap_depth : int;  (** event-heap high-water mark *)
  drops_overflow : int;  (** data drops from full buffers *)
  drops_red : int;  (** data drops from RED early marking *)
  drops_random : int;  (** drops from lossy links *)
  subflow_goodput_bps : (string * float) list;
      (** labelled per-subflow goodputs, bit/s (e.g.
          [("type1_sf0", 9.1e5)]); empty when a scenario does not
          export them *)
}

val finish :
  t ->
  sim_s:float ->
  events_processed:int ->
  max_heap_depth:int ->
  drops_overflow:int ->
  drops_red:int ->
  drops_random:int ->
  subflow_goodput_bps:(string * float) list ->
  report

type shard_counters = {
  shard : int;
  events_processed : int;
  max_heap_depth : int;
  busy_s : float;  (** wall seconds draining and running windows *)
  wait_s : float;  (** wall seconds waiting at the window barrier *)
}
(** One shard's loop counters in a sharded run: deterministic event
    and depth counts, plus its wall-clock busy/wait split, which like
    [wall_s] stays out of {!metrics}. *)

val merge_shards : shard_counters list -> int * int
(** [(total events, max heap depth)] merged in ascending shard order —
    a deterministic reduction, so the merged values feed the same
    [obs_*] metrics a 1-shard run reports. *)

val shards_to_json : shard_counters list -> Repro_stats.Json.t
(** Per-shard breakdown (ascending shards), busy/wait included, for
    operator-facing output. *)

val metrics : report -> (string * float) list
(** The deterministic counters as [("obs_*", v)] pairs, suitable for
    [Exp.Outcome]; each [subflow_goodput_bps] entry becomes
    [obs_subflow_goodput_bps_<label>]. Wall timers are deliberately
    excluded: sweep results must be byte-reproducible across runs and
    domain counts. *)

val to_json : report -> Repro_stats.Json.t
(** The full report, wall timers included. *)
