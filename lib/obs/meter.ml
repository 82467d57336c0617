(* lint: allow-file R1 -- wall-clock metering of the harness itself; simulation results never read these values *)

(* Per-run counters and timers. A scenario starts a meter, runs, and
   finishes it with the simulator's own counters; the report separates
   deterministic counters (safe to export through Exp.Outcome, where
   sweep results must be byte-reproducible) from wall-clock timers. *)

module Json = Repro_stats.Json

type t = { started_at : float }

let start () = { started_at = Unix.gettimeofday () }

type report = {
  wall_s : float;
  sim_s : float;
  wall_per_sim_s : float;
  events_processed : int;
  max_heap_depth : int;
  drops_overflow : int;
  drops_red : int;
  drops_random : int;
  subflow_goodput_bps : (string * float) list;
}

let finish t ~sim_s ~events_processed ~max_heap_depth ~drops_overflow
    ~drops_red ~drops_random ~subflow_goodput_bps =
  let wall_s = Unix.gettimeofday () -. t.started_at in
  let wall_per_sim_s = if sim_s > 0. then wall_s /. sim_s else nan in
  {
    wall_s;
    sim_s;
    wall_per_sim_s;
    events_processed;
    max_heap_depth;
    drops_overflow;
    drops_red;
    drops_random;
    subflow_goodput_bps;
  }

(* Per-shard counters for sharded runs: each worker's simulator keeps
   its own totals, and the merge is deterministic — shards ascend, int
   sums and maxes are order-free — so the merged values feed the same
   obs_* metrics a 1-shard run reports. *)
type shard_counters = {
  shard : int;
  events_processed : int;
  max_heap_depth : int;
  busy_s : float;
  wait_s : float;
}

let merge_shards shards =
  let shards =
    List.sort (fun a b -> Int.compare a.shard b.shard) shards
  in
  List.fold_left
    (fun (ev, depth) s ->
      (ev + s.events_processed, Stdlib.max depth s.max_heap_depth))
    (0, 0) shards

let shards_to_json shards =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("shard", Json.Int s.shard);
             ("events_processed", Json.Int s.events_processed);
             ("max_heap_depth", Json.Int s.max_heap_depth);
             ("busy_s", Json.Float s.busy_s);
             ("wait_s", Json.Float s.wait_s);
           ])
       (List.sort (fun a b -> Int.compare a.shard b.shard) shards))

(* Deterministic counters only: these are a function of the seed, so
   exporting them keeps Exp.Sweep's parallel-equals-sequential and
   byte-identical-JSON guarantees intact. Wall timers stay in the
   report (and in to_json) for the CLI and the bench harness. *)
let metrics (r : report) =
  [
    ("obs_events", float_of_int r.events_processed);
    ("obs_max_heap_depth", float_of_int r.max_heap_depth);
    ("obs_drops_overflow", float_of_int r.drops_overflow);
    ("obs_drops_red", float_of_int r.drops_red);
    ("obs_drops_random", float_of_int r.drops_random);
  ]
  @ List.map
      (fun (label, bps) -> ("obs_subflow_goodput_bps_" ^ label, bps))
      r.subflow_goodput_bps

let to_json (r : report) =
  Json.Obj
    [
      ("wall_s", Json.Float r.wall_s);
      ("sim_s", Json.Float r.sim_s);
      ("wall_per_sim_s", Json.Float r.wall_per_sim_s);
      ("events_processed", Json.Int r.events_processed);
      ("max_heap_depth", Json.Int r.max_heap_depth);
      ("drops_overflow", Json.Int r.drops_overflow);
      ("drops_red", Json.Int r.drops_red);
      ("drops_random", Json.Int r.drops_random);
      ( "subflow_goodput_bps",
        Json.Obj
          (List.map
             (fun (label, bps) -> (label, Json.Float bps))
             r.subflow_goodput_bps) );
    ]
