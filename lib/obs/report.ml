(* Flight-recorder analysis: fold a stream of trace events — decoded
   rings via [feed], or offline via [load_jsonl] — into per-queue
   latency/drop statistics and per-subflow RTT/cwnd/state summaries.

   Everything here is a pure function of the event stream, which for a
   fixed seed is itself deterministic, so [to_json] output is
   byte-identical across runs: wall-clock data (Meter, shard clocks) never
   enters a report. *)

module Json = Repro_stats.Json
module Histogram = Repro_stats.Histogram
module Timeseries = Repro_stats.Timeseries
module Table = Repro_stats.Table

(* Exact moments alongside the histogram: the histogram gives
   quantiles, these give n/mean/min/max without bucketing error. *)
type moments = {
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let moments_create () = { n = 0; sum = 0.; min_v = infinity; max_v = neg_infinity }

let moments_add m x =
  m.n <- m.n + 1;
  m.sum <- m.sum +. x;
  if x < m.min_v then m.min_v <- x;
  if x > m.max_v then m.max_v <- x

(* Queue residence spans to ~10 s on a congested bottleneck and down to
   one sub-millisecond service time on a fast link; RTTs live between
   0.1 ms and seconds. Log buckets at 20 per decade keep quantile
   bucketing error under ~12% across the whole range. *)
let qdelay_hist () = Histogram.create_log ~lo:1e-6 ~hi:10. ~bins:140
let rtt_hist () = Histogram.create_log ~lo:1e-4 ~hi:10. ~bins:100

type queue_acc = {
  mutable enqueued : int;
  mutable forwarded : int;
  mutable forwarded_bytes : int;
  mutable drops_overflow : int;
  mutable drops_red : int;
  mutable drops_random : int;
  mutable drops_down : int;
  qd_hist : Histogram.t;
  qd : moments;
  (* drop bursts: maximal runs of consecutive drops at this queue,
     uninterrupted by an enqueue or forward *)
  mutable run : int;
  mutable bursts : int;  (* runs of length >= 2 *)
  mutable max_run : int;
}

type sub_acc = {
  rtt_h : Histogram.t;
  rtt : moments;
  cwnd : Timeseries.t;
  cwnd_stats : moments;
  mutable state : Trace.tcp_state;
  mutable state_since : float;
  mutable dwell_ss : float;
  mutable dwell_ca : float;
  mutable dwell_fr : float;
  mutable rto_fired : int;
  mutable removed_at : float option;
}

type t = {
  queues : (string, queue_acc) Hashtbl.t;
  subs : (int * int, sub_acc) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable events : int;
  mutable first_t : float;
  mutable last_t : float;
}

let create () =
  {
    queues = Hashtbl.create 16;
    subs = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    events = 0;
    first_t = nan;
    last_t = nan;
  }

let queue_acc t name =
  match Hashtbl.find_opt t.queues name with
  | Some q -> q
  | None ->
    let q =
      {
        enqueued = 0;
        forwarded = 0;
        forwarded_bytes = 0;
        drops_overflow = 0;
        drops_red = 0;
        drops_random = 0;
        drops_down = 0;
        qd_hist = qdelay_hist ();
        qd = moments_create ();
        run = 0;
        bursts = 0;
        max_run = 0;
      }
    in
    Hashtbl.add t.queues name q;
    q

let sub_acc t ~flow ~subflow ~time =
  match Hashtbl.find_opt t.subs (flow, subflow) with
  | Some s -> s
  | None ->
    let s =
      {
        rtt_h = rtt_hist ();
        rtt = moments_create ();
        cwnd = Timeseries.create ();
        cwnd_stats = moments_create ();
        state = Trace.Slow_start;
        state_since = time;
        dwell_ss = 0.;
        dwell_ca = 0.;
        dwell_fr = 0.;
        rto_fired = 0;
        removed_at = None;
      }
    in
    Hashtbl.add t.subs (flow, subflow) s;
    s

let event_time = function
  | Trace.Pkt_enqueue { time; _ }
  | Trace.Pkt_drop { time; _ }
  | Trace.Pkt_forward { time; _ }
  | Trace.Tcp_state { time; _ }
  | Trace.Cwnd_update { time; _ }
  | Trace.Rto_fired { time; _ }
  | Trace.Rtt_sample { time; _ }
  | Trace.Subflow_add { time; _ }
  | Trace.Subflow_remove { time; _ } -> time

let event_name = function
  | Trace.Pkt_enqueue _ -> "pkt_enqueue"
  | Trace.Pkt_drop _ -> "pkt_drop"
  | Trace.Pkt_forward _ -> "pkt_forward"
  | Trace.Tcp_state _ -> "tcp_state"
  | Trace.Cwnd_update _ -> "cwnd_update"
  | Trace.Rto_fired _ -> "rto_fired"
  | Trace.Rtt_sample _ -> "rtt_sample"
  | Trace.Subflow_add _ -> "subflow_add"
  | Trace.Subflow_remove _ -> "subflow_remove"

let end_run q =
  if q.run >= 2 then q.bursts <- q.bursts + 1;
  if q.run > q.max_run then q.max_run <- q.run;
  q.run <- 0

let dwell_add s ~until =
  let d = until -. s.state_since in
  if d > 0. then
    match s.state with
    | Trace.Slow_start -> s.dwell_ss <- s.dwell_ss +. d
    | Trace.Congestion_avoidance -> s.dwell_ca <- s.dwell_ca +. d
    | Trace.Fast_recovery -> s.dwell_fr <- s.dwell_fr +. d

let feed t ev =
  t.events <- t.events + 1;
  let time = event_time ev in
  if Float.is_nan t.first_t then t.first_t <- time;
  t.last_t <- time;
  let name = event_name ev in
  Hashtbl.replace t.counts name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts name));
  match ev with
  | Trace.Pkt_enqueue { queue; _ } ->
    let q = queue_acc t queue in
    end_run q;
    q.enqueued <- q.enqueued + 1
  | Trace.Pkt_forward { queue; bytes; qdelay; _ } ->
    let q = queue_acc t queue in
    end_run q;
    q.forwarded <- q.forwarded + 1;
    q.forwarded_bytes <- q.forwarded_bytes + bytes;
    Histogram.add q.qd_hist qdelay;
    moments_add q.qd qdelay
  | Trace.Pkt_drop { queue; cause; _ } ->
    let q = queue_acc t queue in
    q.run <- q.run + 1;
    (match cause with
    | Trace.Overflow -> q.drops_overflow <- q.drops_overflow + 1
    | Trace.Red_early -> q.drops_red <- q.drops_red + 1
    | Trace.Random_loss -> q.drops_random <- q.drops_random + 1
    | Trace.Link_down -> q.drops_down <- q.drops_down + 1)
  | Trace.Rtt_sample { flow; subflow; rtt; _ } ->
    let s = sub_acc t ~flow ~subflow ~time in
    Histogram.add s.rtt_h rtt;
    moments_add s.rtt rtt
  | Trace.Cwnd_update { flow; subflow; cwnd; _ } ->
    let s = sub_acc t ~flow ~subflow ~time in
    Timeseries.add s.cwnd ~time cwnd;
    moments_add s.cwnd_stats cwnd
  | Trace.Tcp_state { flow; subflow; to_state; _ } ->
    let s = sub_acc t ~flow ~subflow ~time in
    dwell_add s ~until:time;
    s.state <- to_state;
    s.state_since <- time
  | Trace.Rto_fired { flow; subflow; _ } ->
    let s = sub_acc t ~flow ~subflow ~time in
    s.rto_fired <- s.rto_fired + 1
  | Trace.Subflow_add { flow; subflow; _ } ->
    ignore (sub_acc t ~flow ~subflow ~time)
  | Trace.Subflow_remove { flow; subflow; _ } ->
    let s = sub_acc t ~flow ~subflow ~time in
    s.removed_at <- Some time

let load_jsonl ~path =
  let t = create () in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno =
        match In_channel.input_line ic with
        | None -> Ok t
        | Some "" -> loop (lineno + 1)
        | Some line -> (
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
          | Ok j -> (
            match Trace.of_json j with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
            | Ok ev ->
              feed t ev;
              loop (lineno + 1)))
      in
      loop 1)

(* --- rendering ------------------------------------------------------- *)

(* Quantiles worth printing: the median, the tail that a plot would
   show, and the extreme tail that RTO inflation hides in. *)
let quantile_points = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

let latency_json (m : moments) hist =
  let mean = if m.n > 0 then m.sum /. float_of_int m.n else nan in
  Json.Obj
    ([
       ("n", Json.Int m.n);
       ("mean", Json.Float mean);
       ("min", Json.Float (if m.n > 0 then m.min_v else nan));
       ("max", Json.Float (if m.n > 0 then m.max_v else nan));
     ]
    @ List.map
        (fun (name, q) -> (name, Json.Float (Histogram.quantile hist q)))
        quantile_points)

let sorted_queues t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.queues [])

let sorted_subs t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.subs [])

(* Dwell in the current state is still open when the stream ends; close
   it at the subflow's removal time, or the last event time. Computed
   here rather than mutated into the accumulator so [to_json] can be
   called mid-stream and again later. *)
let dwells t s =
  let until = match s.removed_at with Some r -> r | None -> t.last_t in
  let extra = until -. s.state_since in
  let extra = if Float.is_nan extra || extra < 0. then 0. else extra in
  let open_ss, open_ca, open_fr =
    match s.state with
    | Trace.Slow_start -> (extra, 0., 0.)
    | Trace.Congestion_avoidance -> (0., extra, 0.)
    | Trace.Fast_recovery -> (0., 0., extra)
  in
  (s.dwell_ss +. open_ss, s.dwell_ca +. open_ca, s.dwell_fr +. open_fr)

let to_json t =
  let counts =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) t.counts [])
  in
  let queue_json (name, q) =
    let total_drops =
      q.drops_overflow + q.drops_red + q.drops_random + q.drops_down
    in
    ( name,
      Json.Obj
        [
          ("enqueued", Json.Int q.enqueued);
          ("forwarded", Json.Int q.forwarded);
          ("forwarded_bytes", Json.Int q.forwarded_bytes);
          ( "drops",
            Json.Obj
              [
                ("total", Json.Int total_drops);
                ("overflow", Json.Int q.drops_overflow);
                ("red_early", Json.Int q.drops_red);
                ("random_loss", Json.Int q.drops_random);
                ("link_down", Json.Int q.drops_down);
              ] );
          ("qdelay_s", latency_json q.qd q.qd_hist);
          ( "drop_bursts",
            Json.Obj
              [
                (* the trailing run is still open; close it like dwell *)
                ( "bursts",
                  Json.Int (q.bursts + if q.run >= 2 then 1 else 0) );
                ("max_run", Json.Int (max q.max_run q.run));
              ] );
        ] )
  in
  let sub_json ((flow, subflow), s) =
    let ss, ca, fr = dwells t s in
    let cwnd_last =
      match Timeseries.last s.cwnd with Some (_, v) -> v | None -> nan
    in
    ( Printf.sprintf "%d/%d" flow subflow,
      Json.Obj
        [
          ("rtt_s", latency_json s.rtt s.rtt_h);
          ( "cwnd",
            Json.Obj
              [
                ("samples", Json.Int (Timeseries.length s.cwnd));
                ("last", Json.Float cwnd_last);
                ( "min",
                  Json.Float (if s.cwnd_stats.n > 0 then s.cwnd_stats.min_v
                              else nan) );
                ( "max",
                  Json.Float (if s.cwnd_stats.n > 0 then s.cwnd_stats.max_v
                              else nan) );
              ] );
          ( "state_dwell_s",
            Json.Obj
              [
                ("slow_start", Json.Float ss);
                ("congestion_avoidance", Json.Float ca);
                ("fast_recovery", Json.Float fr);
              ] );
          ("rto_fired", Json.Int s.rto_fired);
        ] )
  in
  Json.Obj
    [
      ( "events",
        Json.Obj
          [ ("total", Json.Int t.events); ("by_type", Json.Obj counts) ] );
      ( "time",
        Json.Obj
          [
            ("first", Json.Float t.first_t);
            ("last", Json.Float t.last_t);
            ("span", Json.Float (t.last_t -. t.first_t));
          ] );
      ("queues", Json.Obj (List.map queue_json (sorted_queues t)));
      ("subflows", Json.Obj (List.map sub_json (sorted_subs t)));
    ]

let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" (v *. 1e3)

let to_text t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "events: %d   span: %s s\n\n" t.events
       (if Float.is_nan t.first_t then "-"
        else Printf.sprintf "%.3f" (t.last_t -. t.first_t)));
  let qt =
    Table.create ~title:"queues"
      ~columns:
        [
          "queue"; "enq"; "fwd"; "drops"; "qd_p50_ms"; "qd_p90_ms";
          "qd_p99_ms"; "bursts"; "max_run";
        ]
  in
  List.iter
    (fun (name, q) ->
      let total_drops =
        q.drops_overflow + q.drops_red + q.drops_random + q.drops_down
      in
      Table.add_row qt
        [
          name;
          string_of_int q.enqueued;
          string_of_int q.forwarded;
          string_of_int total_drops;
          ms (Histogram.quantile q.qd_hist 0.5);
          ms (Histogram.quantile q.qd_hist 0.9);
          ms (Histogram.quantile q.qd_hist 0.99);
          string_of_int (q.bursts + if q.run >= 2 then 1 else 0);
          string_of_int (max q.max_run q.run);
        ])
    (sorted_queues t);
  Buffer.add_string buf (Table.to_string qt);
  Buffer.add_char buf '\n';
  let st =
    Table.create ~title:"subflows"
      ~columns:
        [
          "flow/sub"; "rtt_n"; "rtt_p50_ms"; "rtt_p90_ms"; "rtt_p99_ms";
          "cwnd_last"; "ss_s"; "ca_s"; "fr_s"; "rto";
        ]
  in
  List.iter
    (fun ((flow, subflow), s) ->
      let ss, ca, fr = dwells t s in
      let cwnd_last =
        match Timeseries.last s.cwnd with Some (_, v) -> v | None -> nan
      in
      Table.add_row st
        [
          Printf.sprintf "%d/%d" flow subflow;
          string_of_int s.rtt.n;
          ms (Histogram.quantile s.rtt_h 0.5);
          ms (Histogram.quantile s.rtt_h 0.9);
          ms (Histogram.quantile s.rtt_h 0.99);
          (if Float.is_nan cwnd_last then "-"
           else Printf.sprintf "%.2f" cwnd_last);
          Printf.sprintf "%.3f" ss;
          Printf.sprintf "%.3f" ca;
          Printf.sprintf "%.3f" fr;
          string_of_int s.rto_fired;
        ])
    (sorted_subs t);
  Buffer.add_string buf (Table.to_string st);
  Buffer.contents buf
