(* The observability layer: trace events round-trip through JSONL, the
   per-run counters agree with what a Monitor sees on the same queues,
   and — crucially — arming tracing never changes simulation results. *)

open Repro_netsim

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at sim t f = ignore (Sim.schedule_at sim t f : Sim.Timer.t)
  let schedule_after sim d f = ignore (Sim.schedule_after sim d f : Sim.Timer.t)
end
module Trace = Repro_obs.Trace
module Meter = Repro_obs.Meter
module Snapshot = Repro_obs.Snapshot
module Json = Repro_stats.Json
module S = Repro_scenarios

(* --- trace events ---------------------------------------------------- *)

let every_variant =
  [
    Trace.Pkt_enqueue
      {
        time = 0.125;
        queue = "r1";
        flow = 3;
        subflow = 1;
        seq = 42;
        kind = "data";
        backlog = 7;
      };
    Trace.Pkt_drop
      {
        time = 0.25;
        queue = "ap";
        flow = 0;
        subflow = 0;
        seq = 9;
        kind = "data";
        cause = Trace.Overflow;
      };
    Trace.Pkt_drop
      {
        time = 0.5;
        queue = "ap";
        flow = 1;
        subflow = 2;
        seq = 10;
        kind = "data";
        cause = Trace.Red_early;
      };
    Trace.Pkt_drop
      {
        time = 0.75;
        queue = "wifi";
        flow = 1;
        subflow = 0;
        seq = 11;
        kind = "ack";
        cause = Trace.Random_loss;
      };
    Trace.Pkt_drop
      {
        time = 0.875;
        queue = "fault-gate";
        flow = 2;
        subflow = 1;
        seq = 13;
        kind = "data";
        cause = Trace.Link_down;
      };
    Trace.Pkt_forward
      {
        time = 1.5;
        queue = "r2";
        flow = 2;
        subflow = 1;
        seq = 12;
        kind = "data";
        bytes = 1500;
        qdelay = 0.0375;
      };
    Trace.Tcp_state
      {
        time = 2.0;
        flow = 4;
        subflow = 0;
        from_state = Trace.Slow_start;
        to_state = Trace.Fast_recovery;
      };
    Trace.Tcp_state
      {
        time = 2.25;
        flow = 4;
        subflow = 0;
        from_state = Trace.Fast_recovery;
        to_state = Trace.Congestion_avoidance;
      };
    Trace.Cwnd_update
      { time = 3.0; flow = 0; subflow = 1; cwnd = 14.5; ssthresh = 7.25 };
    Trace.Rto_fired { time = 4.0; flow = 1; subflow = 1; rto = 1.5 };
    Trace.Rtt_sample
      { time = 4.5; flow = 1; subflow = 0; rtt = 0.082; srtt = 0.0795 };
    Trace.Subflow_add { time = 0.0; flow = 5; subflow = 1 };
    Trace.Subflow_remove { time = 9.5; flow = 5; subflow = 1 };
  ]

let test_event_round_trip () =
  List.iter
    (fun ev ->
      let serialized = Json.to_string (Trace.to_json ev) in
      match Json.of_string serialized with
      | Error e -> Alcotest.fail ("event does not re-parse: " ^ e)
      | Ok j -> (
        match Trace.of_json j with
        | Error e -> Alcotest.fail ("event does not decode: " ^ e)
        | Ok ev' ->
          Alcotest.(check bool)
            ("round-trip: " ^ serialized)
            true (ev = ev')))
    every_variant

let test_event_bad_json () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | Error _ -> ()
      | Ok j -> (
        match Trace.of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail ("decoded a non-event: " ^ src)))
    [ {|{"ev":"no_such_event","t":1}|}; {|{"t":1}|}; {|[1,2]|} ]

(* Events recorded through a ring and written by [Trace.write_jsonl]
   come back line for line. *)
let test_jsonl_sink () =
  let path = Filename.temp_file "olia_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (), events =
        Trace.record ~capacity:64 (fun () ->
            Alcotest.(check bool) "armed" true (Trace.enabled ());
            List.iter Trace.emit every_variant)
      in
      Alcotest.(check bool) "disarmed after" false (Trace.enabled ());
      Trace.write_jsonl ~path events;
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check int)
        "one line per event"
        (List.length every_variant)
        (List.length lines);
      List.iter2
        (fun ev line ->
          match Json.of_string line with
          | Error e -> Alcotest.fail ("line is not JSON: " ^ e)
          | Ok j -> (
            match Trace.of_json j with
            | Error e -> Alcotest.fail ("line is not an event: " ^ e)
            | Ok ev' ->
              Alcotest.(check bool) "line decodes to the event" true (ev = ev')))
        every_variant lines)

(* --- counters vs Monitor --------------------------------------------- *)

(* Flood a small DropTail queue and cross-check the meter counters
   against the queue's own statistics and a Monitor drop series. *)
let test_counters_match_monitor () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:5
      ~discipline:Queue.Droptail ()
  in
  let mon = Monitor.create ~sim ~period:0.01 ~stop:0.2 () in
  Monitor.watch_drops mon "drops" q;
  let sink (_ : Packet.t) = () in
  let route = [| Queue.hop q; sink |] in
  Sim.schedule_at sim 0. (fun () ->
      for i = 0 to 19 do
        Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route)
      done);
  let meter = Meter.start () in
  Sim.run sim;
  let r =
    Meter.finish meter ~sim_s:(Sim.now sim)
      ~events_processed:(Sim.events_processed sim)
      ~max_heap_depth:(Sim.max_heap_depth sim)
      ~drops_overflow:(Queue.drops_overflow q) ~drops_red:(Queue.drops_red q)
      ~drops_random:0 ~subflow_goodput_bps:[]
  in
  Alcotest.(check int) "overflow drops" 15 r.Meter.drops_overflow;
  Alcotest.(check int) "no red drops on droptail" 0 r.Meter.drops_red;
  Alcotest.(check int)
    "split sums to the queue total"
    (Queue.drops q)
    (r.Meter.drops_overflow + r.Meter.drops_red);
  (match Repro_stats.Timeseries.last (Monitor.series mon "drops") with
  | None -> Alcotest.fail "monitor recorded nothing"
  | Some (_, v) ->
    Alcotest.(check int)
      "monitor's last sample agrees" (Queue.drops q) (int_of_float v));
  Alcotest.(check bool) "events processed" true (r.Meter.events_processed > 0);
  Alcotest.(check bool) "heap high-water mark" true (r.Meter.max_heap_depth > 0);
  Alcotest.(check bool)
    "heap mark bounds pending peak" true
    (r.Meter.max_heap_depth <= r.Meter.events_processed)

let small = { S.Scen_a.default with duration = 8.; warmup = 2. }

let test_scenario_metrics_exported () =
  let r = S.Scen_a.run small in
  let metrics = Meter.metrics r.S.Scen_a.obs in
  List.iter
    (fun key ->
      match List.assoc_opt key metrics with
      | None -> Alcotest.fail ("missing metric " ^ key)
      | Some v ->
        Alcotest.(check bool) (key ^ " finite and >= 0") true
          (Float.is_finite v && v >= 0.))
    [
      "obs_events";
      "obs_max_heap_depth";
      "obs_drops_overflow";
      "obs_drops_red";
      "obs_drops_random";
      "obs_subflow_goodput_bps_type1_sf0";
      "obs_subflow_goodput_bps_type1_sf1";
      "obs_subflow_goodput_bps_type2_sf0";
    ];
  Alcotest.(check bool)
    "a real run dispatches events" true
    (List.assoc "obs_events" metrics > 0.);
  (* the per-subflow goodputs feed the conformance harness: on scenario A
     every subflow carries traffic, so each must report a positive rate *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " positive") true
        (List.assoc key metrics > 0.))
    [
      "obs_subflow_goodput_bps_type1_sf0";
      "obs_subflow_goodput_bps_type1_sf1";
      "obs_subflow_goodput_bps_type2_sf0";
    ];
  (* and through the registry: the outcome carries the same keys *)
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find "scenario-a" in
  let outcome =
    Sc.run
      [
        ("duration", Repro_exp.Spec.Float 8.);
        ("warmup", Repro_exp.Spec.Float 2.);
      ]
  in
  Alcotest.(check bool)
    "registry outcome exports obs_events" true
    (Repro_exp.Outcome.metric outcome "obs_events" > 0.)

(* --- tracing off is a no-op ------------------------------------------ *)

let deterministic_view (r : S.Scen_a.result) =
  ( r.S.Scen_a.norm_type1,
    r.S.Scen_a.norm_type2,
    r.S.Scen_a.p1,
    r.S.Scen_a.p2,
    Meter.metrics r.S.Scen_a.obs )

let test_tracing_off_noop () =
  Alcotest.(check bool) "tests run untraced" false (Trace.enabled ());
  let before = deterministic_view (S.Scen_a.run small) in
  let traced, events =
    Trace.record ~capacity:(1 lsl 18) (fun () ->
        deterministic_view (S.Scen_a.run small))
  in
  Alcotest.(check bool) "disarmed again" false (Trace.enabled ());
  let after = deterministic_view (S.Scen_a.run small) in
  Alcotest.(check bool) "tracing emitted events" true (events <> []);
  Alcotest.(check bool) "tracing does not change results" true
    (before = traced);
  Alcotest.(check bool) "and leaves no residue" true (before = after)

(* --- perf snapshots --------------------------------------------------- *)

let snap entries = Snapshot.v ~quick:true entries

let test_snapshot_round_trip () =
  let path = Filename.temp_file "olia_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t =
        snap
          [
            Snapshot.entry ~name:Snapshot.calibration_entry ~value:1000.
              ~units:"ns/run";
            Snapshot.entry ~name:"micro/olia-increase" ~value:250.5
              ~units:"ns/run";
            Snapshot.entry ~name:"scenario/scenario-a" ~value:0.02
              ~units:"s_wall/s_sim";
          ]
      in
      Snapshot.write ~path t;
      match Snapshot.read ~path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
        Alcotest.(check bool) "round-trips" true (t = t');
        Alcotest.(check (option (float 1e-9)))
          "find" (Some 250.5)
          (Snapshot.find t' "micro/olia-increase"))

let test_snapshot_read_rejects () =
  let path = Filename.temp_file "olia_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc {|{"schema":"other/9","quick":false,"entries":[]}|};
      close_out oc;
      match Snapshot.read ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted a foreign schema")

let test_regressions_flag_slowdowns () =
  let baseline =
    snap
      [
        Snapshot.entry ~name:Snapshot.calibration_entry ~value:1000.
          ~units:"ns/run";
        Snapshot.entry ~name:"micro/a" ~value:100. ~units:"ns/run";
        Snapshot.entry ~name:"micro/b" ~value:100. ~units:"ns/run";
      ]
  in
  let current =
    snap
      [
        Snapshot.entry ~name:Snapshot.calibration_entry ~value:1000.
          ~units:"ns/run";
        Snapshot.entry ~name:"micro/a" ~value:150. ~units:"ns/run";
        Snapshot.entry ~name:"micro/b" ~value:110. ~units:"ns/run";
        Snapshot.entry ~name:"micro/new" ~value:999. ~units:"ns/run";
      ]
  in
  match Snapshot.regressions ~baseline ~current ~tolerance:0.2 () with
  | [ r ] ->
    Alcotest.(check string) "only the 1.5x entry" "micro/a" r.Snapshot.name;
    Alcotest.(check (float 1e-9)) "ratio" 1.5 r.Snapshot.ratio
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length rs))

let test_regressions_normalize_by_calibration () =
  let baseline =
    snap
      [
        Snapshot.entry ~name:Snapshot.calibration_entry ~value:1000.
          ~units:"ns/run";
        Snapshot.entry ~name:"micro/a" ~value:100. ~units:"ns/run";
      ]
  in
  (* a machine uniformly 2x slower: calibration doubles with the
     workload, so nothing is a regression *)
  let current =
    snap
      [
        Snapshot.entry ~name:Snapshot.calibration_entry ~value:2000.
          ~units:"ns/run";
        Snapshot.entry ~name:"micro/a" ~value:200. ~units:"ns/run";
      ]
  in
  Alcotest.(check int)
    "uniform slowdown normalizes away" 0
    (List.length (Snapshot.regressions ~baseline ~current ~tolerance:0.2 ()));
  (* but a genuine 1.5x on top of it is still caught *)
  let current =
    snap
      [
        Snapshot.entry ~name:Snapshot.calibration_entry ~value:2000.
          ~units:"ns/run";
        Snapshot.entry ~name:"micro/a" ~value:300. ~units:"ns/run";
      ]
  in
  Alcotest.(check int)
    "real slowdown survives normalization" 1
    (List.length (Snapshot.regressions ~baseline ~current ~tolerance:0.2 ()))

(* --- flight-recorder reports ------------------------------------------ *)

module Report = Repro_obs.Report

let member name = function
  | Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some j -> j
    | None -> Alcotest.fail ("report is missing field " ^ name))
  | _ -> Alcotest.fail ("not an object while looking up " ^ name)

let as_int name j =
  match j with
  | Json.Int i -> i
  | _ -> Alcotest.fail (name ^ " is not an int")

let test_report_accumulates () =
  let acc = Report.create () in
  let enq seq =
    Trace.Pkt_enqueue
      {
        time = 0.1 *. float_of_int seq;
        queue = "q";
        flow = 0;
        subflow = 0;
        seq;
        kind = "data";
        backlog = 1;
      }
  and drop seq cause =
    Trace.Pkt_drop
      {
        time = 0.1 *. float_of_int seq;
        queue = "q";
        flow = 0;
        subflow = 0;
        seq;
        kind = "data";
        cause;
      }
  and fwd seq =
    Trace.Pkt_forward
      {
        time = 0.1 *. float_of_int seq;
        queue = "q";
        flow = 0;
        subflow = 0;
        seq;
        kind = "data";
        bytes = 1500;
        qdelay = 0.01;
      }
  in
  (* a closed run of 3 drops (burst), then a trailing open run of 1 *)
  List.iter (Report.feed acc)
    [
      enq 0;
      drop 1 Trace.Overflow;
      drop 2 Trace.Overflow;
      drop 3 Trace.Red_early;
      fwd 4;
      drop 5 Trace.Random_loss;
      Trace.Rtt_sample { time = 1.0; flow = 1; subflow = 0; rtt = 0.1; srtt = 0.1 };
      Trace.Rtt_sample { time = 1.1; flow = 1; subflow = 0; rtt = 0.2; srtt = 0.15 };
      Trace.Rtt_sample { time = 1.2; flow = 1; subflow = 0; rtt = 0.3; srtt = 0.2 };
    ];
  let j = Report.to_json acc in
  Alcotest.(check int)
    "total events" 9
    (as_int "total" (member "total" (member "events" j)));
  let q = member "q" (member "queues" j) in
  Alcotest.(check int) "enqueued" 1 (as_int "enqueued" (member "enqueued" q));
  Alcotest.(check int) "forwarded" 1 (as_int "forwarded" (member "forwarded" q));
  let drops = member "drops" q in
  Alcotest.(check int) "drops total" 4 (as_int "total" (member "total" drops));
  Alcotest.(check int)
    "overflow split" 2
    (as_int "overflow" (member "overflow" drops));
  Alcotest.(check int)
    "red split" 1
    (as_int "red_early" (member "red_early" drops));
  let bursts = member "drop_bursts" q in
  Alcotest.(check int)
    "one closed burst; the trailing single drop is not one" 1
    (as_int "bursts" (member "bursts" bursts));
  Alcotest.(check int)
    "max run" 3
    (as_int "max_run" (member "max_run" bursts));
  Alcotest.(check int)
    "qdelay sample count" 1
    (as_int "n" (member "n" (member "qdelay_s" q)));
  let sub = member "1/0" (member "subflows" j) in
  Alcotest.(check int)
    "rtt sample count" 3
    (as_int "n" (member "n" (member "rtt_s" sub)));
  (* to_json never mutates: rendering twice is byte-identical, and the
     open drop run is still extendable afterwards *)
  Alcotest.(check string)
    "to_json is pure"
    (Json.to_string j)
    (Json.to_string (Report.to_json acc));
  Report.feed acc (drop 6 Trace.Random_loss);
  let bursts' = member "drop_bursts" (member "q" (member "queues" (Report.to_json acc))) in
  Alcotest.(check int)
    "trailing run grew into a burst" 2
    (as_int "bursts" (member "bursts" bursts'))

let test_report_jsonl_round_trip () =
  let path = Filename.temp_file "olia_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iteri
        (fun i ev ->
          (* a blank line mid-file must be skipped, not rejected *)
          if i = 2 then output_string oc "\n";
          output_string oc (Json.to_string (Trace.to_json ev));
          output_string oc "\n")
        every_variant;
      close_out oc;
      let direct = Report.create () in
      List.iter (Report.feed direct) every_variant;
      match Report.load_jsonl ~path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
        Alcotest.(check string)
          "offline replay equals the live accumulator"
          (Json.to_string (Report.to_json direct))
          (Json.to_string (Report.to_json loaded)))

let test_report_jsonl_rejects_bad_line () =
  let path = Filename.temp_file "olia_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        (Json.to_string (Trace.to_json (List.hd every_variant)));
      output_string oc "\nnot json at all\n";
      close_out oc;
      match Report.load_jsonl ~path with
      | Ok _ -> Alcotest.fail "accepted a malformed trace line"
      | Error e ->
        let has_sub sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          ("error names the file and line: " ^ e)
          true
          (has_sub (path ^ ":2:") e))

(* Two identical runs must render byte-identical report JSON: reports
   are a pure function of the trace stream, which is a pure function of
   the seed. *)
let test_report_deterministic_across_runs () =
  let render () =
    let acc = Report.create () in
    let (_ : S.Scen_a.result), events =
      Trace.record ~capacity:(1 lsl 18) (fun () -> S.Scen_a.run small)
    in
    List.iter (Report.feed acc) events;
    Json.to_string (Report.to_json acc)
  in
  let first = render () in
  let second = render () in
  Alcotest.(check bool) "report JSON is byte-identical" true (first = second);
  Alcotest.(check bool)
    "and non-trivial" true
    (String.length first > 100)

(* --- sweeps under tracing ------------------------------------------- *)

(* Tracing is per-worker: each domain binds its own ring, so a
   multi-worker sweep runs armed, and runs the same disarmed. *)
let test_sweep_runs_with_rings () =
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find "scenario-a" in
  let point seed =
    [
      ("duration", Repro_exp.Spec.Float 2.);
      ("warmup", Repro_exp.Spec.Float 0.5);
      ("seed", Repro_exp.Spec.Int seed);
    ]
  in
  (* Two points so the ~domains:2 request actually spawns two workers;
     a single point degrades to the sequential path. *)
  let pts = [ point 1; point 2 ] in
  (* Rings armed: each worker binds its own ring and the sweep runs. *)
  Trace.arm_rings ~capacity:(1 lsl 16) ();
  (Fun.protect
     ~finally:(fun () -> Trace.disarm_rings ())
     (fun () ->
       match Repro_exp.Sweep.run ~domains:2 (module Sc) pts with
       | ps ->
         Alcotest.(check int) "ring-traced sweep covers every point" 2
           (List.length ps);
         Alcotest.(check bool)
           "worker rings captured events" true
           (List.length (Trace.decode_rings ()) > 0)));
  match Repro_exp.Sweep.run ~domains:2 (module Sc) pts with
  | ps ->
    Alcotest.(check int) "untraced sweep covers every point" 2
      (List.length ps);
    List.iter
      (fun p ->
        Alcotest.(check bool)
          "untraced sweep runs fine" true
          (Repro_exp.Outcome.metric p.Repro_exp.Sweep.outcome "obs_events"
          > 0.))
      ps

(* --- trace rings -------------------------------------------------------- *)

module Ring = Repro_obs.Ring

(* Circular-buffer mechanics: a Drop_oldest ring past capacity keeps
   exactly the newest [capacity] records, counts the overwritten ones,
   and [slot_of_index] walks the survivors oldest-to-newest. *)
let test_ring_wraparound () =
  let r = Ring.create ~shard:0 ~capacity:8 ~policy:Ring.Drop_oldest in
  for i = 0 to 19 do
    let s = Ring.claim r in
    Ring.set_i r s 0 i;
    Ring.set_f r s 0 (float_of_int i)
  done;
  Alcotest.(check int) "length capped at capacity" 8 (Ring.length r);
  Alcotest.(check int) "overwritten records counted" 12 (Ring.dropped r);
  Alcotest.(check int) "written counts every claim" 20 (Ring.written r);
  Alcotest.(check (list int))
    "retains the newest, oldest-to-newest"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.init (Ring.length r) (fun i ->
         Ring.get_i r (Ring.slot_of_index r i) 0));
  Alcotest.(check (list (float 0.)))
    "float lane wraps in step"
    [ 12.; 13.; 14.; 15.; 16.; 17.; 18.; 19. ]
    (List.init (Ring.length r) (fun i ->
         Ring.get_f r (Ring.slot_of_index r i) 0));
  Ring.reset r;
  Alcotest.(check int) "reset forgets the records" 0 (Ring.length r);
  Alcotest.(check int) "and the drop count" 0 (Ring.dropped r)

(* Fail_fast refuses the record that would overwrite history; the null
   ring (an unbound domain) refuses every record. *)
let test_ring_fail_fast () =
  let r = Ring.create ~shard:1 ~capacity:4 ~policy:Ring.Fail_fast in
  for i = 0 to 3 do
    let s = Ring.claim r in
    Ring.set_i r s 0 i
  done;
  (match Ring.claim r with
  | _ -> Alcotest.fail "expected Ring.Full"
  | exception Ring.Full -> ());
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check int) "the four survivors intact" 4 (Ring.length r);
  match Ring.claim Ring.null with
  | _ -> Alcotest.fail "null ring accepted a record"
  | exception Ring.Full -> ()

(* One event of each shape, with fields derived from the index and a
   strictly increasing timestamp so the decoder's sort is total. *)
let mk_event tag i =
  let time = float_of_int (i + 1) *. 1e-3 in
  let q = "rq" ^ string_of_int (i mod 3) in
  let kind = if i mod 2 = 0 then "data" else "ack" in
  match tag mod 9 with
  | 0 ->
    Trace.Pkt_enqueue
      { time; queue = q; flow = i; subflow = i mod 2; seq = i; kind;
        backlog = i mod 7 }
  | 1 ->
    Trace.Pkt_drop
      { time; queue = q; flow = i; subflow = 0; seq = i; kind;
        cause =
          (match i mod 4 with
          | 0 -> Trace.Overflow
          | 1 -> Trace.Red_early
          | 2 -> Trace.Random_loss
          | _ -> Trace.Link_down) }
  | 2 ->
    Trace.Pkt_forward
      { time; queue = q; flow = i; subflow = 0; seq = i; kind; bytes = 1500;
        qdelay = float_of_int i *. 1e-4 }
  | 3 ->
    Trace.Tcp_state
      { time; flow = i; subflow = 0; from_state = Trace.Slow_start;
        to_state = Trace.Congestion_avoidance }
  | 4 ->
    Trace.Cwnd_update
      { time; flow = i; subflow = 0; cwnd = float_of_int i;
        ssthresh = float_of_int i /. 2. }
  | 5 -> Trace.Rto_fired { time; flow = i; subflow = 0; rto = 0.25 }
  | 6 -> Trace.Rtt_sample { time; flow = i; subflow = 0; rtt = 0.01; srtt = 0.02 }
  | 7 -> Trace.Subflow_add { time; flow = i; subflow = 1 }
  | _ -> Trace.Subflow_remove { time; flow = i; subflow = 1 }

(* The merge property under the sharded CI gate, minus the simulator:
   however events are partitioned across per-shard rings, the decode is
   the one a single ring would produce. Each event is its own dispatch,
   as in the scheduler, which never splits one dispatch across rings.
   Timestamps are distinct, so the canonical order is unique and the
   test is exact. *)
let prop_decode_partition_invariant =
  QCheck.Test.make ~name:"ring decode is partition-invariant" ~count:75
    QCheck.(pair (small_list (pair (int_bound 8) (int_bound 3))) (int_range 1 4))
    (fun (cells, shards) ->
      let tagged =
        List.mapi (fun i (tag, s) -> (mk_event tag i, s mod shards)) cells
      in
      let decode groups =
        Trace.arm_rings ~capacity:4096 ();
        Fun.protect
          ~finally:(fun () -> Trace.disarm_rings ())
          (fun () ->
            List.iter
              (fun (shard, evs) ->
                Trace.bind_ring ~shard;
                List.iter
                  (fun ev ->
                    Trace.set_dispatch_ctx ~sched:0. ~cls:0 ~flow:0 ~subflow:0
                      ~pseq:0 ~kind:0;
                    Trace.emit ev)
                  evs)
              groups;
            Trace.unbind_ring ();
            Trace.decode_rings ())
      in
      let single = decode [ (0, List.map fst tagged) ] in
      let sharded =
        decode
          (List.init shards (fun s ->
               ( s,
                 List.filter_map
                   (fun (ev, s') -> if s' = s then Some ev else None)
                   tagged )))
      in
      single = sharded)

(* Same build probe as test_timer.ml: dev builds pass [-opaque], which
   discards the cross-module inlining info the unboxed call paths rely
   on. Probe with Sim's own inlined schedule path to classify. *)
let build_inlines_hot_paths () =
  let sim = Repro_netsim.Sim.create () in
  let fn () = () in
  let sched i =
    Repro_netsim.Sim.Timer.cancel sim
      (Repro_netsim.Sim.schedule_after sim
         (float_of_int i *. 1e-9) fn)
  in
  for i = 1 to 100 do
    sched i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    sched i
  done;
  let w1 = Gc.minor_words () in
  w1 -. w0 < 100.

(* The tentpole's allocation contract, Gc-asserted: armed ring-mode
   emission writes fixed-width records without touching the minor heap.
   Exact in inlining (release) builds; dev builds box each float
   argument at the non-inlined call boundary, so a loose per-event
   bound still catches a record or closure picked up per event. *)
let test_armed_emission_zero_alloc () =
  Trace.arm_rings ~capacity:(1 lsl 14) ();
  Fun.protect
    ~finally:(fun () -> Trace.disarm_rings ())
    (fun () ->
      Trace.bind_ring ~shard:0;
      let q = Trace.intern "zeroalloc-q" in
      Trace.set_dispatch_ctx ~sched:0. ~cls:1 ~flow:1 ~subflow:0 ~pseq:0
        ~kind:0;
      let burst n =
        for i = 1 to n do
          let t = float_of_int i *. 1e-6 in
          Trace.pkt_forward ~time:t ~queue:q ~flow:1 ~subflow:0 ~seq:i ~kind:0
            ~bytes:1500 ~qdelay:t;
          Trace.cwnd_update ~time:t ~flow:1 ~subflow:0 ~cwnd:t ~ssthresh:t;
          Trace.rtt_sample ~time:t ~flow:1 ~subflow:0 ~rtt:t ~srtt:t
        done
      in
      burst 200 (* warm-up: fault the lanes, populate DLS *);
      let w0 = Gc.minor_words () in
      burst 2000;
      let w1 = Gc.minor_words () in
      let events = 3 * 2000 in
      Alcotest.(check int) "no overflow during the burst" 0
        (Trace.rings_dropped ());
      Alcotest.(check bool) "records landed in the ring" true
        (List.length (Trace.decode_rings ()) = 3 * 2200);
      if Sys.backend_type = Sys.Native then
        if build_inlines_hot_paths () then
          Alcotest.(check (float 0.))
            (Printf.sprintf "minor words for %d armed emissions" events)
            0. (w1 -. w0)
        else begin
          let per_ev = (w1 -. w0) /. float_of_int events in
          Alcotest.(check bool)
            (Printf.sprintf "minor words per event (%.1f) < 16" per_ev)
            true (per_ev < 16.)
        end)

let suite =
  [
    Alcotest.test_case "every event variant round-trips JSONL" `Quick
      test_event_round_trip;
    Alcotest.test_case "malformed events rejected" `Quick test_event_bad_json;
    Alcotest.test_case "JSONL file sink" `Quick test_jsonl_sink;
    Alcotest.test_case "meter counters agree with Monitor and Queue" `Quick
      test_counters_match_monitor;
    Alcotest.test_case "scenario runs export obs_* metrics" `Quick
      test_scenario_metrics_exported;
    Alcotest.test_case "tracing changes nothing but emits events" `Quick
      test_tracing_off_noop;
    Alcotest.test_case "snapshot round-trips" `Quick test_snapshot_round_trip;
    Alcotest.test_case "snapshot read rejects foreign schemas" `Quick
      test_snapshot_read_rejects;
    Alcotest.test_case "regression gate flags slowdowns" `Quick
      test_regressions_flag_slowdowns;
    Alcotest.test_case "regression gate normalizes by calibration" `Quick
      test_regressions_normalize_by_calibration;
    Alcotest.test_case "report accumulates queue and subflow stats" `Quick
      test_report_accumulates;
    Alcotest.test_case "report replays JSONL traces offline" `Quick
      test_report_jsonl_round_trip;
    Alcotest.test_case "report rejects malformed trace lines" `Quick
      test_report_jsonl_rejects_bad_line;
    Alcotest.test_case "report JSON byte-identical across runs" `Quick
      test_report_deterministic_across_runs;
    Alcotest.test_case "sweeps run with rings" `Slow
      test_sweep_runs_with_rings;
    Alcotest.test_case "ring wraparound keeps the newest records" `Quick
      test_ring_wraparound;
    Alcotest.test_case "fail-fast and null rings refuse records" `Quick
      test_ring_fail_fast;
    QCheck_alcotest.to_alcotest prop_decode_partition_invariant;
    Alcotest.test_case "armed ring emission stays off the minor heap" `Quick
      test_armed_emission_zero_alloc;
  ]
