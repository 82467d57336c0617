open Mptcp_repro.Netsim

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at sim t f = ignore (Sim.schedule_at sim t f : Sim.Timer.t)
  let schedule_after sim d f = ignore (Sim.schedule_after sim d f : Sim.Timer.t)
end

let check_close eps = Alcotest.(check (float eps))

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.float a = Rng.float b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  let x = Rng.float a and y = Rng.float b in
  Alcotest.(check bool) "distinct" true (x <> y)

let test_rng_float_range () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let r = Rng.create ~seed:4 in
  let seen = Array.make 7 false in
  for _ = 1 to 500 do
    let i = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (i >= 0 && i < 7);
    seen.(i) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_invalid () =
  let r = Rng.create ~seed:4 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20000 in
  let acc = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:0.2 in
    Alcotest.(check bool) "positive" true (x >= 0.);
    acc := !acc +. x
  done;
  check_close 0.01 "mean" 0.2 (!acc /. float_of_int n)

let test_rng_permutation () =
  let r = Rng.create ~seed:13 in
  let p = Rng.permutation r 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 Fun.id) sorted

let test_rng_derangement () =
  let r = Rng.create ~seed:17 in
  for _ = 1 to 20 do
    let p = Rng.derangement_permutation r 10 in
    Array.iteri
      (fun i v -> Alcotest.(check bool) "no fixed point" true (i <> v))
      p
  done

let test_rng_derangement_n2 () =
  let r = Rng.create ~seed:19 in
  let p = Rng.derangement_permutation r 2 in
  Alcotest.(check (array int)) "swap" [| 1; 0 |] p

let prop_shuffle_preserves_elements =
  QCheck.Test.make ~name:"rng: shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Rng.shuffle (Rng.create ~seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* --- Sim --------------------------------------------------------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_at sim 3. (fun () -> log := 3 :: !log);
  Sim.schedule_at sim 1. (fun () -> log := 1 :: !log);
  Sim.schedule_at sim 2. (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.schedule_at sim 1. (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "insertion order at equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0. in
  Sim.schedule_at sim 2.5 (fun () -> seen := Sim.now sim);
  Sim.run sim;
  check_close 1e-12 "clock at event" 2.5 !seen

let test_sim_run_until_horizon () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule_at sim 10. (fun () -> fired := true);
  Sim.run_until sim 5.;
  Alcotest.(check bool) "not yet" false !fired;
  check_close 1e-12 "clock at horizon" 5. (Sim.now sim);
  Sim.run_until sim 15.;
  Alcotest.(check bool) "fired" true !fired

let test_sim_schedule_during_run () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_at sim 1. (fun () ->
      log := "a" :: !log;
      Sim.schedule_after sim 1. (fun () -> log := "b" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log)

let test_sim_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule_at sim 5. (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Sim.schedule_at: time in the past") (fun () ->
          Sim.schedule_at sim 1. (fun () -> ())));
  Sim.run sim

let test_sim_pending_and_processed () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    Sim.schedule_at sim (float_of_int i) (fun () -> ())
  done;
  Alcotest.(check int) "pending" 5 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "drained" 0 (Sim.pending sim);
  Alcotest.(check int) "processed" 5 (Sim.events_processed sim)

let prop_sim_heap_orders_events =
  QCheck.Test.make ~name:"sim: events always fire in time order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 0. 100.))
    (fun times ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter
        (fun t -> Sim.schedule_at sim t (fun () -> fired := t :: !fired))
        times;
      Sim.run sim;
      let fired = List.rev !fired in
      fired = List.stable_sort compare times)

(* --- Packet ------------------------------------------------------------ *)

let test_packet_forward_advances () =
  let visits = ref [] in
  let hop name p =
    visits := name :: !visits;
    if name <> "c" then Packet.forward p
  in
  let route = [| hop "a"; hop "b"; hop "c" |] in
  let p = Packet.data ~flow:1 ~subflow:0 ~seq:7 ~sent_at:0. ~route in
  Packet.forward p;
  Alcotest.(check (list string)) "visits all hops" [ "a"; "b"; "c" ]
    (List.rev !visits)

let test_packet_sizes () =
  let p = Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route:[||] in
  Alcotest.(check int) "data" 1500 p.Packet.size_bytes;
  let a =
    Packet.ack ~flow:0 ~subflow:0 ~ackno:0 ~echo:0. ~sack:None ~route:[||]
      ~sent_at:0.
  in
  Alcotest.(check int) "ack" 40 a.Packet.size_bytes

(* --- Pipe --------------------------------------------------------------- *)

let test_pipe_delays () =
  let sim = Sim.create () in
  let pipe = Pipe.create ~sim ~delay:0.25 in
  let arrival = ref nan in
  let sink p =
    ignore p;
    arrival := Sim.now sim
  in
  let route = [| Pipe.hop pipe; sink |] in
  let p = Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route in
  Sim.schedule_at sim 1. (fun () -> Packet.forward p);
  Sim.run sim;
  check_close 1e-12 "arrival time" 1.25 !arrival

let test_pipe_rejects_negative () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Pipe.create: negative delay")
    (fun () -> ignore (Pipe.create ~sim ~delay:(-1.)))

let test_pipe_preserves_order_and_concurrency () =
  let sim = Sim.create () in
  let pipe = Pipe.create ~sim ~delay:0.1 in
  let arrivals = ref [] in
  let sink (p : Packet.t) = arrivals := (p.Packet.seq, Sim.now sim) :: !arrivals in
  let route = [| Pipe.hop pipe; sink |] in
  (* two packets 10 ms apart both experience exactly 100 ms *)
  Sim.schedule_at sim 0. (fun () ->
      Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:1 ~sent_at:0. ~route));
  Sim.schedule_at sim 0.01 (fun () ->
      Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:2 ~sent_at:0. ~route));
  Sim.run sim;
  match List.rev !arrivals with
  | [ (1, t1); (2, t2) ] ->
    check_close 1e-12 "first" 0.1 t1;
    check_close 1e-12 "second" 0.11 t2
  | _ -> Alcotest.fail "expected two arrivals"

(* --- Queue --------------------------------------------------------------- *)

let data_to ~route seq = Packet.data ~flow:0 ~subflow:0 ~seq ~sent_at:0. ~route

let test_queue_serialization_rate () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  (* 1500 B at 12 Mb/s = 1 ms per packet *)
  let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:10
      ~discipline:Queue.Droptail () in
  let times = ref [] in
  let sink (_ : Packet.t) = times := Sim.now sim :: !times in
  let route = [| Queue.hop q; sink |] in
  Sim.schedule_at sim 0. (fun () ->
      Packet.forward (data_to ~route 0);
      Packet.forward (data_to ~route 1);
      Packet.forward (data_to ~route 2));
  Sim.run sim;
  match List.rev !times with
  | [ a; b; c ] ->
    check_close 1e-9 "first" 0.001 a;
    check_close 1e-9 "second" 0.002 b;
    check_close 1e-9 "third" 0.003 c
  | _ -> Alcotest.fail "expected three deliveries"

let test_queue_droptail_overflow () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:5
      ~discipline:Queue.Droptail () in
  let delivered = ref 0 in
  let sink (_ : Packet.t) = incr delivered in
  let route = [| Queue.hop q; sink |] in
  Sim.schedule_at sim 0. (fun () ->
      for i = 0 to 19 do
        Packet.forward (data_to ~route i)
      done);
  Sim.run sim;
  Alcotest.(check int) "five pass" 5 !delivered;
  Alcotest.(check int) "rest dropped" 15 (Queue.drops q);
  Alcotest.(check int) "all arrivals counted" 20 (Queue.arrivals q);
  check_close 1e-9 "loss probability" 0.75 (Queue.loss_probability q)

let test_queue_red_drops_under_sustained_load () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:2 in
  let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:300
      ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:12.)) () in
  let sink (_ : Packet.t) = () in
  let route = [| Queue.hop q; sink |] in
  (* 2x overload for 4 seconds *)
  let rec offer i =
    if i < 8000 then begin
      Packet.forward (data_to ~route i);
      Sim.schedule_after sim 0.0005 (fun () -> offer (i + 1))
    end
  in
  Sim.schedule_at sim 0. (fun () -> offer 0);
  Sim.run sim;
  Alcotest.(check bool) "red drops" true (Queue.drops q > 0);
  (* RED keeps the backlog mostly below the hard limit *)
  Alcotest.(check bool) "buffer never the binding constraint" true
    (Queue.backlog q < 300)

let test_queue_red_no_drops_light_load () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:300
      ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:12.)) () in
  let sink (_ : Packet.t) = () in
  let route = [| Queue.hop q; sink |] in
  (* offered load at half capacity: average queue stays < min_th *)
  let rec offer i =
    if i < 2000 then begin
      Packet.forward (data_to ~route i);
      Sim.schedule_after sim 0.002 (fun () -> offer (i + 1))
    end
  in
  Sim.schedule_at sim 0. (fun () -> offer 0);
  Sim.run sim;
  Alcotest.(check int) "no drops" 0 (Queue.drops q)

let test_queue_red_profile () =
  (* paper: p = 0 below min_th, 0.1 at max_th, then linear to 1 at 2max_th *)
  let params = Queue.paper_red ~link_mbps:10. in
  check_close 1e-9 "min_th" 25. params.Queue.min_th;
  check_close 1e-9 "max_th" 50. params.Queue.max_th;
  check_close 1e-9 "max_p" 0.1 params.Queue.max_p;
  let scaled = Queue.paper_red ~link_mbps:20. in
  check_close 1e-9 "scales with capacity" 50. scaled.Queue.min_th

let test_queue_ack_not_counted_in_loss_stats () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:4 in
  let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:10
      ~discipline:Queue.Droptail () in
  let sink (_ : Packet.t) = () in
  let route = [| Queue.hop q; sink |] in
  Sim.schedule_at sim 0. (fun () ->
      Packet.forward
        (Packet.ack ~flow:0 ~subflow:0 ~ackno:0 ~echo:0. ~sack:None ~route
           ~sent_at:0.));
  Sim.run sim;
  Alcotest.(check int) "acks invisible to loss stats" 0 (Queue.arrivals q)

let test_queue_utilization_and_reset () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:10
      ~discipline:Queue.Droptail () in
  let sink (_ : Packet.t) = () in
  let route = [| Queue.hop q; sink |] in
  Sim.schedule_at sim 0. (fun () ->
      for i = 0 to 4 do
        Packet.forward (data_to ~route i)
      done);
  Sim.run sim;
  (* 5 packets in 5 ms of busy time; over a 10 ms window: 50% *)
  check_close 1e-9 "utilization" 0.5 (Queue.utilization q ~since:0. ~now:0.01);
  Queue.reset_stats q;
  Alcotest.(check int) "reset" 0 (Queue.arrivals q);
  check_close 1e-9 "bytes reset" 0.
    (Queue.utilization q ~since:0. ~now:0.01)

let test_queue_invalid_args () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "rate" (Invalid_argument "Queue.create: rate must be > 0")
    (fun () ->
      ignore
        (Queue.create ~sim ~rng ~rate_bps:0. ~buffer_pkts:10
           ~discipline:Queue.Droptail ()));
  Alcotest.check_raises "buffer"
    (Invalid_argument "Queue.create: buffer must be > 0") (fun () ->
      ignore
        (Queue.create ~sim ~rng ~rate_bps:1e6 ~buffer_pkts:0
           ~discipline:Queue.Droptail ()))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng: split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng: int range covers" `Quick test_rng_int_range;
    Alcotest.test_case "rng: int invalid bound" `Quick test_rng_int_invalid;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: permutation" `Quick test_rng_permutation;
    Alcotest.test_case "rng: derangement" `Quick test_rng_derangement;
    Alcotest.test_case "rng: derangement n=2" `Quick test_rng_derangement_n2;
    q prop_shuffle_preserves_elements;
    Alcotest.test_case "sim: time ordering" `Quick test_sim_ordering;
    Alcotest.test_case "sim: FIFO tie-break" `Quick test_sim_fifo_ties;
    Alcotest.test_case "sim: clock advances" `Quick test_sim_clock_advances;
    Alcotest.test_case "sim: run_until horizon" `Quick test_sim_run_until_horizon;
    Alcotest.test_case "sim: schedule during run" `Quick
      test_sim_schedule_during_run;
    Alcotest.test_case "sim: rejects past events" `Quick test_sim_rejects_past;
    Alcotest.test_case "sim: pending/processed counters" `Quick
      test_sim_pending_and_processed;
    q prop_sim_heap_orders_events;
    Alcotest.test_case "packet: forward walks route" `Quick
      test_packet_forward_advances;
    Alcotest.test_case "packet: sizes" `Quick test_packet_sizes;
    Alcotest.test_case "pipe: constant delay" `Quick test_pipe_delays;
    Alcotest.test_case "pipe: rejects negative delay" `Quick
      test_pipe_rejects_negative;
    Alcotest.test_case "pipe: order and concurrency" `Quick
      test_pipe_preserves_order_and_concurrency;
    Alcotest.test_case "queue: serialization rate" `Quick
      test_queue_serialization_rate;
    Alcotest.test_case "queue: droptail overflow" `Quick
      test_queue_droptail_overflow;
    Alcotest.test_case "queue: RED drops under load" `Quick
      test_queue_red_drops_under_sustained_load;
    Alcotest.test_case "queue: RED quiet under light load" `Quick
      test_queue_red_no_drops_light_load;
    Alcotest.test_case "queue: paper RED profile" `Quick test_queue_red_profile;
    Alcotest.test_case "queue: acks not in loss stats" `Quick
      test_queue_ack_not_counted_in_loss_stats;
    Alcotest.test_case "queue: utilization and reset" `Quick
      test_queue_utilization_and_reset;
    Alcotest.test_case "queue: invalid args" `Quick test_queue_invalid_args;
  ]

(* --- Invariant -------------------------------------------------------- *)

(* arm/disarm around each body so the rest of the suite keeps its
   default-off behaviour *)
let with_invariants f =
  Invariant.set_enabled true;
  Fun.protect ~finally:(fun () -> Invariant.set_enabled false) f

let test_invariant_gate () =
  Invariant.set_enabled false;
  Alcotest.(check bool) "disarmed" false (Invariant.enabled ());
  with_invariants (fun () ->
      Alcotest.(check bool) "armed" true (Invariant.enabled ());
      Invariant.require true "never raised";
      Alcotest.check_raises "require false"
        (Invariant.Violation "broken") (fun () ->
          Invariant.require false "broken"))

let test_invariant_route_overrun () =
  with_invariants (fun () ->
      let p = Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route:[||] in
      match Packet.forward p with
      | () -> Alcotest.fail "empty route accepted"
      | exception Invariant.Violation _ -> ())

let test_invariant_queue_clean_run () =
  (* the droptail overflow scenario again, with conservation checks
     armed on every enqueue and service completion: a miscount raises *)
  with_invariants (fun () ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed:1 in
      let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:5
          ~discipline:Queue.Droptail () in
      let delivered = ref 0 in
      let sink (_ : Packet.t) = incr delivered in
      let route = [| Queue.hop q; sink |] in
      Sim.schedule_at sim 0. (fun () ->
          for i = 0 to 19 do
            Packet.forward (data_to ~route i)
          done);
      Sim.run sim;
      Alcotest.(check int) "five pass" 5 !delivered;
      Alcotest.(check int) "capacity exposed" 5 (Queue.capacity q))

let test_invariant_survives_stats_reset () =
  (* reset_stats must not zero the conservation counters mid-run *)
  with_invariants (fun () ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed:7 in
      let q = Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:8
          ~discipline:Queue.Droptail () in
      let route = [| Queue.hop q; (fun (_ : Packet.t) -> ()) |] in
      Sim.schedule_at sim 0. (fun () ->
          for i = 0 to 5 do
            Packet.forward (data_to ~route i)
          done);
      Sim.schedule_at sim 0.001 (fun () -> Queue.reset_stats q);
      Sim.schedule_at sim 0.002 (fun () ->
          for i = 6 to 11 do
            Packet.forward (data_to ~route i)
          done);
      Sim.run sim;
      Alcotest.(check int) "post-reset arrivals only" 6 (Queue.arrivals q))

let suite =
  suite
  @ [
      Alcotest.test_case "invariant: gate and require" `Quick
        test_invariant_gate;
      Alcotest.test_case "invariant: route overrun caught" `Quick
        test_invariant_route_overrun;
      Alcotest.test_case "invariant: conservation on clean run" `Quick
        test_invariant_queue_clean_run;
      Alcotest.test_case "invariant: counters survive reset_stats" `Quick
        test_invariant_survives_stats_reset;
    ]
