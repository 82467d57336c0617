(* The Timer.t half of the scheduler API: cancellation, rescheduling,
   periodic timers, and the hierarchical timing wheel behind them. The
   centrepiece is a model-based property checking the wheel dispatches
   exactly like a reference (time, seq) heap over random workloads of
   schedule/cancel/reschedule — the wheel is an optimization, never a
   semantic change. A final test pins the performance contract: the
   steady-state packet path allocates nothing on the minor heap. *)

open Mptcp_repro.Netsim

(* --- reference model --------------------------------------------------- *)

(* One pending event as the specification sees it: fire in ascending
   (time, seq) order, seq taken at scheduling (or rescheduling) time. *)
type model_ev = { id : int; mutable m_time : float; mutable m_seq : int }

let model_compare a b =
  let c = compare a.m_time b.m_time in
  if c <> 0 then c else compare a.m_seq b.m_seq

(* Random workload interleaving schedule, cancel, reschedule and
   run_until, mirrored against the model. Times span all wheel levels:
   sub-microsecond, seconds, and hours. *)
let prop_wheel_matches_reference_heap =
  QCheck.Test.make ~name:"timer: wheel dispatches like a (time, seq) heap"
    ~count:80
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let sim = Sim.create () in
      let fired = ref [] in
      (* both live and already-fired handles: cancelling a stale handle
         must be a no-op, so the workload tries it *)
      let pending = ref [] in
      let stale = ref [] in
      let model = ref [] in
      let model_seq = ref 0 in
      let take_seq () =
        let s = !model_seq in
        incr model_seq;
        s
      in
      let rand_delay () =
        match Rng.int rng 4 with
        | 0 -> Rng.uniform rng 1e-5
        | 1 -> Rng.uniform rng 1.
        | 2 -> Rng.uniform rng 60.
        | _ -> Rng.uniform rng 7200.
      in
      let next_id = ref 0 in
      let schedule () =
        let id = !next_id in
        incr next_id;
        let time = Sim.now sim +. rand_delay () in
        let h =
          Sim.schedule_at sim time (fun () -> fired := id :: !fired)
        in
        let ev = { id; m_time = time; m_seq = take_seq () } in
        pending := (h, ev) :: !pending;
        model := ev :: !model
      in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let cancel () =
        match !pending with
        | [] -> ()
        | l ->
          let h, ev = pick l in
          Sim.Timer.cancel sim h;
          pending := List.filter (fun (h', _) -> h' != h) !pending;
          model := List.filter (fun e -> e != ev) !model
      in
      let cancel_stale () =
        match !stale with [] -> () | l -> Sim.Timer.cancel sim (pick l)
      in
      let reschedule () =
        match !pending with
        | [] -> ()
        | l ->
          let h, ev = pick l in
          let time = Sim.now sim +. rand_delay () in
          Sim.Timer.reschedule sim h time;
          ev.m_time <- time;
          ev.m_seq <- take_seq ()
      in
      let run_step () =
        let horizon = Sim.now sim +. rand_delay () in
        Sim.run_until sim horizon;
        (* everything due has fired: move it out of the model in
           specification order and out of the live handle set *)
        let due, rest =
          List.partition (fun e -> e.m_time <= horizon) !model
        in
        let due = List.sort model_compare due in
        model := rest;
        let due_ids = List.map (fun e -> e.id) due in
        pending :=
          List.filter
            (fun (h, e) ->
              if List.memq e due then begin
                stale := h :: !stale;
                false
              end
              else true)
            !pending;
        due_ids
      in
      let expected = ref [] in
      for _ = 1 to 8 do
        for _ = 1 to 25 do
          match Rng.int rng 10 with
          | 0 | 1 -> cancel ()
          | 2 -> cancel_stale ()
          | 3 | 4 -> reschedule ()
          | _ -> schedule ()
        done;
        expected := !expected @ run_step ()
      done;
      Sim.run sim;
      expected := !expected @ List.map (fun e -> e.id) (List.sort model_compare !model);
      List.rev !fired = !expected)

(* --- cancel ------------------------------------------------------------ *)

let test_cancel_before_fire () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim 1. (fun () -> fired := true) in
  Alcotest.(check bool) "active before" true (Sim.Timer.active sim h);
  Sim.Timer.cancel sim h;
  Alcotest.(check bool) "inactive after cancel" false (Sim.Timer.active sim h);
  Sim.run sim;
  Alcotest.(check bool) "never fired" false !fired;
  Alcotest.(check int) "nothing dispatched" 0 (Sim.events_processed sim)

let test_cancel_after_fire_noop () =
  let sim = Sim.create () in
  let h = Sim.schedule_at sim 1. (fun () -> ()) in
  (* a later event whose cell may reuse the cancelled slot *)
  let fired = ref false in
  Sim.run_until sim 1.5;
  Alcotest.(check bool) "stale after fire" false (Sim.Timer.active sim h);
  Sim.Timer.cancel sim h;
  Sim.Timer.cancel sim h;
  ignore
    (Sim.schedule_at sim 2. (fun () -> fired := true)
      : Sim.Timer.t);
  Sim.Timer.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "unrelated event survives stale cancels" true !fired

let test_timer_none_inert () =
  let sim = Sim.create () in
  Alcotest.(check bool) "none is inactive" false
    (Sim.Timer.active sim Sim.Timer.none);
  Sim.Timer.cancel sim Sim.Timer.none

(* --- reschedule -------------------------------------------------------- *)

let test_reschedule_moves_deadline () =
  let sim = Sim.create () in
  let at = ref nan in
  let h = Sim.schedule_at sim 1. (fun () -> at := Sim.now sim) in
  Sim.Timer.reschedule sim h 3.;
  Sim.run sim;
  Alcotest.(check (float 0.)) "fires at the new time" 3. !at;
  Alcotest.(check int) "one dispatch" 1 (Sim.events_processed sim)

let test_reschedule_backward_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim 5. (fun () -> ()) : Sim.Timer.t);
  Sim.run_until sim 2.;
  let h = Sim.schedule_at sim 4. (fun () -> ()) in
  Alcotest.check_raises "backward reschedule"
    (Invalid_argument "Sim.Timer.reschedule: time in the past") (fun () ->
      Sim.Timer.reschedule sim h 1.);
  Alcotest.check_raises "non-finite reschedule"
    (Invalid_argument "Sim.Timer.reschedule: non-finite time") (fun () ->
      Sim.Timer.reschedule sim h nan)

let test_reschedule_stale_rejected () =
  let sim = Sim.create () in
  let h = Sim.schedule_at sim 1. (fun () -> ()) in
  Sim.run sim;
  Alcotest.check_raises "stale handle"
    (Invalid_argument "Sim.Timer.reschedule: timer not active") (fun () ->
      Sim.Timer.reschedule sim h 2.)

(* --- non-finite times -------------------------------------------------- *)

let test_non_finite_rejected () =
  let sim = Sim.create () in
  List.iter
    (fun bad ->
      Alcotest.check_raises "non-finite schedule"
        (Invalid_argument "Sim.schedule_at: non-finite time") (fun () ->
          ignore
            (Sim.schedule_at sim bad (fun () -> ())
              : Sim.Timer.t)))
    [ nan; infinity; neg_infinity ]

(* A periodic timer keeps the queue non-empty, so a horizon no event
   time ever exceeds (nan, infinity) would dispatch forever. *)
let test_non_finite_horizon_rejected () =
  let sim = Sim.create () in
  ignore (Sim.every sim 0.5 (fun () -> ()) : Sim.Timer.t);
  List.iter
    (fun bad ->
      Alcotest.check_raises "non-finite horizon"
        (Invalid_argument "Sim.run_until: non-finite horizon") (fun () ->
          Sim.run_until sim bad))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check (float 0.)) "clock untouched" 0. (Sim.now sim)

(* --- every ------------------------------------------------------------- *)

let test_every_fires_periodically () =
  let sim = Sim.create () in
  let times = ref [] in
  let t =
    Sim.every sim 0.5 (fun () -> times := Sim.now sim :: !times)
  in
  Sim.run_until sim 2.25;
  Sim.Timer.cancel sim t;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9)))
    "first fire at now + period, then every period" [ 0.5; 1.; 1.5; 2. ]
    (List.rev !times)

let test_every_explicit_start () =
  let sim = Sim.create () in
  let times = ref [] in
  let t =
    Sim.every ~start:0. sim 1. (fun () -> times := Sim.now sim :: !times)
  in
  Sim.run_until sim 2.5;
  Sim.Timer.cancel sim t;
  Alcotest.(check (list (float 1e-9))) "starts where told" [ 0.; 1.; 2. ]
    (List.rev !times)

let test_every_self_cancel () =
  let sim = Sim.create () in
  let n = ref 0 in
  let t = ref Sim.Timer.none in
  t :=
    Sim.every sim 1. (fun () ->
        incr n;
        if !n = 3 then Sim.Timer.cancel sim !t);
  Sim.run sim;
  Alcotest.(check int) "stops itself after three ticks" 3 !n;
  Alcotest.(check bool) "handle is dead" false (Sim.Timer.active sim !t)

let test_every_not_reschedulable () =
  let sim = Sim.create () in
  let t = Sim.every sim 1. (fun () -> ()) in
  Alcotest.check_raises "periodic reschedule"
    (Invalid_argument "Sim.Timer.reschedule: timer is periodic") (fun () ->
      Sim.Timer.reschedule sim t 5.);
  Sim.Timer.cancel sim t

let test_every_rejects_bad_period () =
  let sim = Sim.create () in
  List.iter
    (fun bad ->
      Alcotest.check_raises "bad period"
        (Invalid_argument "Sim.every: period must be finite and positive")
        (fun () ->
          ignore (Sim.every sim bad (fun () -> ()) : Sim.Timer.t)))
    [ 0.; -1.; nan; infinity ]

(* --- overflow spill ---------------------------------------------------- *)

(* The wheel spans 2^48 ns (~3.26 days); events beyond it live on the
   sorted spill list and must still interleave correctly with wheel
   events and with each other. *)
let test_overflow_spill_ordering () =
  let sim = Sim.create () in
  let day = 86_400. in
  let order = ref [] in
  let ev tag time =
    ignore
      (Sim.schedule_at sim time (fun () -> order := tag :: !order)
        : Sim.Timer.t)
  in
  ev "near" 1.;
  ev "spill_b" (5. *. day);
  ev "spill_a" (4. *. day);
  ev "wheel" (2. *. day);
  Sim.run sim;
  Alcotest.(check (list string))
    "spill interleaves in time order"
    [ "near"; "wheel"; "spill_a"; "spill_b" ]
    (List.rev !order);
  Alcotest.(check (float 0.)) "clock reached the far event" (5. *. day)
    (Sim.now sim)

let test_overflow_spill_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h =
    Sim.schedule_at sim 4e5 (fun () -> fired := true)
  in
  ignore (Sim.schedule_at sim 4e5 (fun () -> ()) : Sim.Timer.t);
  Sim.Timer.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled spill event never fires" false !fired

(* --- allocation contract ----------------------------------------------- *)

(* The performance half of the redesign: once pools are warm, the
   steady-state enqueue -> serve -> deliver -> ACK -> deliver cycle
   runs without touching the minor heap. Timer cells come from the
   wheel's free list, packets from the packet pool, and the per-packet
   closures are gone (persistent [on_served], static [Packet.forward]).
   Only meaningful under the native-code compiler: bytecode boxes
   everything. *)
(* The zero-alloc guarantee depends on [Sim.schedule_*] inlining into
   callers so computed deadlines never box at a call boundary. Dev
   builds pass [-opaque], which discards cross-module inlining info, so
   they box once per schedule; release builds do not. Probe which kind
   of build this is by scheduling with a computed (non-constant) delay:
   an inlining build stages it unboxed and allocates nothing. *)
let build_inlines_schedule_path () =
  let sim = Sim.create () in
  let fn () = () in
  let sched i =
    Sim.Timer.cancel sim
      (Sim.schedule_after sim (float_of_int i *. 1e-9) fn)
  in
  for i = 1 to 100 do sched i done;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do sched i done;
  let w1 = Gc.minor_words () in
  w1 -. w0 < 100.

let test_steady_state_zero_alloc () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:64
      ~discipline:Queue.Droptail ()
  in
  let fwd_pipe = Pipe.create ~sim ~delay:0.02 in
  let rev_pipe = Pipe.create ~sim ~delay:0.02 in
  let acked = ref 0 in
  let ack_sink (p : Packet.t) =
    incr acked;
    Packet.free p
  in
  let rev_route = [| Pipe.hop rev_pipe; ack_sink |] in
  let responder (p : Packet.t) =
    let seq = p.Packet.seq in
    let echo = p.Packet.times.Packet.sent_at in
    Packet.free p;
    Packet.forward
      (Packet.ack ~flow:0 ~subflow:0 ~ackno:(seq + 1) ~echo ~sack:None
         ~route:rev_route ~sent_at:(Sim.now sim))
  in
  let fwd_route = [| Queue.hop q; Pipe.hop fwd_pipe; responder |] in
  let sent = ref 0 in
  let tick () =
    Packet.forward
      (Packet.data ~flow:0 ~subflow:0 ~seq:!sent ~sent_at:(Sim.now sim)
         ~route:fwd_route);
    incr sent
  in
  let src = Sim.every ~start:0. sim 0.002 tick in
  (* warm-up: grow pools, the queue ring and the wheel's cell arrays *)
  Sim.run_until sim 1.;
  let before = !acked in
  let w0 = Gc.minor_words () in
  Sim.run_until sim 11.;
  let w1 = Gc.minor_words () in
  Sim.Timer.cancel sim src;
  Sim.run sim;
  let packets = !acked - before in
  Alcotest.(check bool) "traffic flowed" true (packets > 4000);
  if Sys.backend_type = Sys.Native then
    if build_inlines_schedule_path () then
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words for %d packets" packets)
        0. (w1 -. w0)
    else begin
      (* non-inlining (dev/-opaque) build: each boxed float is 2 words;
         a loose per-packet bound still catches real regressions such
         as a record or closure allocated per event *)
      let per_pkt = (w1 -. w0) /. float_of_int packets in
      Alcotest.(check bool)
        (Printf.sprintf "minor words per packet (%.1f) < 64" per_pkt)
        true (per_pkt < 64.)
    end

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    q prop_wheel_matches_reference_heap;
    Alcotest.test_case "cancel before fire" `Quick test_cancel_before_fire;
    Alcotest.test_case "cancel after fire is a no-op" `Quick
      test_cancel_after_fire_noop;
    Alcotest.test_case "Timer.none is inert" `Quick test_timer_none_inert;
    Alcotest.test_case "reschedule moves the deadline" `Quick
      test_reschedule_moves_deadline;
    Alcotest.test_case "reschedule backward rejected" `Quick
      test_reschedule_backward_rejected;
    Alcotest.test_case "reschedule of stale handle rejected" `Quick
      test_reschedule_stale_rejected;
    Alcotest.test_case "non-finite times rejected" `Quick
      test_non_finite_rejected;
    Alcotest.test_case "non-finite horizons rejected" `Quick
      test_non_finite_horizon_rejected;
    Alcotest.test_case "every: fires each period" `Quick
      test_every_fires_periodically;
    Alcotest.test_case "every: explicit start" `Quick test_every_explicit_start;
    Alcotest.test_case "every: self-cancel" `Quick test_every_self_cancel;
    Alcotest.test_case "every: not reschedulable" `Quick
      test_every_not_reschedulable;
    Alcotest.test_case "every: rejects bad periods" `Quick
      test_every_rejects_bad_period;
    Alcotest.test_case "overflow spill ordering" `Quick
      test_overflow_spill_ordering;
    Alcotest.test_case "overflow spill cancel" `Quick test_overflow_spill_cancel;
    Alcotest.test_case "steady-state path allocates nothing" `Quick
      test_steady_state_zero_alloc;
  ]
