(* Allocation contracts of the per-packet path beyond the wheel (see
   test_timer's steady-state test): a real TCP connection on its
   loss-free in-order ACK path, the RNG draw behind RED and the lossy
   stages, and the cross-shard channel. Strict (0 minor words) only
   when the build inlines across modules, which is what the release
   profile gives; dev builds pass [-opaque] and box floats at call
   boundaries, so they get a loose per-packet bound instead. Only
   meaningful under the native-code compiler. *)

open Mptcp_repro.Netsim
module Cc = Mptcp_repro.Cc

let strict () =
  Sys.backend_type = Sys.Native && Test_timer.build_inlines_schedule_path ()

(* [words] over [events] units of work: exactly [expected] in a strict
   build, a few boxed floats per unit otherwise. *)
let check_words ?(expected = 0.) what ~events words =
  if Sys.backend_type = Sys.Native then
    if strict () then
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words for %d %s" events what)
        expected words
    else begin
      let per = words /. float_of_int events in
      Alcotest.(check bool)
        (Printf.sprintf "minor words per %s (%.1f) < 64" what per)
        true (per < 64.)
    end

(* --- TCP ------------------------------------------------------------- *)

(* One bottleneck per path, buffer above the receive window, so the
   connection never loses a packet and every ACK takes the in-order
   path: sample_rtt, on_ack, the window update, the RTO restart and
   try_send's transmit. *)
let path sim ~seed =
  let q =
    Queue.create ~sim ~rng:(Rng.create ~seed) ~rate_bps:10e6 ~buffer_pkts:200
      ~discipline:Queue.Droptail ()
  in
  {
    Tcp.fwd = [| Queue.hop q; Pipe.hop (Pipe.create ~sim ~delay:0.02) |];
    rev = [| Pipe.hop (Pipe.create ~sim ~delay:0.02) |];
  }

(* Counts the CC's increase refreshes. The increase returns a float
   through a closure, and that return is boxed: 2 words, once per
   window of ACKs (Tcp caches it for a cwnd of packets), owned by the
   [Cc_types.t] interface rather than the per-packet path. The wrapper
   passes the inner box through without a new one, so a strict build
   must allocate exactly 2 words per refresh and nothing per ACK. *)
let counting (cc : Cc.Types.t) calls =
  {
    cc with
    Cc.Types.increase =
      (fun ~views ~idx ->
        incr calls;
        cc.Cc.Types.increase ~views ~idx);
  }

let tcp_steady_state ~cc ~paths () =
  let sim = Sim.create () in
  let calls = ref 0 in
  let conn =
    Tcp.create ~sim ~cc:(counting cc calls)
      ~paths:(Array.init paths (fun i -> path sim ~seed:(i + 1)))
      ~rcv_wnd:16. ~flow_id:0 ()
  in
  (* warm-up: slow start until the receive window caps the flight, then
     pool and wheel growth *)
  Sim.run_until sim 4.;
  let acked0 = Tcp.total_acked conn and calls0 = !calls in
  let w0 = Gc.minor_words () in
  Sim.run_until sim 14.;
  let w1 = Gc.minor_words () in
  let acked = Tcp.total_acked conn - acked0 in
  let refreshes = !calls - calls0 in
  for i = 0 to paths - 1 do
    Alcotest.(check int) "loss-free" 0 (Tcp.subflow_retransmits conn i)
  done;
  Alcotest.(check bool) "traffic flowed" true (acked > 3_000);
  check_words "acked packets" ~events:acked
    ~expected:(2. *. float_of_int refreshes)
    (w1 -. w0)

let test_tcp_reno () = tcp_steady_state ~cc:(Cc.Reno.create ()) ~paths:1 ()
let test_tcp_olia () = tcp_steady_state ~cc:(Cc.Olia.create ()) ~paths:2 ()

(* --- RNG -------------------------------------------------------------- *)

let test_rng_float () =
  let rng = Rng.create ~seed:3 in
  let acc = Float.Array.make 1 0. in
  for _ = 1 to 100 do
    Float.Array.set acc 0 (Float.Array.get acc 0 +. Rng.float rng)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Float.Array.set acc 0 (Float.Array.get acc 0 +. Rng.float rng)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "draws in [0, 1)" true
    (Float.Array.get acc 0 > 0. && Float.Array.get acc 0 < 100_100.);
  check_words "draws" ~events:100_000 (w1 -. w0)

(* --- dense wheel slot ---------------------------------------------------- *)

(* A thousand closure and packet cells armed into one level-0 slot in
   descending time order, the worst case for the LIFO slot list, then
   drained: the sort-once drain must reuse the due buffer and its merge
   scratch once both have grown in a first round. *)
let test_dense_slot_drain () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let fn () = incr fired in
  let pfn (_ : Packet.t) = incr fired in
  let pkts =
    Array.init 256 (fun i ->
        Packet.data ~flow:(i land 7) ~subflow:0 ~seq:(i lsr 3) ~sent_at:0.
          ~route:[||])
  in
  let round base =
    for i = 999 downto 0 do
      let time = base +. (float_of_int (i land 63) *. 1e-7) in
      if i land 1 = 0 then ignore (Sim.schedule_at sim time fn : Sim.Timer.t)
      else
        ignore (Sim.schedule_pkt_at sim time pfn pkts.(i lsr 2) : Sim.Timer.t)
    done;
    Sim.run sim
  in
  (* warm-up: cell pool, due buffer, merge scratch *)
  round 0.001;
  let m0 = (Gc.quick_stat ()).Gc.major_words in
  let w0 = Gc.minor_words () in
  round 0.011;
  let w1 = Gc.minor_words () in
  let m1 = (Gc.quick_stat ()).Gc.major_words in
  Alcotest.(check int) "every cell fired" 2000 !fired;
  check_words "dense-slot events" ~events:1000 (w1 -. w0);
  (* the due buffer and the scratch are past the minor heap's size
     limit, so a regrowth per drain would show only here *)
  if strict () then
    Alcotest.(check (float 0.)) "major words for a warm drain" 0. (m1 -. m0)

(* --- cross-shard channel ---------------------------------------------- *)

(* The sweep engine's domain pool, with each worker's minor words taken
   on its own domain, where [Gc.minor_words] is exact. Worker 0 runs on
   the calling domain; the others on domains spawned per call, whose
   packet pool starts empty. A long-lived shard keeps its pool, so each
   spawned worker first fills its pool (outside the measurement) with
   more packets than a shard holds at once. *)
let measuring_pool words thunks =
  Mptcp_repro.Exp.Sweep.pool
    (Array.mapi
       (fun i f () ->
         if i > 0 then begin
           let ps =
             Array.init 64 (fun _ ->
                 Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route:[||])
           in
           Array.iter Packet.free ps
         end;
         let w0 = Gc.minor_words () in
         f ();
         Float.Array.set words i (Gc.minor_words () -. w0))
       thunks)

(* Shard 0 clocks a data packet across the cut every millisecond; shard
   1 answers each with an ACK back across the other channel, so each
   worker both sends and drains. Once the outboxes, the merge scratch
   and the packet pools are warm, neither worker may allocate a word. *)
let test_shard_messages () =
  let sims = [| Sim.create (); Sim.create () |] in
  let group = Shard.create ~sims ~lookahead:0.005 in
  let to1 = Shard.open_channel group ~src:0 ~dst:1 () in
  let to0 = Shard.open_channel group ~src:1 ~dst:0 () in
  let sink (p : Packet.t) = Packet.free p in
  let back = [| Shard.egress to0; sink |] in
  let echo (p : Packet.t) =
    let seq = p.Packet.seq and sent_at = p.Packet.times.Packet.sent_at in
    Packet.free p;
    Packet.forward
      (Packet.ack ~flow:0 ~subflow:0 ~ackno:(seq + 1) ~echo:sent_at ~sack:None
         ~route:back ~sent_at:(Sim.now sims.(1)))
  in
  let out = [| Shard.egress to1; echo |] in
  let tick () =
    Packet.forward
      (Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:(Sim.now sims.(0))
         ~route:out)
  in
  ignore
    (Sim.every ~start:0. sims.(0) 0.001 tick : Sim.Timer.t);
  let words = Float.Array.make 2 0. in
  let run horizon =
    let m0 = Shard.sent_count to1 + Shard.sent_count to0 in
    Shard.run_windows ~pool:(measuring_pool words) group ~horizon;
    ( Float.Array.get words 0,
      Float.Array.get words 1,
      Shard.sent_count to1 + Shard.sent_count to0 - m0 )
  in
  (* warm-up: outboxes, merge scratch and shard 0's pool *)
  ignore (run 1. : float * float * int);
  let w0, w1, m = run 4. in
  Alcotest.(check bool) "messages crossed" true (m > 4000);
  check_words "cross-shard messages (shard 0)" ~events:m w0;
  check_words "cross-shard messages (shard 1)" ~events:m w1

let suite =
  [
    Alcotest.test_case "tcp: Reno in-order ACK path allocates nothing" `Quick
      test_tcp_reno;
    Alcotest.test_case "tcp: OLIA 2-path in-order ACK path allocates nothing"
      `Quick test_tcp_olia;
    Alcotest.test_case "rng: float draws allocate nothing" `Quick
      test_rng_float;
    Alcotest.test_case "sim: a warm dense-slot drain allocates nothing" `Quick
      test_dense_slot_drain;
    Alcotest.test_case "shard: cross-shard messages allocate nothing" `Quick
      test_shard_messages;
  ]
