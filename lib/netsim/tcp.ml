module Trace = Repro_obs.Trace
module Fmath = Repro_cc.Fmath

type path = { fwd : Packet.hop array; rev : Packet.hop array }

type conn = {
  sim : Sim.t;
  rcv_sim : Sim.t;
      (* event loop of the receiver endpoint; [sim] unless the receiver
         lives in another shard's domain (see Shard). Receiver-side
         state (rcv_cum, ooo, the delack fields) is mutated only on
         this loop, sender-side state only on [sim]'s — the two field
         sets are disjoint, so the split needs no locking. *)
  cc : Repro_cc.Cc_types.t;
  flow_id : int;
  mutable subs : sub array;
  mutable views : Repro_cc.Cc_types.subflow_view array;
      (* one long-lived view per subflow, refreshed in place on use *)
  mutable unassigned : int;  (* packets not yet assigned to a subflow; -1 = infinite *)
  mutable completed : bool;
  mutable completion_time : float option;
  size_pkts : int option;
  on_complete : (float -> unit) option;
  lim : limits;
  delayed_ack : bool;
}

(* A connection's float parameters, in a float-only record so reads are
   unboxed: an immutable float of the mixed [conn] record is a boxed
   pointer, and a max/min that may return it boxes the other operand. *)
and limits = {
  min_rto : float;
  rcv_wnd : float;  (* receive-window cap on each subflow's cwnd, packets *)
}

and sub = {
  conn : conn;
  idx : int;
  mutable fwd_route : Packet.hop array;  (* ends at this subflow's sink handler *)
  mutable rev_route : Packet.hop array;  (* ends at the ACK handler *)
  fl : fstate;
  (* sender state *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable limit : int;  (* packets assigned to this subflow (finite flows) *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable rto_timer : Sim.Timer.t;
  mutable rto_fire : unit -> unit;  (* persistent RTO callback *)
  mutable retransmits : int;
  mutable timeouts : int;
  sacked : (int, unit) Hashtbl.t;  (* scoreboard of SACKed sequences *)
  mutable high_rtx : int;  (* highest seq retransmitted this recovery *)
  mutable inc_credit : int;  (* newly-acked packets the cache still covers *)
  mutable enabled : bool;  (* path manager can stop new data on a subflow *)
  (* receiver state *)
  mutable rcv_cum : int;  (* next expected sequence number *)
  ooo : (int, unit) Hashtbl.t;
  mutable delack_count : int;  (* in-order segments not yet acknowledged *)
  mutable delack_timer : Sim.Timer.t;
  mutable delack_fire : unit -> unit;  (* persistent delayed-ACK callback *)
}

(* A subflow's float state, in a float-only record so stores stay
   unboxed (a float field of the mixed [sub] record boxes on every
   store). *)
and fstate = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : float;
  mutable inc_cached : float;  (* cached congestion-avoidance increase *)
  mutable delack_echo : float;  (* timestamp to echo when the delack flushes *)
}

let[@inline] min_ssthresh sub =
  if Array.length sub.conn.subs > 1 then
    match sub.conn.cc.Repro_cc.Cc_types.multipath_initial_ssthresh with
    | Some s -> s
    | None -> 2.
  else 2.

let flight sub = sub.snd_nxt - sub.snd_una
let[@inline] invalidate_increase sub = sub.inc_credit <- 0

(* cwnd is measured in MSS-sized packets: below one MSS the ACK clock
   stalls and the subflow silently starves, which shows up downstream
   as an inexplicable throughput collapse — catch it at the source. *)
let check_window sub =
  if Invariant.enabled () then begin
    Invariant.require (sub.fl.cwnd >= 1.)
      (Printf.sprintf "tcp flow %d subflow %d: cwnd %g < 1 MSS"
         sub.conn.flow_id sub.idx sub.fl.cwnd);
    Invariant.require
      (sub.snd_una <= sub.snd_nxt)
      (Printf.sprintf "tcp flow %d subflow %d: snd_una %d > snd_nxt %d"
         sub.conn.flow_id sub.idx sub.snd_una sub.snd_nxt)
  end

(* Trace helpers. All callers capture [Trace.enabled ()] once on entry
   and thread it through, so the tracing-off path costs one ref read per
   instrumented function and allocates nothing (tcp_state values are
   constant constructors). *)
let trace_state sub =
  if sub.in_recovery then Trace.Fast_recovery
  else if sub.fl.cwnd < sub.fl.ssthresh then Trace.Slow_start
  else Trace.Congestion_avoidance

let emit_transition sub ~from_state =
  let to_state = trace_state sub in
  if to_state <> from_state then
    Trace.tcp_state ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
      ~subflow:sub.idx ~from_state ~to_state

let emit_cwnd sub =
  Trace.cwnd_update ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
    ~subflow:sub.idx ~cwnd:sub.fl.cwnd ~ssthresh:sub.fl.ssthresh

let views conn =
  let vs = conn.views in
  let subs = conn.subs in
  for i = 0 to Array.length subs - 1 do
    let s = subs.(i) in
    let v = vs.(i) in
    v.Repro_cc.Cc_types.cwnd <- s.fl.cwnd;
    v.Repro_cc.Cc_types.rtt <- (if s.fl.srtt > 0. then s.fl.srtt else 0.1)
  done;
  vs

(* --- sending ------------------------------------------------------- *)

let transmit sub seq =
  if Invariant.enabled () then begin
    Invariant.require
      (Array.length sub.fwd_route > 0)
      (Printf.sprintf "tcp flow %d subflow %d: empty forward route"
         sub.conn.flow_id sub.idx);
    Invariant.require (seq >= sub.snd_una)
      (Printf.sprintf
         "tcp flow %d subflow %d: transmitting seq %d below snd_una %d"
         sub.conn.flow_id sub.idx seq sub.snd_una)
  end;
  let p =
    Packet.data ~flow:sub.conn.flow_id ~subflow:sub.idx ~seq
      ~sent_at:(Sim.now sub.conn.sim) ~route:sub.fwd_route
  in
  Packet.forward p

let purge_sacked sub =
  Hashtbl.filter_map_inplace
    (* lint: allow R9 -- the filter closure exists only while SACK state is non-empty, i.e. during loss-recovery episodes *)
    (fun seq () -> if seq >= sub.snd_una then Some () else None)
    sub.sacked

(* RFC 6298 timer management on a single persistent timer per subflow:
   [restart_rto] moves the deadline (or arms the timer if idle) when new
   data is acknowledged; [ensure_rto] arms it, without pushing an
   existing deadline, when data is transmitted. The old idiom of
   scheduling an orphan closure and re-checking a stale deadline at fire
   time is gone: the timer's deadline is always the real one. *)
let restart_rto sub =
  let sim = sub.conn.sim in
  let deadline = Sim.now sim +. sub.fl.rto in
  if Sim.Timer.active sim sub.rto_timer then
    Sim.Timer.reschedule sim sub.rto_timer deadline
  else
    sub.rto_timer <- Sim.schedule_at sim deadline sub.rto_fire

let ensure_rto sub =
  let sim = sub.conn.sim in
  if not (Sim.Timer.active sim sub.rto_timer) then
    sub.rto_timer <-
      Sim.schedule_at sim (Sim.now sim +. sub.fl.rto) sub.rto_fire

let on_timeout sub =
  let traced = Trace.enabled () in
  let from_state = if traced then trace_state sub else Trace.Slow_start in
  if traced then
    Trace.rto_fired ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
      ~subflow:sub.idx ~rto:sub.fl.rto;
  sub.timeouts <- sub.timeouts + 1;
  invalidate_increase sub;
  sub.conn.cc.Repro_cc.Cc_types.on_loss ~idx:sub.idx;
  let fl = float_of_int (flight sub) in
  sub.fl.ssthresh <- Fmath.max (fl /. 2.) (min_ssthresh sub);
  sub.fl.cwnd <- 1.;
  sub.dupacks <- 0;
  sub.in_recovery <- false;
  sub.retransmits <- sub.retransmits + 1;
  (* go-back-N: everything past the last cumulative ACK is resent as the
     window reopens *)
  sub.snd_nxt <- sub.snd_una;
  sub.high_rtx <- sub.snd_una - 1;
  purge_sacked sub;
  sub.fl.rto <- Fmath.min (2. *. sub.fl.rto) 60.;
  transmit sub sub.snd_una;
  sub.snd_nxt <- sub.snd_una + 1;
  restart_rto sub;
  if traced then begin
    emit_transition sub ~from_state;
    emit_cwnd sub
  end;
  check_window sub

let can_assign sub =
  if sub.snd_nxt < sub.limit then true
  else if sub.conn.unassigned < 0 then begin
    (* infinite flow: extend the assignment lazily *)
    sub.limit <- sub.snd_nxt + 1;
    true
  end
  else if sub.conn.unassigned > 0 then begin
    sub.conn.unassigned <- sub.conn.unassigned - 1;
    sub.limit <- sub.limit + 1;
    true
  end
  else false

(* Limited transmit (RFC 3042): the first two duplicate ACKs may clock out
   new segments beyond the congestion window. *)
let effective_window sub =
  int_of_float (Fmath.min sub.fl.cwnd sub.conn.lim.rcv_wnd)
  + if sub.in_recovery then 0 else Int.min sub.dupacks 2

let rec try_send sub =
  if sub.enabled && (not sub.conn.completed)
     && flight sub < effective_window sub then
    if can_assign sub then begin
      (* data after an idle period gets a fresh timer *)
      if flight sub = 0 then restart_rto sub;
      let seq = sub.snd_nxt in
      sub.snd_nxt <- sub.snd_nxt + 1;
      if Hashtbl.mem sub.sacked seq then
        (* the receiver already holds this segment (go-back-N skip) *)
        try_send sub
      else begin
        transmit sub seq;
        ensure_rto sub;
        try_send sub
      end
    end

(* --- receiving acks ------------------------------------------------ *)

(* Takes the ACK rather than its echo timestamp: a float argument to
   this out-of-line function would box on every ACK. *)
let sample_rtt sub (p : Packet.t) =
  let rtt = Sim.now sub.conn.sim -. p.times.echo in
  if rtt > 0. then begin
    if sub.fl.srtt <= 0. then begin
      sub.fl.srtt <- rtt;
      sub.fl.rttvar <- rtt /. 2.
    end
    else begin
      sub.fl.rttvar <-
        (0.75 *. sub.fl.rttvar) +. (0.25 *. abs_float (sub.fl.srtt -. rtt));
      sub.fl.srtt <- (0.875 *. sub.fl.srtt) +. (0.125 *. rtt)
    end;
    (* Linux floors rttvar at tcp_rto_min/4, so RTO ≈ srtt + 200 ms even
       when the RTT variance collapses; this absorbs queueing-delay spikes
       at the bottleneck without spurious timeouts. *)
    let rttvar = Fmath.max sub.fl.rttvar (sub.conn.lim.min_rto /. 4.) in
    sub.fl.rto <-
      Fmath.min 60.
        (Fmath.max (sub.fl.srtt +. (4. *. rttvar)) sub.conn.lim.min_rto);
    if Trace.enabled () then
      Trace.rtt_sample ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
        ~subflow:sub.idx ~rtt ~srtt:sub.fl.srtt
  end

let check_completion conn =
  match conn.size_pkts with
  | None -> ()
  | Some size ->
    let acked = Array.fold_left (fun a s -> a + s.snd_una) 0 conn.subs in
    if acked >= size && not conn.completed then begin
      conn.completed <- true;
      (* lint: allow R9 -- completion transition runs exactly once per connection *)
      conn.completion_time <- Some (Sim.now conn.sim);
      Array.iter
        (* lint: allow R9 -- same once-per-connection transition as above *)
        (fun s ->
          Sim.Timer.cancel conn.sim s.rto_timer;
          (* the delack timer belongs to the receiver's loop; cancelling
             it from the sender's domain would race when the endpoints
             are sharded. Leave it to fire (its callback checks
             delack_count) unless both ends share a loop. *)
          if conn.rcv_sim == conn.sim then
            Sim.Timer.cancel conn.sim s.delack_timer)
        conn.subs;
      match conn.on_complete with
      | Some f -> f (Sim.now conn.sim)
      | None -> ()
    end

(* RFC 6675-style NextSeg: the lowest hole in [snd_una, recover) that has
   not been retransmitted in this recovery episode. The scan is a
   toplevel recursion (a local [rec] closure would capture [sub] and
   allocate on every call). *)
let rec find_hole sub seq =
  if seq >= sub.recover then None
  else if Hashtbl.mem sub.sacked seq then find_hole sub (seq + 1)
  else
    (* lint: allow R9 -- [Some seq] only materializes during loss recovery, bounded by the loss rate, not on the in-order ACK steady state *)
    Some seq

let next_hole sub = find_hole sub (Int.max sub.snd_una (sub.high_rtx + 1))

let retransmit_hole sub =
  match next_hole sub with
  | None -> false
  | Some seq ->
    sub.retransmits <- sub.retransmits + 1;
    sub.high_rtx <- seq;
    transmit sub seq;
    true

let enter_recovery sub =
  let conn = sub.conn in
  let traced = Trace.enabled () in
  let from_state = if traced then trace_state sub else Trace.Slow_start in
  invalidate_increase sub;
  conn.cc.Repro_cc.Cc_types.on_loss ~idx:sub.idx;
  let v = views conn in
  let decrease = conn.cc.Repro_cc.Cc_types.loss_decrease ~views:v ~idx:sub.idx in
  sub.fl.ssthresh <- Fmath.max (sub.fl.cwnd -. decrease) (min_ssthresh sub);
  sub.recover <- sub.snd_nxt;
  sub.in_recovery <- true;
  sub.high_rtx <- sub.snd_una - 1;
  ignore (retransmit_hole sub);
  sub.fl.cwnd <- sub.fl.ssthresh +. float_of_int sub.dupacks;
  ensure_rto sub;
  if traced then emit_transition sub ~from_state;
  check_window sub

(* The coupled increase (e.g. OLIA's alpha) is a whole-connection
   computation — O(subflows) work and allocation per call — for a value
   that only drifts on RTT timescales. Refresh it once per cwnd of
   newly-acked packets and spend the cached value in between; every
   cwnd/ssthresh discontinuity (loss, timeout, recovery exit, path-
   manager changes) invalidates the cache so the next ACK recomputes. *)
let congestion_avoidance_increase sub newly =
  let conn = sub.conn in
  if sub.inc_credit <= 0 then begin
    let v = views conn in
    sub.fl.inc_cached <- conn.cc.Repro_cc.Cc_types.increase ~views:v ~idx:sub.idx;
    sub.inc_credit <- Int.max 1 (int_of_float sub.fl.cwnd)
  end;
  sub.inc_credit <- sub.inc_credit - newly;
  sub.fl.cwnd <- Fmath.max 1. (sub.fl.cwnd +. (float_of_int newly *. sub.fl.inc_cached))

let on_new_ack sub ackno =
  let conn = sub.conn in
  let traced = Trace.enabled () in
  let from_state = if traced then trace_state sub else Trace.Slow_start in
  let newly = ackno - sub.snd_una in
  sub.snd_una <- ackno;
  (* after a go-back-N rewind the receiver may already hold later data *)
  if ackno > sub.snd_nxt then sub.snd_nxt <- ackno;
  (* one or two packets per ACK pass static float constants; a computed
     [~acked] would box on every call into the CC closure *)
  (match newly with
  | 1 -> conn.cc.Repro_cc.Cc_types.on_ack ~idx:sub.idx ~acked:1.
  | 2 -> conn.cc.Repro_cc.Cc_types.on_ack ~idx:sub.idx ~acked:2.
  | n -> conn.cc.Repro_cc.Cc_types.on_ack ~idx:sub.idx ~acked:(float_of_int n));
  if sub.in_recovery then begin
    if ackno > sub.recover then begin
      (* full ACK: leave recovery, deflate to ssthresh *)
      invalidate_increase sub;
      sub.in_recovery <- false;
      sub.dupacks <- 0;
      sub.fl.cwnd <- Fmath.max 1. sub.fl.ssthresh;
      purge_sacked sub
    end
    else begin
      (* partial ACK: retransmit the next hole, deflate *)
      ignore (retransmit_hole sub);
      sub.fl.cwnd <- Fmath.max 1. (sub.fl.cwnd -. float_of_int newly +. 1.)
    end
  end
  else begin
    sub.dupacks <- 0;
    if sub.fl.cwnd < sub.fl.ssthresh then
      (* slow start, with appropriate-byte-counting capped at 2 packets
         per ACK so cumulative jumps after recovery do not cause bursts *)
      sub.fl.cwnd <- sub.fl.cwnd +. float_of_int (Int.min newly 2)
    else congestion_avoidance_increase sub newly
  end;
  (* restart unconditionally: at w = 1 the flight is momentarily zero here
     (the next segment goes out in try_send just after), and a stale
     deadline would fire spuriously mid-flight *)
  restart_rto sub;
  if traced then begin
    emit_transition sub ~from_state;
    emit_cwnd sub
  end;
  check_window sub;
  check_completion conn

(* Early retransmit (RFC 5827): with fewer than four segments in flight the
   duplicate-ACK threshold drops to flight-1, so small windows can still
   recover without a timeout. *)
let dupack_threshold sub =
  let fl = flight sub in
  if fl >= 4 then 3 else Int.max 1 (fl - 1)

let on_dup_ack sub =
  if sub.in_recovery then begin
    (* each duplicate means a packet left the network: retransmit the next
       SACK hole if any, else inflate to clock out new data *)
    if not (retransmit_hole sub) then sub.fl.cwnd <- sub.fl.cwnd +. 1.
  end
  else begin
    sub.dupacks <- sub.dupacks + 1;
    if sub.dupacks >= dupack_threshold sub then enter_recovery sub
  end;
  if Trace.enabled () then emit_cwnd sub;
  check_window sub

let record_sack sub = function
  | None -> ()
  | Some (lo, hi) ->
    for seq = lo to hi - 1 do
      if seq >= sub.snd_una && not (Hashtbl.mem sub.sacked seq) then
        (* lint: allow R9 -- SACK bookkeeping only on reordered ACKs, bounded by the reorder window *)
        Hashtbl.add sub.sacked seq ()
    done

let[@olia.alloc_free] ack_handler sub (p : Packet.t) =
  (match p.kind with
  | Packet.Data -> assert false
  | Packet.Ack ->
    if not sub.conn.completed then begin
      let ackno = p.ackno in
      sample_rtt sub p;
      record_sack sub p.sack;
      (* the packet goes back to the pool before the ACK is processed:
         nothing below reads it, and the cell is free for reuse by
         whatever try_send transmits *)
      Packet.free p;
      if ackno > sub.snd_una then on_new_ack sub ackno
      else if ackno = sub.snd_una then on_dup_ack sub;
      try_send sub
    end
    else Packet.free p)

(* --- receiver ------------------------------------------------------ *)

(* The SACK block is the contiguous run of out-of-order data around the
   segment that just arrived, as a real receiver would report first.
   The run bounds walk tail-recursively rather than through local
   [ref]s; the [Some] block itself only exists on reordered arrivals. *)
let rec sack_lo sub lo =
  if Hashtbl.mem sub.ooo (lo - 1) then sack_lo sub (lo - 1) else lo

let rec sack_hi sub hi =
  if Hashtbl.mem sub.ooo hi then sack_hi sub (hi + 1) else hi

let sack_block_around sub seq =
  if not (Hashtbl.mem sub.ooo seq) then None
  else
    (* lint: allow R9 -- SACK blocks are built only for out-of-order arrivals, off the in-order steady state the alloc-free proof covers *)
    Some (sack_lo sub seq, sack_hi sub (seq + 1))

let[@inline] send_ack sub ~echo ~sack =
  sub.delack_count <- 0;
  let ack =
    Packet.ack ~flow:sub.conn.flow_id ~subflow:sub.idx ~ackno:sub.rcv_cum
      ~echo ~sack ~route:sub.rev_route ~sent_at:(Sim.now sub.conn.rcv_sim)
  in
  Packet.forward ack

(* RFC 1122 delayed-ACK timer: flush a pending acknowledgment within
   100 ms even if the second segment never arrives. *)
let arm_delack_timer sub =
  let sim = sub.conn.rcv_sim in
  if not (Sim.Timer.active sim sub.delack_timer) then
    sub.delack_timer <- Sim.schedule_after sim 0.1 sub.delack_fire

let[@olia.alloc_free] sink_handler sub (p : Packet.t) =
  match p.kind with
  | Packet.Ack -> assert false
  | Packet.Data ->
    let seq = p.seq in
    let sent_at = p.times.sent_at in
    (* the sink owns the segment; recycle it before building the ACK so
       the ACK reuses the same pool cell *)
    Packet.free p;
    let in_order = seq = sub.rcv_cum in
    if in_order then begin
      sub.rcv_cum <- sub.rcv_cum + 1;
      while Hashtbl.mem sub.ooo sub.rcv_cum do
        Hashtbl.remove sub.ooo sub.rcv_cum;
        sub.rcv_cum <- sub.rcv_cum + 1
      done
    end
    else if seq > sub.rcv_cum && not (Hashtbl.mem sub.ooo seq) then
      (* lint: allow R9 -- out-of-order bookkeeping, absent on the in-order steady state *)
      Hashtbl.add sub.ooo seq ();
    let gap = Hashtbl.length sub.ooo > 0 in
    if sub.conn.delayed_ack && in_order && not gap then begin
      sub.delack_count <- sub.delack_count + 1;
      sub.fl.delack_echo <- sent_at;
      if sub.delack_count >= 2 then send_ack sub ~echo:sent_at ~sack:None
      else arm_delack_timer sub
    end
    else
      (* out-of-order data, duplicates and hole-filling segments are
         acknowledged immediately, carrying SACK information *)
      send_ack sub ~echo:sent_at ~sack:(sack_block_around sub seq)

(* --- construction --------------------------------------------------- *)

let create ~sim ?rcv_sim ~cc ~paths ?size_pkts ?(start = 0.)
    ?(initial_cwnd = 2.) ?(min_rto = 0.2) ?(rcv_wnd = 10_000.)
    ?(delayed_ack = false) ?(subflow_join_delay = 0.) ?on_complete ~flow_id
    () =
  if Array.length paths = 0 then invalid_arg "Tcp.create: no paths";
  let rcv_sim = match rcv_sim with Some s -> s | None -> sim in
  let conn =
    {
      sim;
      rcv_sim;
      cc;
      flow_id;
      subs = [||];
      views = [||];
      unassigned = (match size_pkts with None -> -1 | Some s -> s);
      completed = false;
      completion_time = None;
      size_pkts;
      on_complete;
      lim = { min_rto; rcv_wnd };
      delayed_ack;
    }
  in
  let multipath = Array.length paths > 1 in
  let initial_ssthresh =
    if multipath then
      match cc.Repro_cc.Cc_types.multipath_initial_ssthresh with
      | Some s -> s
      | None -> infinity
    else infinity
  in
  let make_sub idx (path : path) =
    let sub =
      {
        conn;
        idx;
        fwd_route = [||];
        rev_route = [||];
        fl =
          {
            cwnd = initial_cwnd;
            ssthresh = initial_ssthresh;
            srtt = 0.;
            rttvar = 0.;
            rto = 1.;
            inc_cached = 0.;
            delack_echo = 0.;
          };
        snd_una = 0;
        snd_nxt = 0;
        limit = 0;
        dupacks = 0;
        in_recovery = false;
        recover = 0;
        rto_timer = Sim.Timer.none;
        rto_fire = ignore;
        retransmits = 0;
        timeouts = 0;
        sacked = Hashtbl.create 64;
        high_rtx = -1;
        inc_credit = 0;
        enabled = true;
        rcv_cum = 0;
        ooo = Hashtbl.create 64;
        delack_count = 0;
        delack_timer = Sim.Timer.none;
        delack_fire = ignore;
      }
    in
    sub.fwd_route <- Array.append path.fwd [| sink_handler sub |];
    sub.rev_route <- Array.append path.rev [| ack_handler sub |];
    sub.rto_fire <-
      (fun () ->
        if (not sub.conn.completed) && flight sub > 0 then on_timeout sub);
    sub.delack_fire <-
      (fun () ->
        if sub.delack_count > 0 then
          send_ack sub ~echo:sub.fl.delack_echo ~sack:None);
    sub
  in
  conn.subs <- Array.mapi make_sub paths;
  conn.views <-
    Array.map
      (fun _ -> { Repro_cc.Cc_types.cwnd = 0.; rtt = 0.1 })
      conn.subs;
  (* the first subflow starts immediately; additional subflows join after
     the MP_JOIN handshake delay, as in real MPTCP *)
  Array.iteri
    (fun idx sub ->
      let at = if idx = 0 then start else start +. subflow_join_delay in
      ignore
        (Sim.schedule_at sim at (fun () ->
             if Trace.enabled () then
               Trace.subflow_add ~time:(Sim.now sim) ~flow:conn.flow_id
                 ~subflow:idx;
             try_send sub)
          : Sim.Timer.t))
    conn.subs;
  conn

let subflow_count conn = Array.length conn.subs

let total_acked conn =
  Array.fold_left (fun a s -> a + s.snd_una) 0 conn.subs

let completed conn = conn.completed
let completion_time conn = conn.completion_time
let subflow_cwnd conn idx = conn.subs.(idx).fl.cwnd
let subflow_ssthresh conn idx = conn.subs.(idx).fl.ssthresh
let subflow_rtt conn idx = conn.subs.(idx).fl.srtt
let subflow_acked conn idx = conn.subs.(idx).snd_una
let subflow_retransmits conn idx = conn.subs.(idx).retransmits
let subflow_timeouts conn idx = conn.subs.(idx).timeouts

let set_subflow_enabled conn idx enabled =
  let sub = conn.subs.(idx) in
  if Trace.enabled () && sub.enabled <> enabled then
    if enabled then
      Trace.subflow_add ~time:(Sim.now conn.sim) ~flow:conn.flow_id
        ~subflow:idx
    else
      Trace.subflow_remove ~time:(Sim.now conn.sim) ~flow:conn.flow_id
        ~subflow:idx;
  (* the subflow set feeds every subflow's coupled increase *)
  Array.iter invalidate_increase conn.subs;
  sub.enabled <- enabled;
  if enabled then try_send sub

let subflow_enabled conn idx = conn.subs.(idx).enabled
