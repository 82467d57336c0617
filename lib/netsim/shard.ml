module Trace = Repro_obs.Trace
module Fmath = Repro_cc.Fmath

(* Slot layout of an outbox: seven int lanes and five float lanes per
   message, flat so that parking a message allocates nothing. *)
let i_kind = 0 (* Packet.kind_code *)
let i_seq = 1
let i_flow = 2
let i_subflow = 3
let i_hop = 4 (* next hop index into the route on arrival *)
let i_ackno = 5
let i_src_seq = 6
let n_int = 7
let f_arrival = 0 (* absolute delivery time on the destination sim *)
let f_egress = 1
let f_sent_at = 2
let f_enqueued_at = 3
let f_echo = 4
let n_flt = 5

(* The messages one channel sent in one window, in send order. *)
type outbox = {
  mutable len : int;
  mutable ints : int array;  (* stride [n_int] *)
  mutable flts : floatarray;  (* stride [n_flt] *)
  mutable routes : Packet.hop array array;
  mutable sacks : (int * int) option array;
}

(* Per source shard, shared by every channel leaving it and touched only
   by the source domain. *)
type source = {
  mutable next_seq : int;
      (* send index across ALL of the source shard's channels: the order
         in which the egress hops executed on the source domain, i.e.
         the order in which the sequential run would have armed these
         deliveries. The merge tie-break after (arrival, egress). *)
  mutable parity : int;  (* outbox the current window fills *)
}

type channel = {
  src_shard : int;
  dst_shard : int;
  latency : float;
  src_sim : Sim.t;
  src : source;
  boxes : outbox array;
      (* two, by window parity: the source fills one while the
         destination drains the other *)
  mutable sent : int;
}

(* One destination's inbound channels (registration order), with the
   scratch state of its merge. Kept by the group, so the scratch keeps
   its size across [run_windows] calls. *)
type ingress = {
  mutable inbound : channel array;
  mutable cursor : int array;  (* per inbound channel: next unmerged slot *)
  mutable order : int array;
      (* the merged order: (inbound index, slot) pairs *)
}

type t = {
  sims : Sim.t array;
  lookahead : float;
  sources : source array;
  ingress : ingress array;  (* by destination shard *)
  mutable epoch : int;
      (* windows run so far: window [w] of a [run_windows] call is
         global window [epoch + w] and fills outboxes of that parity *)
  busy_ns : int array;
  wait_ns : int array;
      (* per shard, over the last [run_windows] call: monotonic-clock
         nanoseconds spent draining and running windows, and waiting at
         the barrier *)
}

let outbox () =
  let cap = 64 in
  {
    len = 0;
    ints = Array.make (cap * n_int) 0;
    flts = Float.Array.make (cap * n_flt) 0.;
    routes = Array.make cap [||];
    sacks = Array.make cap None;
  }

let create ~sims ~lookahead =
  let n = Array.length sims in
  if n = 0 then invalid_arg "Shard.create: no shards";
  if n > 1 && not (Float.is_finite lookahead && lookahead > 0.) then
    invalid_arg "Shard.create: lookahead must be finite and positive";
  {
    sims;
    lookahead;
    sources = Array.init n (fun _ -> { next_seq = 0; parity = 0 });
    ingress =
      Array.init n (fun _ -> { inbound = [||]; cursor = [||]; order = [||] });
    epoch = 0;
    busy_ns = Array.make n 0;
    wait_ns = Array.make n 0;
  }

let shard_count t = Array.length t.sims
let sim t i = t.sims.(i)
let lookahead t = t.lookahead
let busy_s t i = float_of_int t.busy_ns.(i) *. 1e-9
let wait_s t i = float_of_int t.wait_ns.(i) *. 1e-9

let open_channel t ~src ~dst ?latency () =
  let n = Array.length t.sims in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Shard.open_channel: shard out of range";
  if src = dst then invalid_arg "Shard.open_channel: src = dst";
  let latency = match latency with Some l -> l | None -> t.lookahead in
  if not (Float.is_finite latency && latency >= t.lookahead) then
    invalid_arg
      (Printf.sprintf
         "Shard.open_channel: latency %g below the lookahead %g would \
          deliver inside the current window"
         latency t.lookahead);
  let ch =
    {
      src_shard = src;
      dst_shard = dst;
      latency;
      src_sim = t.sims.(src);
      src = t.sources.(src);
      boxes = [| outbox (); outbox () |];
      sent = 0;
    }
  in
  let g = t.ingress.(dst) in
  g.inbound <- Array.append g.inbound [| ch |];
  g.cursor <- Array.make (Array.length g.inbound) 0;
  ch

(* Doubling growth of an outbox's lanes: O(1) amortized, and absent
   once the outbox has reached its per-window peak. *)
let extend a len fill =
  (* lint: allow R9 -- amortized doubling, absent at steady state *)
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 len;
  a'

let extend_floats a len =
  (* lint: allow R9 -- amortized doubling, absent at steady state *)
  let a' = Float.Array.make (2 * Float.Array.length a) 0. in
  Float.Array.blit a 0 a' 0 len;
  a'

let grow b =
  b.ints <- extend b.ints (b.len * n_int) 0;
  b.flts <- extend_floats b.flts (b.len * n_flt);
  b.routes <- extend b.routes b.len [||];
  b.sacks <- extend b.sacks b.len None

(* The egress hop runs on the source domain, inside its window: it
   copies the packet into the next slot of the current outbox and
   recycles the packet into the source domain's pool. The destination
   reads the payload only through the outbox, never the (pooled,
   domain-local) packet record itself. *)
let[@olia.alloc_free] send ch (p : Packet.t) =
  let src = ch.src in
  let b = ch.boxes.(src.parity) in
  if b.len = Array.length b.routes then grow b;
  let k = b.len in
  let ii = k * n_int and fi = k * n_flt in
  let ints = b.ints and flts = b.flts in
  let egress = Sim.now ch.src_sim in
  ints.(ii + i_kind) <- Packet.kind_code p.kind;
  ints.(ii + i_seq) <- p.seq;
  ints.(ii + i_flow) <- p.flow;
  ints.(ii + i_subflow) <- p.subflow;
  ints.(ii + i_hop) <- p.hop;
  ints.(ii + i_ackno) <- p.ackno;
  ints.(ii + i_src_seq) <- src.next_seq;
  Float.Array.set flts (fi + f_arrival) (egress +. ch.latency);
  Float.Array.set flts (fi + f_egress) egress;
  Float.Array.set flts (fi + f_sent_at) p.times.sent_at;
  Float.Array.set flts (fi + f_enqueued_at) p.times.enqueued_at;
  Float.Array.set flts (fi + f_echo) p.times.echo;
  b.routes.(k) <- p.route;
  b.sacks.(k) <- p.sack;
  b.len <- k + 1;
  src.next_seq <- src.next_seq + 1;
  ch.sent <- ch.sent + 1;
  Packet.free p

let egress ch : Packet.hop = fun p -> send ch p
let sent_count ch = ch.sent

(* Re-materialize slot [k] of [b] on the destination shard: a fresh
   packet from this domain's pool, positioned mid-route, delivered at
   its arrival time. The max with [now] absorbs the one-ulp rounding
   slack between [s +. latency] (computed on the source) and the window
   boundary [w *. lookahead] (computed locally). The egress instant
   rides as the [~sched] tie-break key, so the destination wheel breaks
   same-instant ties exactly like the sequential run's propagation
   pipe. *)
let deliver sim (b : outbox) k =
  let ii = k * n_int and fi = k * n_flt in
  let ints = b.ints and flts = b.flts in
  let sent_at = Float.Array.get flts (fi + f_sent_at) in
  let p =
    if ints.(ii + i_kind) = Packet.kind_code Packet.Data then
      Packet.data ~flow:ints.(ii + i_flow) ~subflow:ints.(ii + i_subflow)
        ~seq:ints.(ii + i_seq) ~sent_at ~route:b.routes.(k)
    else
      Packet.ack ~flow:ints.(ii + i_flow) ~subflow:ints.(ii + i_subflow)
        ~ackno:ints.(ii + i_ackno)
        ~echo:(Float.Array.get flts (fi + f_echo))
        ~sack:b.sacks.(k) ~route:b.routes.(k) ~sent_at
  in
  p.hop <- ints.(ii + i_hop);
  p.times.enqueued_at <- Float.Array.get flts (fi + f_enqueued_at);
  let at = Fmath.max (Float.Array.get flts (fi + f_arrival)) (Sim.now sim) in
  ignore
    (Sim.schedule_pkt_at_sched sim
       ~sched:(Float.Array.get flts (fi + f_egress))
       at Packet.forward p
      : Sim.Timer.t)

(* The deterministic merge order: (arrival, egress, src_shard, src_seq),
   lexicographically — arrival first so deliveries schedule in dispatch
   order, then the sequential run's arming order (egress instant, then
   send order within it). A total order on distinct messages, since
   [src_seq] is unique per source shard. Is slot [i] of [a] (carried by
   [ca]) before slot [j] of [b] (carried by [cb])? *)
let[@inline] before ca (a : outbox) i cb (b : outbox) j =
  let ta = Float.Array.get a.flts ((i * n_flt) + f_arrival)
  and tb = Float.Array.get b.flts ((j * n_flt) + f_arrival) in
  if ta <> tb then ta < tb
  else
    let ea = Float.Array.get a.flts ((i * n_flt) + f_egress)
    and eb = Float.Array.get b.flts ((j * n_flt) + f_egress) in
    if ea <> eb then ea < eb
    else if ca.src_shard <> cb.src_shard then ca.src_shard < cb.src_shard
    else a.ints.((i * n_int) + i_src_seq) < b.ints.((j * n_int) + i_src_seq)

(* Messages parked in the [parity] outboxes of inbound channels [c..]. *)
let rec parked inbound parity c acc =
  if c = Array.length inbound then acc
  else parked inbound parity (c + 1) (acc + inbound.(c).boxes.(parity).len)

(* The inbound channel [>= c] whose next unmerged message comes first,
   or [best] if none beats it ([-1]: none found yet). *)
let rec least inbound cursor parity c best =
  if c = Array.length inbound then best
  else
    let ch = inbound.(c) in
    let i = cursor.(c) in
    let b = ch.boxes.(parity) in
    let best =
      if i >= b.len then best
      else if best < 0 then c
      else
        let bc = inbound.(best) in
        if before ch b i bc bc.boxes.(parity) cursor.(best) then c else best
    in
    least inbound cursor parity (c + 1) best

(* k-way merge of the [parity] outboxes into [g.order]; returns the
   message count. Each outbox is already in merge order — one source
   shard, fixed latency, a non-decreasing clock and an increasing
   [src_seq] — so taking the least head each step yields the total
   order without sorting. Linear in k per message: k is the number of
   other shards. *)
let merge g parity =
  let inbound = g.inbound and cursor = g.cursor in
  Array.fill cursor 0 (Array.length cursor) 0;
  let n = parked inbound parity 0 0 in
  if 2 * n > Array.length g.order then
    (* lint: allow R9 -- amortized growth of the merge scratch, absent once it reaches the per-window peak *)
    g.order <- Array.make (4 * n) 0;
  let order = g.order in
  for m = 0 to n - 1 do
    let c = least inbound cursor parity 0 (-1) in
    order.(2 * m) <- c;
    order.((2 * m) + 1) <- cursor.(c);
    cursor.(c) <- cursor.(c) + 1
  done;
  n

(* Schedule every message the inbound channels sent in the previous
   window, in merge order, and empty their [parity] outboxes. *)
let[@olia.alloc_free] drain sim g parity =
  let inbound = g.inbound in
  let n = merge g parity in
  let order = g.order in
  for m = 0 to n - 1 do
    deliver sim inbound.(order.(2 * m)).boxes.(parity) order.((2 * m) + 1)
  done;
  for c = 0 to Array.length inbound - 1 do
    inbound.(c).boxes.(parity).len <- 0
  done

let pending t ~dst =
  let g = t.ingress.(dst) in
  let parity = t.epoch land 1 in
  let n = merge g parity in
  List.init n (fun m ->
      let ch = g.inbound.(g.order.(2 * m)) in
      let k = g.order.((2 * m) + 1) in
      let b = ch.boxes.(parity) in
      ( ch.src_shard,
        b.ints.((k * n_int) + i_src_seq),
        Float.Array.get b.flts ((k * n_flt) + f_arrival),
        Float.Array.get b.flts ((k * n_flt) + f_egress) ))

(* A sense-reversing barrier on a mutex + condition, waited on once per
   window: after every shard has drained the previous window's outboxes
   and run its own window. Its lock orders the phases across domains,
   so the outboxes themselves need none (see run_windows). *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
  }

  let create parties =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      parties;
      count = 0;
      phase = 0;
    }

  let wait b =
    Mutex.lock b.lock;
    let phase = b.phase in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.phase <- phase + 1;
      Condition.broadcast b.cond
    end
    else
      while b.phase = phase do
        Condition.wait b.cond b.lock
      done;
    Mutex.unlock b.lock
end

let windows ~lookahead ~horizon =
  if horizon <= 0. then 0
  else Int.max 1 (int_of_float (ceil ((horizon /. lookahead) -. 1e-9)))

(* Monotonic nanoseconds: a noalloc read with an unboxed result. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

let run_windows ~pool t ~horizon =
  if not (Float.is_finite horizon && horizon >= 0.) then
    invalid_arg "Shard.run_windows: horizon must be finite and non-negative";
  let n = Array.length t.sims in
  (* Tracing is per-worker: each domain binds its own trace ring (when
     rings are armed), so the window loop runs armed with no shared
     sink. *)
  if n = 1 then begin
    (* one shard: no channels can exist (open_channel rejects src = dst),
       so the window loop degenerates to chained run_until calls — run
       the single call directly on the calling domain. Chained and
       single run_until are bitwise identical, which is what the
       shards=1 ≡ sequential golden pins down. *)
    if Trace.enabled () then Trace.bind_ring ~shard:0;
    let t0 = now_ns () in
    Sim.run_until t.sims.(0) horizon;
    t.busy_ns.(0) <- now_ns () - t0;
    t.wait_ns.(0) <- 0
  end
  else begin
    let nw = windows ~lookahead:t.lookahead ~horizon in
    let epoch = t.epoch in
    let barrier = Barrier.create n in
    (* Window w: drain the outboxes of parity (w-1) — filled by every
       source during window w-1, before the previous barrier — then run
       to the boundary, sending into parity w, then wait. A source
       refills parity w-1 only in window w+1, i.e. after this shard has
       passed the next barrier and so finished draining it. Two clock
       reads per window split the worker's time into busy (drain and
       run) and wait (barrier). *)
    let worker i () =
      if Trace.enabled () then Trace.bind_ring ~shard:i;
      let sim = t.sims.(i) in
      let ing = t.ingress.(i) in
      let src = t.sources.(i) in
      let busy = ref 0 and wait = ref 0 in
      let t0 = ref (now_ns ()) in
      for w = 1 to nw do
        drain sim ing ((epoch + w - 1) land 1);
        src.parity <- (epoch + w) land 1;
        (* min horizon boundary, spelled as a branch so the computed
           boundary never boxes against the boxed [horizon] *)
        let boundary = float_of_int w *. t.lookahead in
        if horizon <= boundary then Sim.run_until sim horizon
        else Sim.run_until sim boundary;
        let t1 = now_ns () in
        Barrier.wait barrier;
        let t2 = now_ns () in
        busy := !busy + (t1 - !t0);
        wait := !wait + (t2 - t1);
        t0 := t2
      done;
      t.busy_ns.(i) <- !busy;
      t.wait_ns.(i) <- !wait
    in
    pool (Array.init n (fun i -> worker i));
    t.epoch <- epoch + nw
  end
