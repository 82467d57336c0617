(* Hierarchical timing wheel with pooled timer cells.

   Time is quantised to integer nanosecond ticks for *placement* only:
   the wheel orders events between slots, and each slot is drained into
   a "due" buffer sorted by the exact [float] dispatch key, so the tick
   quantisation is never observable. The key is [(time, sched,
   content, seq)]: [sched] is the clock value at the moment the timer
   was armed (cross-shard deliveries pass their source-shard egress
   time instead — see [schedule_pkt_at_sched]), and [content] orders
   same-instant packet deliveries by the packet's own header so that
   dispatch order does not depend on the shard count (see the dispatch
   order comment below). Four levels of 256 slots with a level-0
   granularity of 2^16 ns span ~3.26 simulated days; events beyond that
   live in a sorted spill list, and every spill tick is strictly
   greater than every wheel tick so the two never interleave.

   Cells are a pool indexed by small ints. The seven int fields of a
   cell are packed at stride 8 in one [int array] (one cache line per
   cell) and its three float fields at stride 4 in one [floatarray]
   (unboxed stores); the free list threads through the [next] field. A
   [Timer.t] handle packs the cell index with a generation stamp into
   one immediate int, so arming, firing, cancelling and re-arming a
   timer allocates nothing. *)

module Trace = Repro_obs.Trace

let bits = 8
let slots_per_level = 1 lsl bits (* 256 *)
let slot_mask = slots_per_level - 1
let levels = 4
let g0 = 16 (* level-0 slot width: 2^16 ns = 65.536 us *)
let shift k = g0 + (k * bits)
let sh0 = g0
let sh1 = g0 + bits
let sh2 = g0 + (2 * bits)
let sh3 = g0 + (3 * bits)
let sh4 = g0 + (4 * bits) (* 48: beyond this horizon, events spill *)
let idx_bits = 24 (* up to 16M live cells; generations in the rest *)
let idx_mask = (1 lsl idx_bits) - 1

(* [int_of_float] is unspecified out of range, so clamp absurd times to
   one huge shared tick; such events all land in the spill list, where
   ordering uses the exact floats anyway. *)
let huge_tick = max_int lsr 1

let[@inline] tick_of_time time =
  if time >= 4.0e9 then huge_tick else int_of_float (time *. 1e9)

(* Cell states. *)
let st_free = 0
let st_wheel = 1
let st_due = 2
let st_spill = 3
let st_running = 4 (* periodic timer inside its own callback *)
let st_cancelled = 5 (* periodic cancelled from inside its callback *)

let nil = -1
let nop () = ()
let pnop (_ : Packet.t) = ()

(* Offsets of a cell's int fields within its stride-8 block. *)
let o_tick = 0 (* placement tick *)
let o_seq = 1 (* tie-break: scheduling order *)
let o_gen = 2 (* bumped on free; stale-handle guard *)
let o_state = 3
let o_slot = 4 (* wheel cells: level*256 + slot index *)
let o_next = 5 (* slot/spill chain, free-list link *)
let o_prev = 6
let o_kind = 7 (* 1 when the callback is the packet fn, else 0 *)

type t = {
  (* --- cell pool (all grown together) --- *)
  mutable cap : int;
  mutable fl_ : floatarray;
      (* stride 4: exact fire time; period; scheduling time; (unused) *)
  mutable ints_ : int array; (* stride 8: the o_* fields above *)
  mutable fn_ : (unit -> unit) array;
  mutable pfn_ : (Packet.t -> unit) array;
  mutable pkt_ : Packet.t array;
  mutable free_head : int;
  (* --- wheel --- *)
  slots : int array; (* head cell per slot, levels*256, nil if empty *)
  occ : int array; (* occupancy bitmaps: 8 words of 32 bits per level *)
  summ : int array; (* per level: bit w set iff occ word w is nonzero *)
  mutable spill_head : int;
  mutable cur : int; (* wheel position: tick at the current slot base *)
  (* --- due buffer: the current slot, kept in dispatch order --- *)
  mutable due : int array;
  mutable due_head : int;
  mutable due_len : int;
  sentinel : Packet.t; (* parks the pkt_ slot of non-packet cells *)
  (* --- clock and counters --- *)
  clk : floatarray;
      (* one slot; a [mutable clock : float] field in this mixed record
         would box on every store — one minor alloc per dispatch *)
  stage : floatarray;
      (* two slots: staging area for passing the deadline (slot 0) and
         the scheduling time (slot 1) into the out-of-line scheduler
         without float arguments (float args box at call boundaries the
         inliner declines to erase) *)
  mutable next_seq : int;
  mutable len : int; (* pending timers *)
  mutable processed : int;
  mutable max_depth : int; (* high-water of [len] *)
}

(* Thread the free list through [o_next] and stamp fresh generations
   over [pool.(from * 8) ..] (field defaults elsewhere are all 0). *)
let init_cells pool ~from ~until =
  for i = from to until - 1 do
    let b = i lsl 3 in
    Array.unsafe_set pool (b + o_gen) 1;
    Array.unsafe_set pool (b + o_slot) nil;
    Array.unsafe_set pool (b + o_next) (if i + 1 < until then i + 1 else nil);
    Array.unsafe_set pool (b + o_prev) nil
  done

let create () =
  let cap = 256 in
  let sentinel = Packet.sentinel () in
  let ints_ = Array.make (cap * 8) 0 in
  init_cells ints_ ~from:0 ~until:cap;
  {
    cap;
    fl_ = Float.Array.make (cap * 4) 0.;
    ints_;
    fn_ = Array.make cap nop;
    pfn_ = Array.make cap pnop;
    pkt_ = Array.make cap sentinel;
    free_head = 0;
    slots = Array.make (levels * slots_per_level) nil;
    occ = Array.make (levels * 8) 0;
    summ = Array.make levels 0;
    spill_head = nil;
    cur = 0;
    due = Array.make 64 nil;
    due_head = 0;
    due_len = 0;
    sentinel;
    clk = Float.Array.make 1 0.;
    stage = Float.Array.make 2 0.;
    next_seq = 0;
    len = 0;
    processed = 0;
    max_depth = 0;
  }

type sim = t

(* Inlined so the float result stays in a register at call sites (the
   classical compiler boxes float returns across calls). *)
let[@inline] now t = Float.Array.unsafe_get t.clk 0
let pending t = t.len
let events_processed t = t.processed
let max_heap_depth t = t.max_depth

(* --- cell field accessors --- *)

let[@inline] get_time t c = Float.Array.unsafe_get t.fl_ (c lsl 2)
let[@inline] set_time t c v = Float.Array.unsafe_set t.fl_ (c lsl 2) v
let[@inline] get_period t c = Float.Array.unsafe_get t.fl_ ((c lsl 2) + 1)
let[@inline] set_period t c v = Float.Array.unsafe_set t.fl_ ((c lsl 2) + 1) v
let[@inline] get_sched t c = Float.Array.unsafe_get t.fl_ ((c lsl 2) + 2)
let[@inline] set_sched t c v = Float.Array.unsafe_set t.fl_ ((c lsl 2) + 2) v
let[@inline] get_tick t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_tick)
let[@inline] set_tick t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_tick) v
let[@inline] get_seq t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_seq)
let[@inline] set_seq t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_seq) v
let[@inline] get_gen t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_gen)
let[@inline] set_gen t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_gen) v
let[@inline] get_state t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_state)
let[@inline] set_state t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_state) v
let[@inline] get_slot t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_slot)
let[@inline] set_slot t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_slot) v
let[@inline] get_next t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_next)
let[@inline] set_next t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_next) v
let[@inline] get_prev t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_prev)
let[@inline] set_prev t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_prev) v
let[@inline] get_kind t c = Array.unsafe_get t.ints_ ((c lsl 3) + o_kind)
let[@inline] set_kind t c v = Array.unsafe_set t.ints_ ((c lsl 3) + o_kind) v

(* --- cell pool --- *)

let grow t =
  let cap = t.cap in
  let cap' = 4 * cap in
  if cap' > idx_mask + 1 then invalid_arg "Sim: too many pending timers";
  let gi old init len len' =
    (* lint: allow R9 -- amortized cell-pool growth (4x doubling): absent once the wheel reaches its working set *)
    let a = Array.make len' init in
    Array.blit old 0 a 0 len;
    a
  in
  (* lint: allow R9 -- same amortized growth as [gi] above *)
  let fl = Float.Array.make (cap' * 4) 0. in
  Float.Array.blit t.fl_ 0 fl 0 (cap * 4);
  t.fl_ <- fl;
  t.ints_ <- gi t.ints_ 0 (cap * 8) (cap' * 8);
  init_cells t.ints_ ~from:cap ~until:cap';
  t.fn_ <- gi t.fn_ nop cap cap';
  t.pfn_ <- gi t.pfn_ pnop cap cap';
  t.pkt_ <- gi t.pkt_ t.sentinel cap cap';
  t.free_head <- cap;
  t.cap <- cap'

let alloc_cell t =
  if t.free_head = nil then grow t;
  let c = t.free_head in
  t.free_head <- get_next t c;
  c

(* Bump the generation so outstanding handles go stale. The callback
   and packet slots are deliberately NOT cleared: each clear is a
   [caml_modify] write barrier on the hottest path in the simulator,
   and a free cell's stale references die at the next reuse anyway.
   The retention this trades away is bounded by the pool size, and
   packets are owned by the packet pool regardless. The [o_kind] flag
   (set by every schedule) keeps a reused cell from dispatching a
   stale packet callback. *)
let free_cell t c =
  set_gen t c (get_gen t c + 1);
  set_state t c st_free;
  set_next t c t.free_head;
  t.free_head <- c

(* --- handles --- *)

let[@inline] handle_of t c = (get_gen t c lsl idx_bits) lor c

let cell_of t h =
  if h < 0 then nil
  else
    let c = h land idx_mask in
    if c < t.cap && get_state t c <> st_free && get_gen t c = h lsr idx_bits
    then c
    else nil

(* --- dispatch order ---

   Cells sort by [(time, sched)] first; at a full tie, closure timers
   dispatch before packet deliveries, packet deliveries order by their
   packet's own header fields, and arming order ([seq]) is the last
   resort. The content key is what makes sharded runs deterministic: a
   cross-shard arrival is re-materialized with exactly the header the
   sequential run's packet would carry at that hop, so breaking
   same-instant ties on content — rather than on arming order, which
   depends on when the window drain ran — keeps sharded dispatch
   identical to sequential dispatch. Same-instant collisions are common,
   not exotic: a backlogged queue emits packets on a lattice of
   transmission-time multiples, so disjoint equal-latency paths
   re-synchronize packets to exactly equal floats. Header comparisons
   use native int/float compares only, so scheduling stays
   allocation-free. *)

let pkt_cmp (a : Packet.t) (b : Packet.t) =
  if a == b then 0
  else
    let c = Int.compare a.Packet.flow b.Packet.flow in
    if c <> 0 then c
    else
      let c = Int.compare a.Packet.subflow b.Packet.subflow in
      if c <> 0 then c
      else
        let c = Int.compare a.Packet.seq b.Packet.seq in
        if c <> 0 then c
        else
          let c =
            Int.compare
              (Packet.kind_code a.Packet.kind)
              (Packet.kind_code b.Packet.kind)
          in
          if c <> 0 then c
          else
            let c = Int.compare a.Packet.hop b.Packet.hop in
            if c <> 0 then c
            else
              let c = Int.compare a.Packet.ackno b.Packet.ackno in
              if c <> 0 then c
              else
                let at = a.Packet.times and bt = b.Packet.times in
                if at.Packet.sent_at < bt.Packet.sent_at then -1
                else if at.Packet.sent_at > bt.Packet.sent_at then 1
                else if at.Packet.echo < bt.Packet.echo then -1
                else if at.Packet.echo > bt.Packet.echo then 1
                else if at.Packet.enqueued_at < bt.Packet.enqueued_at then -1
                else if at.Packet.enqueued_at > bt.Packet.enqueued_at then 1
                else 0

(* [true] iff cell [o] dispatches strictly after cell [c]. *)
let cell_after t o c =
  let ot = get_time t o and ct = get_time t c in
  if ot <> ct then ot > ct
  else
    let os = get_sched t o and cs = get_sched t c in
    if os <> cs then os > cs
    else
      let ok = get_kind t o and ck = get_kind t c in
      if ok <> ck then ok > ck
      else if ok = 1 then
        let pc =
          pkt_cmp (Array.unsafe_get t.pkt_ o) (Array.unsafe_get t.pkt_ c)
        in
        if pc <> 0 then pc > 0 else get_seq t o > get_seq t c
      else get_seq t o > get_seq t c

(* --- due buffer: cells of the current slot, kept in dispatch order --- *)

let due_grow t =
  (* lint: allow R9 -- amortized due-buffer growth: doubling, absent at steady state *)
  let a = Array.make (2 * Array.length t.due) nil in
  Array.blit t.due 0 a 0 t.due_len;
  t.due <- a

(* Shift larger entries one slot right, returning the insertion
   position; tail-recursive rather than a local [ref] so inserts stay
   allocation-free (R9). *)
let rec due_shift t c pos =
  if pos > t.due_head && cell_after t (Array.unsafe_get t.due (pos - 1)) c
  then begin
    Array.unsafe_set t.due pos (Array.unsafe_get t.due (pos - 1));
    due_shift t c (pos - 1)
  end
  else pos

(* Insert keeping dispatch order. Fresh arrivals carry the largest seq,
   so they nearly always sort last: scan from the tail. Only positions
   >= [due_head] move; the already-dispatched prefix stays put, so a
   dispatch in progress is unaffected. *)
let due_insert t c =
  if t.due_head = t.due_len then begin
    t.due_head <- 0;
    t.due_len <- 0
  end;
  if t.due_len = Array.length t.due then due_grow t;
  let pos = due_shift t c t.due_len in
  Array.unsafe_set t.due pos c;
  t.due_len <- t.due_len + 1;
  set_state t c st_due

let rec due_scan t c pos =
  if t.due.(pos) <> c then due_scan t c (pos + 1) else pos

let due_remove t c =
  let pos = due_scan t c t.due_head in
  Array.blit t.due (pos + 1) t.due pos (t.due_len - pos - 1);
  t.due_len <- t.due_len - 1

(* --- wheel slots --- *)

let[@inline] occ_set t level slot =
  let w = (level * 8) + (slot lsr 5) in
  Array.unsafe_set t.occ w (Array.unsafe_get t.occ w lor (1 lsl (slot land 31)));
  Array.unsafe_set t.summ level
    (Array.unsafe_get t.summ level lor (1 lsl (slot lsr 5)))

let[@inline] occ_clear t level slot =
  let w = (level * 8) + (slot lsr 5) in
  Array.unsafe_set t.occ w
    (Array.unsafe_get t.occ w land lnot (1 lsl (slot land 31)));
  if Array.unsafe_get t.occ w = 0 then
    Array.unsafe_set t.summ level
      (Array.unsafe_get t.summ level land lnot (1 lsl (slot lsr 5)))

let wheel_push t c level slot =
  let s = (level * slots_per_level) + slot in
  let head = Array.unsafe_get t.slots s in
  set_next t c head;
  set_prev t c nil;
  if head <> nil then set_prev t head c;
  Array.unsafe_set t.slots s c;
  set_slot t c s;
  set_state t c st_wheel;
  if head = nil then occ_set t level slot

let wheel_unlink t c =
  let s = get_slot t c in
  let nx = get_next t c and pv = get_prev t c in
  if nx <> nil then set_prev t nx pv;
  if pv <> nil then set_next t pv nx
  else begin
    Array.unsafe_set t.slots s nx;
    if nx = nil then occ_clear t (s lsr bits) (s land slot_mask)
  end

(* --- spill list: sorted, for events beyond the wheel span --- *)

(* Walk to the first spill cell not dispatching strictly before [c];
   returns the predecessor (or [nil]) — tail-recursive rather than
   local [ref]s so inserts stay allocation-free (R9). *)
let rec spill_pos t c prev cur =
  if cur <> nil && cell_after t c cur then
    spill_pos t c cur (get_next t cur)
  else prev

let spill_insert t c =
  let prev = spill_pos t c nil t.spill_head in
  let cur = if prev = nil then t.spill_head else get_next t prev in
  set_next t c cur;
  set_prev t c prev;
  if cur <> nil then set_prev t cur c;
  if prev <> nil then set_next t prev c else t.spill_head <- c;
  set_slot t c nil;
  set_state t c st_spill

let spill_unlink t c =
  let nx = get_next t c and pv = get_prev t c in
  if nx <> nil then set_prev t nx pv;
  if pv <> nil then set_next t pv nx else t.spill_head <- nx

(* Place a cell relative to the wheel position [t.cur]: into the due
   buffer if its slot is at or behind the current one (run_until can
   park the wheel ahead of the clock, so "behind" is reachable), else
   into the innermost level whose parent slot it shares with [t.cur],
   else into the spill list. *)
let place t c =
  let tick = get_tick t c in
  let cur = t.cur in
  if tick lsr sh0 <= cur lsr sh0 then due_insert t c
  else if tick lsr sh1 = cur lsr sh1 then
    wheel_push t c 0 ((tick lsr sh0) land slot_mask)
  else if tick lsr sh2 = cur lsr sh2 then
    wheel_push t c 1 ((tick lsr sh1) land slot_mask)
  else if tick lsr sh3 = cur lsr sh3 then
    wheel_push t c 2 ((tick lsr sh2) land slot_mask)
  else if tick lsr sh4 = cur lsr sh4 then
    wheel_push t c 3 ((tick lsr sh3) land slot_mask)
  else spill_insert t c

let unlink t c =
  let st = get_state t c in
  if st = st_wheel then wheel_unlink t c
  else if st = st_due then due_remove t c
  else if st = st_spill then spill_unlink t c

(* --- advancing the wheel --- *)

let[@inline] ctz word =
  let x = ref (word land -word) and n = ref 0 in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* First occupied slot with index > [after] at [level], or -1. The
   summary word finds the first nonzero occupancy word in O(1), so a
   miss costs two masked loads instead of a walk over all 8 words. *)
let scan_occ t level after =
  let from = after + 1 in
  if from >= slots_per_level then -1
  else begin
    let base = level * 8 in
    let w0 = from lsr 5 in
    let word = Array.unsafe_get t.occ (base + w0) land (-1 lsl (from land 31)) in
    if word <> 0 then (w0 lsl 5) + ctz word
    else begin
      let rest = Array.unsafe_get t.summ level land (-2 lsl w0) in
      if rest = 0 then -1
      else begin
        let w = ctz rest in
        (w lsl 5) + ctz (Array.unsafe_get t.occ (base + w))
      end
    end
  end

let take_slot t level slot =
  let s = (level * slots_per_level) + slot in
  let head = Array.unsafe_get t.slots s in
  Array.unsafe_set t.slots s nil;
  occ_clear t level slot;
  head

(* Refill the due buffer: advance [t.cur] to the next occupied level-0
   slot and drain it, cascading an outer slot inward (or pulling the
   next rotation's worth of spill cells in) when level 0 is exhausted.
   Precondition: [t.len > 0]. *)
let rec advance t =
  if t.due_head >= t.due_len then begin
    let s0 = scan_occ t 0 ((t.cur lsr sh0) land slot_mask) in
    if s0 >= 0 then begin
      t.cur <- ((t.cur lsr sh1) lsl sh1) lor (s0 lsl sh0);
      let c = ref (take_slot t 0 s0) in
      while !c <> nil do
        let nx = get_next t !c in
        due_insert t !c;
        c := nx
      done
    end
    else begin
      let cascaded = ref false in
      let level = ref 1 in
      while (not !cascaded) && !level < levels do
        let k = !level in
        let s = scan_occ t k ((t.cur lsr shift k) land slot_mask) in
        if s >= 0 then begin
          let up = shift (k + 1) in
          t.cur <- ((t.cur lsr up) lsl up) lor (s lsl shift k);
          let head = take_slot t k s in
          if head <> nil && get_next t head = nil then begin
            (* Single cell: it is the earliest pending event overall
               (this was the first occupied slot of the innermost
               occupied level), so skip the level-by-level re-descent
               and park the wheel right at its level-0 slot. *)
            t.cur <- (get_tick t head lsr sh0) lsl sh0;
            due_insert t head
          end
          else begin
            let c = ref head in
            while !c <> nil do
              let nx = get_next t !c in
              place t !c;
              c := nx
            done
          end;
          cascaded := true
        end
        else incr level
      done;
      if not !cascaded then begin
        (* Wheel empty: jump to the spill head's rotation and pull in
           every spill cell that now fits the wheel span. *)
        t.cur <- get_tick t t.spill_head;
        let c = ref t.spill_head in
        while !c <> nil && get_tick t !c lsr sh4 = t.cur lsr sh4 do
          let nx = get_next t !c in
          spill_unlink t !c;
          place t !c;
          c := nx
        done
      end;
      advance t
    end
  end

(* --- scheduling --- *)

(* The scheduling time rides in stage slot 1: the inlined wrappers
   store the current clock there, and [Shard.deliver]'s sched-override
   entry point stores the message's original egress time instead.
   Placement is a separate step ([commit_cell]) because the dispatch
   comparator reads the cell's kind and packet, which the caller
   attaches between the two. *)
let[@inline] schedule_cell t time =
  let c = alloc_cell t in
  set_time t c time;
  set_period t c 0.;
  set_sched t c (Float.Array.unsafe_get t.stage 1);
  set_kind t c 0;
  set_tick t c (tick_of_time time);
  set_seq t c t.next_seq;
  t.next_seq <- t.next_seq + 1;
  c

let[@inline] commit_cell t c =
  place t c;
  t.len <- t.len + 1;
  if t.len > t.max_depth then t.max_depth <- t.len

(* [time -. time] is 0 exactly for finite floats, nan otherwise. *)
let[@inline] check_time t time =
  if time -. time <> 0. then invalid_arg "Sim.schedule_at: non-finite time";
  if time < Float.Array.unsafe_get t.clk 0 then
    invalid_arg "Sim.schedule_at: time in the past"

(* The out-of-line scheduler bodies take the deadline through [t.stage]
   rather than a float parameter: the inlined wrappers below store the
   caller's (unboxed) float there, so no box is ever materialised on
   the schedule path. *)
let schedule_staged t fn =
  let time = Float.Array.unsafe_get t.stage 0 in
  check_time t time;
  let c = schedule_cell t time in
  Array.unsafe_set t.fn_ c fn;
  commit_cell t c;
  handle_of t c

let[@inline] schedule_at ?src:_ t time fn =
  Float.Array.unsafe_set t.stage 0 time;
  Float.Array.unsafe_set t.stage 1 (Float.Array.unsafe_get t.clk 0);
  schedule_staged t fn

let[@inline] schedule_after t delay fn =
  Float.Array.unsafe_set t.stage 0 (Float.Array.unsafe_get t.clk 0 +. delay);
  Float.Array.unsafe_set t.stage 1 (Float.Array.unsafe_get t.clk 0);
  schedule_staged t fn

let schedule_pkt_staged t fn p =
  let time = Float.Array.unsafe_get t.stage 0 in
  check_time t time;
  let c = schedule_cell t time in
  set_kind t c 1;
  Array.unsafe_set t.pfn_ c fn;
  Array.unsafe_set t.pkt_ c p;
  commit_cell t c;
  handle_of t c

let[@inline] schedule_pkt_at t time fn p =
  Float.Array.unsafe_set t.stage 0 time;
  Float.Array.unsafe_set t.stage 1 (Float.Array.unsafe_get t.clk 0);
  schedule_pkt_staged t fn p

let[@inline] schedule_pkt_after t delay fn p =
  Float.Array.unsafe_set t.stage 0 (Float.Array.unsafe_get t.clk 0 +. delay);
  Float.Array.unsafe_set t.stage 1 (Float.Array.unsafe_get t.clk 0);
  schedule_pkt_staged t fn p

(* Cross-shard delivery: schedule at [time] but break same-instant ties
   as if the timer had been armed at [sched] — the egress time on the
   source shard, i.e. exactly when the sequential run's propagation
   pipe would have scheduled this arrival. [sched] may lie in the past;
   it is an ordering key, not a deadline. *)
let[@inline] schedule_pkt_at_sched t ~sched time fn p =
  Float.Array.unsafe_set t.stage 0 time;
  Float.Array.unsafe_set t.stage 1 sched;
  schedule_pkt_staged t fn p

let every ?start t period fn =
  if not (period -. period = 0. && period > 0.) then
    invalid_arg "Sim.every: period must be finite and positive";
  let start =
    match start with
    | Some s -> s
    | None -> Float.Array.unsafe_get t.clk 0 +. period
  in
  check_time t start;
  Float.Array.unsafe_set t.stage 1 (Float.Array.unsafe_get t.clk 0);
  let c = schedule_cell t start in
  set_period t c period;
  t.fn_.(c) <- fn;
  commit_cell t c;
  handle_of t c

(* --- timer operations --- *)

let timer_active t h =
  let c = cell_of t h in
  c <> nil && get_state t c <> st_cancelled

let timer_cancel t h =
  let c = cell_of t h in
  if c <> nil then
    if get_state t c = st_running then
      (* A periodic timer cancelling itself mid-callback: the dispatcher
         already took it off the books; just stop the re-arm. *)
      set_state t c st_cancelled
    else if get_state t c <> st_cancelled then begin
      unlink t c;
      t.len <- t.len - 1;
      free_cell t c
    end

let reschedule_staged t h =
  let time = Float.Array.unsafe_get t.stage 0 in
  let c = cell_of t h in
  if c = nil then invalid_arg "Sim.Timer.reschedule: timer not active";
  if get_period t c > 0. then
    invalid_arg "Sim.Timer.reschedule: timer is periodic";
  if time -. time <> 0. then
    invalid_arg "Sim.Timer.reschedule: non-finite time";
  if time < Float.Array.unsafe_get t.clk 0 then
    invalid_arg "Sim.Timer.reschedule: time in the past";
  unlink t c;
  set_time t c time;
  set_sched t c (Float.Array.unsafe_get t.clk 0);
  set_tick t c (tick_of_time time);
  set_seq t c t.next_seq;
  t.next_seq <- t.next_seq + 1;
  place t c

module Timer = struct
  type nonrec t = int

  let none = -1
  let active = timer_active
  let cancel = timer_cancel

  let[@inline] reschedule t h time =
    Float.Array.unsafe_set t.stage 0 time;
    reschedule_staged t h
end

(* --- dispatch --- *)

let[@olia.alloc_free] dispatch t =
  let c = Array.unsafe_get t.due t.due_head in
  t.due_head <- t.due_head + 1;
  let time = get_time t c in
  if Invariant.enabled () then
    Invariant.require
      (time >= Float.Array.unsafe_get t.clk 0)
      "Sim: dispatch clock went backward";
  Float.Array.unsafe_set t.clk 0 time;
  t.processed <- t.processed + 1;
  t.len <- t.len - 1;
  let period = get_period t c in
  if period > 0. then begin
    if Trace.enabled () then
      Trace.set_dispatch_ctx ~sched:(get_sched t c) ~cls:0 ~flow:0 ~subflow:0
        ~pseq:0 ~kind:0;
    set_state t c st_running;
    (Array.unsafe_get t.fn_ c) ();
    if get_state t c = st_running then begin
      (* Re-arm in place: same cell, same handle, fresh seq — taken
         exactly where the old tail-recursive [schedule_after] idiom
         took its seq, after the callback body. The clock equals [time]
         here, so [sched = time] is the arming-time clock. *)
      let time' = time +. period in
      set_time t c time';
      set_sched t c time;
      set_tick t c (tick_of_time time');
      set_seq t c t.next_seq;
      t.next_seq <- t.next_seq + 1;
      place t c;
      t.len <- t.len + 1;
      if t.len > t.max_depth then t.max_depth <- t.len
    end
    else free_cell t c
  end
  else if get_kind t c = 1 then begin
    let pfn = Array.unsafe_get t.pfn_ c in
    let pkt = Array.unsafe_get t.pkt_ c in
    if Trace.enabled () then
      Trace.set_dispatch_ctx ~sched:(get_sched t c) ~cls:1
        ~flow:pkt.Packet.flow ~subflow:pkt.Packet.subflow ~pseq:pkt.Packet.seq
        ~kind:(Packet.kind_code pkt.Packet.kind);
    (* Free before running so the callback can reuse the cell at once;
       its handle is already stale (generation bumped). *)
    free_cell t c;
    pfn pkt
  end
  else begin
    let fn = Array.unsafe_get t.fn_ c in
    if Trace.enabled () then
      Trace.set_dispatch_ctx ~sched:(get_sched t c) ~cls:0 ~flow:0 ~subflow:0
        ~pseq:0 ~kind:0;
    free_cell t c;
    fn ()
  end

(* The horizon rides in stage slot 0 like a deadline, so a computed
   horizon (the shard window loop passes one per window) never boxes.
   It is read once on entry: dispatched events restage the slot. *)
let run_until_staged t =
  let horizon = Float.Array.unsafe_get t.stage 0 in
  if horizon -. horizon <> 0. then
    invalid_arg "Sim.run_until: non-finite horizon";
  let continue = ref true in
  while !continue && t.len > 0 do
    if t.due_head >= t.due_len then advance t;
    (* peek inline: calling a float-returning helper would box the
       peeked time once per dispatched event *)
    if get_time t (Array.unsafe_get t.due t.due_head) > horizon then
      continue := false
    else dispatch t
  done;
  if Float.Array.unsafe_get t.clk 0 < horizon then
    Float.Array.unsafe_set t.clk 0 horizon

let[@inline] run_until t horizon =
  Float.Array.unsafe_set t.stage 0 horizon;
  run_until_staged t

let run t =
  while t.len > 0 do
    if t.due_head >= t.due_len then advance t;
    dispatch t
  done
