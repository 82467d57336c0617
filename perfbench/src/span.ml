(* lint: allow-file R1 -- the span recorder reads the host's monotonic clock; simulated results never see it *)

(* Per-layer span accounting, kept allocation-free so that tracing
   does not change what the GC does on the packet path.

   A recorder belongs to exactly one domain. [enter] pushes a frame on
   a preallocated stack and reads the clock last; [leave] reads the
   clock first, pops the frame and charges the layer with its self time
   (the span minus the part its child spans cover). Nothing is
   allocated per span: the stack and the per-layer totals are int
   arrays sized at creation. *)

let queue_enqueue = 0
let pipe_hop = 1
let tcp_ack = 2
let tcp_sink = 3
let cc_increase = 4
let cc_on_ack = 5
let cc_on_loss = 6
let shard_egress = 7
let tcp_create = 8
let topology_build = 9
let topology_paths = 10
let workload_gen = 11
let calibration = 12

let names =
  [|
    "queue.enqueue";
    "pipe.hop";
    "tcp.ack";
    "tcp.sink";
    "cc.increase";
    "cc.on_ack";
    "cc.on_loss";
    "shard.egress";
    "tcp.create";
    "topology.build";
    "topology.paths";
    "workload.gen";
    "calibration";
  |]

let layers = Array.length names

(* Layers that run inside the event loop: their self times are what
   the run phase's wall time is split into. The set-up layers are only
   ever entered with an empty stack. *)
let run_phase =
  [
    queue_enqueue;
    pipe_hop;
    tcp_ack;
    tcp_sink;
    cc_increase;
    cc_on_ack;
    cc_on_loss;
    shard_egress;
  ]

let setup_phase = [ tcp_create; topology_build; topology_paths; workload_gen ]

let max_depth = 32

type t = {
  mutable owner : int;  (* id of the only domain allowed to record *)
  mutable foreign : int;  (* spans entered from another domain *)
  mutable depth : int;
  frame_layer : int array;
  frame_start : int array;
  frame_child_ns : int array;  (* time covered by direct children *)
  frame_children : int array;  (* number of direct children *)
  calls : int array;
  self_ns : int array;
  children : int array;  (* direct child spans, summed per layer *)
  mutable top_spans : int;  (* spans entered with an empty stack *)
  mutable first_hops : int;  (* data packets entering a route's first hop *)
}

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

let domain_id () = (Domain.self () :> int)

let create () =
  {
    owner = domain_id ();
    foreign = 0;
    depth = 0;
    frame_layer = Array.make max_depth 0;
    frame_start = Array.make max_depth 0;
    frame_child_ns = Array.make max_depth 0;
    frame_children = Array.make max_depth 0;
    calls = Array.make layers 0;
    self_ns = Array.make layers 0;
    children = Array.make layers 0;
    top_spans = 0;
    first_hops = 0;
  }

let bind t = t.owner <- domain_id ()

let enter t layer =
  if domain_id () <> t.owner then t.foreign <- t.foreign + 1;
  let d = t.depth in
  if d >= max_depth then failwith "Span.enter: span stack overflow";
  t.frame_layer.(d) <- layer;
  t.frame_child_ns.(d) <- 0;
  t.frame_children.(d) <- 0;
  t.depth <- d + 1;
  t.frame_start.(d) <- now_ns ()

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  if d < 0 then failwith "Span.leave: no open span";
  t.depth <- d;
  let dur = stop - t.frame_start.(d) in
  let l = t.frame_layer.(d) in
  t.calls.(l) <- t.calls.(l) + 1;
  t.self_ns.(l) <- t.self_ns.(l) + dur - t.frame_child_ns.(d);
  t.children.(l) <- t.children.(l) + t.frame_children.(d);
  if d > 0 then begin
    t.frame_child_ns.(d - 1) <- t.frame_child_ns.(d - 1) + dur;
    t.frame_children.(d - 1) <- t.frame_children.(d - 1) + 1
  end
  else t.top_spans <- t.top_spans + 1

(* Set-up spans wrap a closure; the closure is allocated once per call
   of a constructor, never on the packet path. *)
let around tr layer f =
  match tr with
  | None -> f ()
  | Some t ->
    enter t layer;
    let r = f () in
    leave t;
    r

let reset t =
  if t.depth <> 0 then failwith "Span.reset: open spans";
  t.foreign <- 0;
  Array.fill t.calls 0 layers 0;
  Array.fill t.self_ns 0 layers 0;
  Array.fill t.children 0 layers 0;
  t.top_spans <- 0;
  t.first_hops <- 0

(* Sum of several recorders (one per shard), into a fresh one. *)
let sum ts =
  let acc = create () in
  Array.iter
    (fun t ->
      if t.depth <> 0 then failwith "Span.sum: open spans";
      acc.foreign <- acc.foreign + t.foreign;
      for l = 0 to layers - 1 do
        acc.calls.(l) <- acc.calls.(l) + t.calls.(l);
        acc.self_ns.(l) <- acc.self_ns.(l) + t.self_ns.(l);
        acc.children.(l) <- acc.children.(l) + t.children.(l)
      done;
      acc.top_spans <- acc.top_spans + t.top_spans;
      acc.first_hops <- acc.first_hops + t.first_hops)
    ts;
  acc

(* The cost of one empty span, split where it lands: [inner_ns] is the
   part between the two clock reads, so it inflates the span's own self
   time; [outer_ns] is the rest, which the parent's self time (or, for
   a top-level span, the untimed residual) absorbs. *)
type cost = { span_ns : float; inner_ns : float; outer_ns : float }

let calibrate ?(n = 200_000) ?(rounds = 7) () =
  let t = create () in
  let one () =
    reset t;
    let t0 = now_ns () in
    for _ = 1 to n do
      enter t calibration;
      leave t
    done;
    let total = float_of_int (now_ns () - t0) /. float_of_int n in
    let inner = float_of_int t.self_ns.(calibration) /. float_of_int n in
    (total, inner)
  in
  let samples = Array.init rounds (fun _ -> one ()) in
  Array.sort compare samples;
  let total, inner = samples.(rounds / 2) in
  { span_ns = total; inner_ns = inner; outer_ns = total -. inner }

(* Self time of a layer with the tracing cost taken out: each of its
   calls carries one inner cost, each of its direct children one outer
   cost. *)
let corrected_self_ns cost t l =
  float_of_int t.self_ns.(l)
  -. (float_of_int t.calls.(l) *. cost.inner_ns)
  -. (float_of_int t.children.(l) *. cost.outer_ns)
