(* lint: allow-file R1 -- worker wall times come from the host's monotonic clock; simulated results never see them *)

(* Instrumentation applied from outside the simulator: every wrapper
   here stands in for a value the benchmark itself hands to a layer (a
   route hop, a congestion controller, the shard pool), so the library
   code under test is exactly the code users run. *)

open Repro_netsim

let hop t layer (h : Packet.hop) : Packet.hop =
 fun p ->
  Span.enter t layer;
  h p;
  Span.leave t

(* A route's first forward hop also counts the data packets entering
   the network, the denominator of TCP's useful-work ratio. *)
let first_hop t layer (h : Packet.hop) : Packet.hop =
 fun p ->
  t.Span.first_hops <- t.Span.first_hops + 1;
  Span.enter t layer;
  h p;
  Span.leave t

(* Tcp.create appends its own sink (forward route) or ACK handler
   (reverse route) behind the hops it is given. This pass-through hop
   goes last in the given route, so its span covers exactly that
   handler and whatever the handler sends on. *)
let before_tcp t layer : Packet.hop =
 fun p ->
  Span.enter t layer;
  Packet.forward p;
  Span.leave t

(* Where each hop of a path runs and what it is. Hops are opaque
   closures, so the benchmark supplies this from the topology it
   built. [owner] indexes the per-shard recorders. *)
type shape = {
  fwd_layer : int -> int;
  rev_layer : int -> int;
  fwd_owner : int -> int;
  rev_owner : int -> int;
  sender : int;
  receiver : int;
}

let path ts shape (p : Tcp.path) : Tcp.path =
  match ts with
  | None -> p
  | Some ts ->
    let fwd =
      Array.mapi
        (fun i h ->
          let t = ts.(shape.fwd_owner i) and l = shape.fwd_layer i in
          if i = 0 then first_hop t l h else hop t l h)
        p.Tcp.fwd
    in
    let rev =
      Array.mapi
        (fun i h -> hop ts.(shape.rev_owner i) (shape.rev_layer i) h)
        p.Tcp.rev
    in
    {
      Tcp.fwd =
        Array.append fwd [| before_tcp ts.(shape.receiver) Span.tcp_sink |];
      rev = Array.append rev [| before_tcp ts.(shape.sender) Span.tcp_ack |];
    }

(* Congestion control runs on the sender's domain. [loss_decrease] is
   left unwrapped: its cost stays in the ACK handler's self time. *)
let cc ts ~sender (c : Repro_cc.Cc_types.t) =
  match ts with
  | None -> c
  | Some ts ->
    let t = ts.(sender) in
    {
      c with
      Repro_cc.Cc_types.on_ack =
        (fun ~idx ~acked ->
          Span.enter t Span.cc_on_ack;
          c.Repro_cc.Cc_types.on_ack ~idx ~acked;
          Span.leave t);
      on_loss =
        (fun ~idx ->
          Span.enter t Span.cc_on_loss;
          c.Repro_cc.Cc_types.on_loss ~idx;
          Span.leave t);
      increase =
        (fun ~views ~idx ->
          Span.enter t Span.cc_increase;
          let r = c.Repro_cc.Cc_types.increase ~views ~idx in
          Span.leave t;
          r);
    }

(* The [~pool] handed to [Shard.run_windows]: the sweep engine's pool,
   with each worker binding its shard's recorder to its own domain and
   timing its thunk. *)
let pool ~walls ts thunks =
  Repro_exp.Sweep.pool
    (Array.mapi
       (fun i work () ->
         Option.iter (fun ts -> Span.bind ts.(i)) ts;
         let t0 = Span.now_ns () in
         work ();
         walls.(i) <- Span.now_ns () - t0)
       thunks)
