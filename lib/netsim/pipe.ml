type t = { sim : Sim.t; delay : float }

let create ~sim ~delay =
  if delay < 0. then invalid_arg "Pipe.create: negative delay";
  { sim; delay }

(* The packet rides in the timer cell itself and [Packet.forward] is a
   static function, so a pipe traversal schedules without allocating. *)
let[@olia.alloc_free] hop t (p : Packet.t) =
  ignore
    (Sim.schedule_pkt_after t.sim t.delay Packet.forward p
      : Sim.Timer.t)

let delay t = t.delay
