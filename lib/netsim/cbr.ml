type t = {
  sim : Sim.t;
  interval : float;
  route : Packet.hop array;
  stop : float;
  flow_id : int;
  mutable sent : int;
  mutable timer : Sim.Timer.t;
}

let blackhole (p : Packet.t) = Packet.free p

let create ~sim ~rate_bps ~route ?(start = 0.) ?(stop = infinity) ~flow_id () =
  if rate_bps <= 0. then invalid_arg "Cbr.create: rate must be > 0";
  let interval = float_of_int (8 * Packet.data_size) /. rate_bps in
  let t = { sim; interval; route; stop; flow_id; sent = 0; timer = Sim.Timer.none } in
  let tick () =
    if Sim.now sim < t.stop then begin
      let p =
        Packet.data ~flow:t.flow_id ~subflow:0 ~seq:t.sent
          ~sent_at:(Sim.now sim) ~route:t.route
      in
      t.sent <- t.sent + 1;
      Packet.forward p
    end
    else Sim.Timer.cancel sim t.timer
  in
  t.timer <- Sim.every ~start sim interval tick;
  t

let packets_sent t = t.sent
