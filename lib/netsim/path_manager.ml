type policy = {
  check_period : float;
  discard_factor : float;
  min_loss : float;
  min_active : int;
  reprobe_period : float;
}

let default_policy =
  {
    check_period = 5.;
    discard_factor = 8.;
    min_loss = 0.02;
    min_active = 1;
    reprobe_period = 30.;
  }

type t = {
  sim : Sim.t;
  policy : policy;
  conn : Tcp.conn;
  last_acked : int array;
  last_rtx : int array;
  disabled_at : float array;
  mutable discards : int;
  mutable reprobes : int;
}

(* loss-event estimate over the last period: retransmissions relative to
   delivered data *)
let period_loss t idx =
  let acked = Tcp.subflow_acked t.conn idx - t.last_acked.(idx) in
  let rtx = Tcp.subflow_retransmits t.conn idx - t.last_rtx.(idx) in
  if acked + rtx = 0 then 0.
  else float_of_int rtx /. float_of_int (acked + rtx)

let snapshot t =
  for idx = 0 to Tcp.subflow_count t.conn - 1 do
    t.last_acked.(idx) <- Tcp.subflow_acked t.conn idx;
    t.last_rtx.(idx) <- Tcp.subflow_retransmits t.conn idx
  done

let active_count t =
  let n = ref 0 in
  for idx = 0 to Tcp.subflow_count t.conn - 1 do
    if Tcp.subflow_enabled t.conn idx then incr n
  done;
  !n

let check t =
  let n = Tcp.subflow_count t.conn in
  let losses = Array.init n (period_loss t) in
  let best = ref infinity in
  Array.iteri
    (fun idx l -> if Tcp.subflow_enabled t.conn idx && l < !best then best := l)
    losses;
  for idx = 0 to n - 1 do
    if Tcp.subflow_enabled t.conn idx then begin
      let bad =
        losses.(idx) > t.policy.min_loss
        && losses.(idx) > t.policy.discard_factor *. Repro_cc.Fmath.max !best 1e-4
      in
      if bad && active_count t > t.policy.min_active then begin
        Tcp.set_subflow_enabled t.conn idx false;
        t.disabled_at.(idx) <- Sim.now t.sim;
        t.discards <- t.discards + 1
      end
    end
    else if Sim.now t.sim -. t.disabled_at.(idx) >= t.policy.reprobe_period
    then begin
      Tcp.set_subflow_enabled t.conn idx true;
      t.reprobes <- t.reprobes + 1
    end
  done;
  snapshot t

let attach ~sim ~policy conn =
  let n = Tcp.subflow_count conn in
  let t =
    {
      sim;
      policy;
      conn;
      last_acked = Array.make n 0;
      last_rtx = Array.make n 0;
      disabled_at = Array.make n 0.;
      discards = 0;
      reprobes = 0;
    }
  in
  (* baseline the counters so the first period excludes history from
     before the manager was attached *)
  snapshot t;
  ignore
    (Sim.every sim policy.check_period (fun () -> check t) : Sim.Timer.t);
  t

let discards t = t.discards
let reprobes t = t.reprobes
