type state = { mutable base_rtt : float array }

let ensure st idx =
  if idx >= Array.length st.base_rtt then begin
    let cap = Int.max (2 * (idx + 1)) 4 in
    st.base_rtt <-
      Array.init cap (fun i ->
          if i < Array.length st.base_rtt then st.base_rtt.(i) else infinity)
  end

let create ?(total_alpha = 10.) () =
  if total_alpha <= 0. then
    invalid_arg "Wvegas.create: total_alpha must be > 0";
  let st = { base_rtt = Array.make 4 infinity } in
  let increase ~views ~idx =
    ensure st idx;
    (* refresh the base-RTT estimates from the smoothed RTTs *)
    Array.iteri
      (fun i (v : Cc_types.subflow_view) ->
        ensure st i;
        if v.rtt > 0. && v.rtt < st.base_rtt.(i) then
          st.base_rtt.(i) <- v.rtt)
      views;
    let v = views.(idx) in
    let rtt = Fmath.max v.Cc_types.rtt 1e-6 in
    let base = Fmath.min st.base_rtt.(idx) rtt in
    let w = Fmath.max v.Cc_types.cwnd 1e-9 in
    (* rate share of this subflow determines its backlog allowance *)
    let rate i (vi : Cc_types.subflow_view) =
      ignore i;
      vi.cwnd /. Fmath.max vi.rtt 1e-6
    in
    let total_rate = ref 0. in
    Array.iteri (fun i vi -> total_rate := !total_rate +. rate i vi) views;
    let share = rate idx v /. Fmath.max !total_rate 1e-9 in
    let alpha = Fmath.max 1. (total_alpha *. share) in
    let diff = w *. (1. -. (base /. rtt)) in
    if diff < alpha then 1. /. w else if diff > alpha then -1. /. w else 0.
  in
  {
    Cc_types.name = "wvegas";
    multipath_initial_ssthresh = Some 1.;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase;
    loss_decrease = Cc_types.halve;
  }
