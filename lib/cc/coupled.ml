let create ~epsilon =
  if epsilon < 0. || epsilon > 2. then
    invalid_arg "Coupled.create: epsilon must be in [0, 2]";
  let increase ~views ~idx =
    let total =
      Array.fold_left
        (fun acc (v : Cc_types.subflow_view) -> acc +. v.cwnd)
        0. views
    in
    let w = Fmath.max views.(idx).Cc_types.cwnd 1e-9 in
    (w ** (1. -. epsilon)) /. (Fmath.max total 1e-9 ** (2. -. epsilon))
  in
  {
    Cc_types.name = Printf.sprintf "coupled(eps=%g)" epsilon;
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase;
    loss_decrease = Cc_types.halve;
  }
