let rates (views : Cc_types.subflow_view array) =
  Array.map
    (fun (v : Cc_types.subflow_view) -> v.cwnd /. Fmath.max v.rtt 1e-9)
    views

let alpha views idx =
  let x = rates views in
  let xmax = Array.fold_left Fmath.max 0. x in
  xmax /. Fmath.max x.(idx) 1e-9

let create () =
  let increase ~views ~idx =
    let x = rates views in
    let total = Array.fold_left ( +. ) 0. x in
    let a = alpha views idx in
    let v = views.(idx) in
    let rtt = Fmath.max v.Cc_types.rtt 1e-9 in
    x.(idx) /. rtt /. Fmath.max (total *. total) 1e-18
    *. ((1. +. a) /. 2.)
    *. ((4. +. a) /. 5.)
  in
  let loss_decrease ~views ~idx =
    let a = alpha views idx in
    views.(idx).Cc_types.cwnd /. 2. *. Fmath.min a 1.5
  in
  {
    Cc_types.name = "balia";
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase;
    loss_decrease;
  }
