let increase_formula views idx =
  let num = ref 0. and denom = ref 0. in
  Array.iter
    (fun (v : Cc_types.subflow_view) ->
      let w = Fmath.max v.cwnd 1e-9 and rtt = Fmath.max v.rtt 1e-9 in
      let per_rtt2 = w /. (rtt *. rtt) in
      if per_rtt2 > !num then num := per_rtt2;
      denom := !denom +. (w /. rtt))
    views;
  let coupled = !num /. (!denom *. !denom) in
  let own = 1. /. Fmath.max views.(idx).Cc_types.cwnd 1e-9 in
  Fmath.min coupled own

let create () =
  {
    Cc_types.name = "lia";
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase = (fun ~views ~idx -> increase_formula views idx);
    loss_decrease = Cc_types.halve;
  }
