type probe = { name : string; sample : unit -> float }

type t = {
  sim : Sim.t;
  period : float;
  mutable probes : probe list;  (* reversed registration order *)
  mutable timer : Sim.Timer.t;
  table : (string, Repro_stats.Timeseries.t) Hashtbl.t;
}

let create ~sim ~period ?(start = 0.) ?(stop = infinity) () =
  if period <= 0. then invalid_arg "Monitor.create: period <= 0";
  let t = { sim; period; probes = []; timer = Sim.Timer.none;
            table = Hashtbl.create 8 } in
  let tick () =
    let now = Sim.now sim in
    List.iter
      (fun p ->
        Repro_stats.Timeseries.add (Hashtbl.find t.table p.name) ~time:now
          (p.sample ()))
      (List.rev t.probes);
    (* keep sampling as long as other events may still be scheduled *)
    if not (now +. period <= stop && Sim.pending sim > 0) then
      Sim.Timer.cancel sim t.timer
  in
  t.timer <- Sim.every ~start sim period tick;
  t

let series t name = Hashtbl.find t.table name
let names t = List.rev_map (fun p -> p.name) t.probes

let watch t name sample =
  if Hashtbl.mem t.table name then
    invalid_arg ("Monitor.watch: duplicate name " ^ name);
  Hashtbl.add t.table name (Repro_stats.Timeseries.create ());
  t.probes <- { name; sample } :: t.probes

let watch_cwnd t name conn idx =
  watch t name (fun () -> Tcp.subflow_cwnd conn idx)

let watch_goodput t name conn =
  let last = ref 0 in
  watch t name (fun () ->
      let acked = Tcp.total_acked conn in
      let delta = acked - !last in
      last := acked;
      float_of_int (delta * 8 * Packet.data_size) /. t.period /. 1e6)

(* The monitor double-checks what it samples: a probe reading broken
   queue state would otherwise be archived as a plausible data point. *)
let watch_backlog t name q =
  watch t name (fun () ->
      let b = Queue.backlog q in
      if Invariant.enabled () then
        Invariant.require
          (b >= 0 && b <= Queue.capacity q)
          (Printf.sprintf "monitor %s: sampled backlog %d outside [0, %d]"
             name b (Queue.capacity q));
      float_of_int b)

let watch_drops t name q =
  watch t name (fun () -> float_of_int (Queue.drops q))

let watch_loss t name q =
  watch t name (fun () ->
      let p = Queue.loss_probability q in
      if Invariant.enabled () then
        Invariant.require
          (p >= 0. && p <= 1.)
          (Printf.sprintf "monitor %s: sampled loss probability %g outside \
                           [0, 1]" name p);
      p)

let to_csv t ~path =
  let names = names t in
  let columns = "time" :: names in
  let all = List.map (fun n -> Repro_stats.Timeseries.to_array (series t n)) names in
  match all with
  | [] -> Repro_stats.Csv.write_series ~path ~columns []
  | first :: _ ->
    let rows =
      Array.to_list
        (Array.mapi
           (fun i (time, _) ->
             time :: List.map (fun s -> if i < Array.length s then snd s.(i) else nan) all)
           first)
    in
    Repro_stats.Csv.write_series ~path ~columns rows
