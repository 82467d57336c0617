module Summary = Repro_stats.Summary
module Json = Repro_stats.Json

type axis = { key : string; values : Spec.value list }

let range ~like ~key lo hi step =
  let fail msg = invalid_arg (Printf.sprintf "Sweep.axis %s: %s" key msg) in
  match like with
  | Spec.Int _ ->
    let p s =
      match int_of_string_opt s with
      | Some i -> i
      | None -> fail (Printf.sprintf "bad int %S" s)
    in
    let lo = p lo and hi = p hi and step = p step in
    if step <= 0 then fail "step must be positive";
    let rec go v acc =
      if v > hi then List.rev acc else go (v + step) (Spec.Int v :: acc)
    in
    go lo []
  | Spec.Float _ ->
    let p s =
      match Spec.parse_value ~key ~like s with
      | Spec.Float f -> f
      | _ -> assert false (* parse_value answers in [like]'s type *)
    in
    let lo = p lo and hi = p hi and step = p step in
    if step <= 0. then fail "step must be positive";
    let n = int_of_float (floor (((hi -. lo) /. step) +. 1e-9)) in
    if n < 0 then []
    else List.init (n + 1) (fun i -> Spec.Float (lo +. (float_of_int i *. step)))
  | _ -> fail "ranges apply to int/float parameters only"

let axis spec ~key vspec =
  let p = Spec.param spec key in
  let numeric =
    match p.Spec.default with
    | Spec.Int _ | Spec.Float _ -> true
    | _ -> false
  in
  let values =
    if numeric && String.contains vspec ':' then
      match String.split_on_char ':' vspec with
      | [ lo; hi ] -> range ~like:p.Spec.default ~key lo hi "1"
      | [ lo; hi; step ] -> range ~like:p.Spec.default ~key lo hi step
      | _ ->
        invalid_arg
          (Printf.sprintf "Sweep.axis %s: expected lo:hi[:step], got %S" key
             vspec)
    else
      List.map
        (Spec.parse_value ~key ~like:p.Spec.default)
        (String.split_on_char ',' vspec)
  in
  if values = [] then
    invalid_arg (Printf.sprintf "Sweep.axis %s: empty axis %S" key vspec);
  { key; values }

let axis_of_assign spec s =
  match String.index_opt s '=' with
  | None ->
    invalid_arg (Printf.sprintf "Sweep.axis: expected key=values, got %S" s)
  | Some i ->
    let key = String.sub s 0 i in
    let vspec = String.sub s (i + 1) (String.length s - i - 1) in
    axis spec ~key vspec

let seed_axis n =
  if n < 1 then invalid_arg "Sweep.seed_axis: need at least one seed";
  { key = "seed"; values = List.init n (fun i -> Spec.Int (i + 1)) }

let points spec ?(fixed = []) axes =
  Spec.validate spec fixed;
  List.iter
    (fun ax ->
      ignore (Spec.param spec ax.key);
      Spec.validate spec (List.map (fun v -> (ax.key, v)) ax.values))
    axes;
  let rec cross = function
    | [] -> [ [] ]
    | ax :: rest ->
      let tails = cross rest in
      List.concat_map
        (fun v -> List.map (fun tail -> (ax.key, v) :: tail) tails)
        ax.values
  in
  List.map (fun b -> b @ fixed) (cross axes)

type point = { bindings : Spec.bindings; outcome : Outcome.t }

let run_seq (module Sc : Scenario_intf.S) pts =
  List.map (fun bindings -> { bindings; outcome = Sc.run bindings }) pts

(* The domain-pool plumbing, shared by the sweep engine and the sharded
   simulation runner (Repro_netsim.Shard takes it as its [pool]
   argument). One thunk per worker; the caller's domain runs thunk 0 so
   [n] thunks use [n - 1] spawned domains. Every domain is joined before
   returning — the join gives the caller a happens-before edge over all
   worker writes — and the first exception of any worker is re-raised
   after the pool has drained. *)
let pool thunks =
  let n = Array.length thunks in
  if n = 0 then ()
  else if n = 1 then thunks.(0) ()
  else begin
    let spawned =
      List.init (n - 1) (fun i -> Domain.spawn thunks.(i + 1))
    in
    let first_exn = ref None in
    let record e = if !first_exn = None then first_exn := Some e in
    (try thunks.(0) () with e -> record e);
    List.iter (fun d -> try Domain.join d with e -> record e) spawned;
    match !first_exn with Some e -> raise e | None -> ()
  end

let run ?domains (module Sc : Scenario_intf.S) pts_list =
  let pts = Array.of_list pts_list in
  let n = Array.length pts in
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let workers = Stdlib.max 1 (Stdlib.min requested n) in
  if workers <= 1 then run_seq (module Sc) pts_list
  else begin
    (* Tracing is per-worker: each domain binds its own ring, and the
       decoder attributes records to worker rings. A per-point trace is
       best taken from a single `olia_sim run`. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker w () =
      if Repro_obs.Trace.enabled () then Repro_obs.Trace.bind_ring ~shard:w;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (Sc.run pts.(i));
          loop ()
        end
      in
      loop ()
    in
    pool (Array.init workers (fun w -> worker w));
    Array.to_list
      (Array.mapi
         (fun i o ->
           match o with
           | Some outcome -> { bindings = pts.(i); outcome }
           | None -> assert false)
         results)
  end

type agg = {
  group : Spec.bindings;
  n : int;
  stats : (string * (float * float)) list;
}

type agg_table = { over : string; rows : agg list }

let aggregate ?(over = "seed") pts =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let group = List.filter (fun (k, _) -> k <> over) p.bindings in
      match Hashtbl.find_opt tbl group with
      | Some l -> l := p.outcome :: !l
      | None ->
        Hashtbl.add tbl group (ref [ p.outcome ]);
        order := group :: !order)
    pts;
  let rows =
    List.rev_map
      (fun group ->
        let outcomes = List.rev !(Hashtbl.find tbl group) in
        let names =
          match outcomes with
          | o :: _ -> Outcome.metric_names o
          | [] -> []
        in
        let stats =
          List.map
            (fun name ->
              let s =
                Summary.of_list
                  (List.map (fun o -> Outcome.metric o name) outcomes)
              in
              let sd = if Summary.count s < 2 then 0. else Summary.stdev s in
              (name, (Summary.mean s, sd)))
            names
        in
        { group; n = List.length outcomes; stats })
      !order
  in
  { over; rows }

let params_json spec ?drop bindings =
  match Spec.to_json spec bindings with
  | Json.Obj fields ->
    Json.Obj
      (match drop with
       | None -> fields
       | Some key -> List.filter (fun (k, _) -> k <> key) fields)
  | j -> j

let to_json ~spec ?aggregated pts =
  let points_json =
    List.map
      (fun p ->
        Json.Obj
          [
            ("params", params_json spec p.bindings);
            ("outcome", Outcome.to_json p.outcome);
          ])
      pts
  in
  let base =
    [
      ("scenario", Json.String spec.Spec.name);
      ("points", Json.List points_json);
    ]
  in
  let agg_fields =
    match aggregated with
    | None -> []
    | Some t ->
      let rows =
        List.map
          (fun a ->
            Json.Obj
              [
                ("params", params_json spec ~drop:t.over a.group);
                ("n", Json.Int a.n);
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (name, (mean, sd)) ->
                         ( name,
                           Json.Obj
                             [
                               ("mean", Json.Float mean);
                               ("stddev", Json.Float sd);
                             ] ))
                       a.stats) );
              ])
          t.rows
      in
      [
        ( "aggregate",
          Json.Obj
            [ ("over", Json.String t.over); ("rows", Json.List rows) ] );
      ]
  in
  Json.Obj (base @ agg_fields)

let write_json ~path ~spec ?aggregated pts =
  Json.write ~path (to_json ~spec ?aggregated pts)

let fmt_float = Printf.sprintf "%.6g"

let write_csv ~path ~spec pts =
  let pkeys = List.map (fun p -> p.Spec.key) spec.Spec.params in
  let metrics =
    match pts with
    | [] -> []
    | p :: _ -> Outcome.metric_names p.outcome
  in
  let header = pkeys @ metrics in
  let rows =
    List.map
      (fun p ->
        List.map
          (fun k -> Spec.value_to_string (Spec.get spec p.bindings k))
          pkeys
        @ List.map (fun m -> fmt_float (Outcome.metric p.outcome m)) metrics)
      pts
  in
  Repro_stats.Csv.write_rows ~path ~header rows

let write_agg_csv ~path ~spec (t : agg_table) =
  let pkeys =
    List.filter
      (fun k -> k <> t.over)
      (List.map (fun p -> p.Spec.key) spec.Spec.params)
  in
  let metrics =
    match t.rows with
    | [] -> []
    | a :: _ -> List.map fst a.stats
  in
  let header =
    pkeys @ [ "n" ]
    @ List.concat_map (fun m -> [ m ^ " mean"; m ^ " stddev" ]) metrics
  in
  let rows =
    List.map
      (fun a ->
        List.map (fun k -> Spec.value_to_string (Spec.get spec a.group k)) pkeys
        @ [ string_of_int a.n ]
        @ List.concat_map
            (fun m ->
              let mean, sd = List.assoc m a.stats in
              [ fmt_float mean; fmt_float sd ])
            metrics)
      t.rows
  in
  Repro_stats.Csv.write_rows ~path ~header rows
