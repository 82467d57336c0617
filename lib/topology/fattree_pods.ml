open Repro_netsim

type t = {
  k : int;
  n_shards : int;
  group : Shard.t;
  host_links : Duplex.t array;  (* host -> its edge switch; fwd = up *)
  edge_agg : Duplex.t array array array;  (* [pod].[edge].[agg]; fwd = up *)
  agg_core : Duplex.t array array array;  (* [pod].[agg].[core-in-group]; fwd = up *)
  chans : Shard.channel option array array;  (* [src_shard].[dst_shard] *)
}

let half t = t.k / 2
let hosts_per_pod k = k * k / 4
let shard_of_pod_ ~k ~shards pod = pod * shards / k

let create ~shards ~rng ~k ~rate_bps ~delay ~buffer_pkts ~discipline
    ?(oversubscription = 1.) () =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Fattree_pods.create: k must be even";
  if shards < 1 || shards > k || k mod shards <> 0 then
    invalid_arg
      (Printf.sprintf
         "Fattree_pods.create: shards must divide k (k = %d, shards = %d)" k
         shards);
  if oversubscription < 1. then
    invalid_arg "Fattree_pods.create: oversubscription < 1";
  let sims = Array.init shards (fun _ -> Sim.create ()) in
  let group = Shard.create ~sims ~lookahead:delay in
  let chans =
    Array.init shards (fun s ->
        Array.init shards (fun d ->
            if s = d then None
            else Some (Shard.open_channel group ~src:s ~dst:d ())))
  in
  let sim_of_pod pod = sims.(shard_of_pod_ ~k ~shards pod) in
  let h = k / 2 in
  let n_hosts = k * k * k / 4 in
  (* creation order and names are independent of the shard count, so
     the RNG stream (one split per queue) is too *)
  let mk sim rate name =
    Duplex.create ~sim ~rng ~rate_bps:rate ~delay ~buffer_pkts ~discipline
      ~name ()
  in
  let up_rate = rate_bps /. oversubscription in
  let host_links =
    Array.init n_hosts (fun i ->
        mk
          (sim_of_pod (i / hosts_per_pod k))
          rate_bps
          (Printf.sprintf "host%d" i))
  in
  let edge_agg =
    Array.init k (fun pod ->
        Array.init h (fun e ->
            Array.init h (fun a ->
                mk (sim_of_pod pod) up_rate
                  (Printf.sprintf "ea-p%d-e%d-a%d" pod e a))))
  in
  let agg_core =
    Array.init k (fun pod ->
        Array.init h (fun a ->
            Array.init h (fun j ->
                mk (sim_of_pod pod) up_rate
                  (Printf.sprintf "ac-p%d-a%d-c%d" pod a j))))
  in
  { k; n_shards = shards; group; host_links; edge_agg; agg_core; chans }

let k t = t.k
let host_count t = t.k * t.k * t.k / 4
let shards t = t.n_shards
let group t = t.group

let pod_of t host = host / hosts_per_pod t.k
let edge_of t host = host mod hosts_per_pod t.k / half t
let shard_of_pod t pod = shard_of_pod_ ~k:t.k ~shards:t.n_shards pod
let shard_of_host t host = shard_of_pod t (pod_of t host)
let sim_of_host t host = Shard.sim t.group (shard_of_host t host)

let check_pair t ~src ~dst =
  let n = host_count t in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Fattree_pods: host out of range";
  if src = dst then invalid_arg "Fattree_pods: src = dst"

let cross_shard t ~src ~dst =
  check_pair t ~src ~dst;
  shard_of_host t src <> shard_of_host t dst

let channel t ~src ~dst =
  if src < 0 || src >= t.n_shards || dst < 0 || dst >= t.n_shards then None
  else t.chans.(src).(dst)

let path_count t ~src ~dst =
  check_pair t ~src ~dst;
  if pod_of t src <> pod_of t dst then half t * half t
  else if edge_of t src <> edge_of t dst then half t
  else 1

(* One direction of a cross-pod path through aggregation [a] / core
   [j]: up the source host and edge links, up the source pod's
   agg→core link, down the destination pod's core→agg link, down to
   the destination host. When the two pods live on different shards,
   the up-link keeps its (source-owned) queue but its pipe is replaced
   by the cross-shard channel of the same latency: everything before
   the cut runs on the source simulator, everything after it on the
   destination's. *)
let oneway t ~src ~dst ~a ~j =
  let p_s = pod_of t src and p_d = pod_of t dst in
  let s_s = shard_of_pod t p_s and s_d = shard_of_pod t p_d in
  let core_up =
    let l = t.agg_core.(p_s).(a).(j) in
    if s_s = s_d then Duplex.fwd_hops l
    else
      match t.chans.(s_s).(s_d) with
      | Some ch -> [| Queue.hop (Duplex.fwd_queue l); Shard.egress ch |]
      | None -> assert false
  in
  Array.concat
    [
      Duplex.fwd_hops t.host_links.(src);
      Duplex.fwd_hops t.edge_agg.(p_s).(edge_of t src).(a);
      core_up;
      Duplex.rev_hops t.agg_core.(p_d).(a).(j);
      Duplex.rev_hops t.edge_agg.(p_d).(edge_of t dst).(a);
      Duplex.rev_hops t.host_links.(dst);
    ]

let oneway_same_pod t ~src ~dst ~a =
  let p = pod_of t src in
  let e_s = edge_of t src and e_d = edge_of t dst in
  if e_s = e_d then
    Array.append
      (Duplex.fwd_hops t.host_links.(src))
      (Duplex.rev_hops t.host_links.(dst))
  else
    Array.concat
      [
        Duplex.fwd_hops t.host_links.(src);
        Duplex.fwd_hops t.edge_agg.(p).(e_s).(a);
        Duplex.rev_hops t.edge_agg.(p).(e_d).(a);
        Duplex.rev_hops t.host_links.(dst);
      ]

let all_paths t ~src ~dst =
  check_pair t ~src ~dst;
  let h = half t in
  if pod_of t src <> pod_of t dst then
    Array.init (h * h) (fun i ->
        let a = i / h and j = i mod h in
        {
          Tcp.fwd = oneway t ~src ~dst ~a ~j;
          rev = oneway t ~src:dst ~dst:src ~a ~j;
        })
  else if edge_of t src <> edge_of t dst then
    Array.init h (fun a ->
        {
          Tcp.fwd = oneway_same_pod t ~src ~dst ~a;
          rev = oneway_same_pod t ~src:dst ~dst:src ~a;
        })
  else
    [|
      {
        Tcp.fwd = oneway_same_pod t ~src ~dst ~a:0;
        rev = oneway_same_pod t ~src:dst ~dst:src ~a:0;
      };
    |]

let sample_paths t ~rng ~src ~dst ~n =
  let paths = all_paths t ~src ~dst in
  if n >= Array.length paths then paths
  else begin
    let idx = Rng.permutation rng (Array.length paths) in
    Array.init n (fun i -> paths.(idx.(i)))
  end

(* Queues owned by one shard: those of its pods' links. Used to reset
   warm-up statistics from a callback on that shard's own simulator —
   resetting another shard's queues mid-run would be a cross-domain
   write. *)
let shard_queues t s =
  let acc = ref [] in
  let hpp = hosts_per_pod t.k in
  for pod = 0 to t.k - 1 do
    if shard_of_pod t pod = s then begin
      for i = pod * hpp to ((pod + 1) * hpp) - 1 do
        let l = t.host_links.(i) in
        acc := Duplex.fwd_queue l :: Duplex.rev_queue l :: !acc
      done;
      Array.iter
        (fun row ->
          Array.iter
            (fun l -> acc := Duplex.fwd_queue l :: Duplex.rev_queue l :: !acc)
            row)
        t.edge_agg.(pod);
      Array.iter
        (fun row ->
          Array.iter
            (fun l -> acc := Duplex.fwd_queue l :: Duplex.rev_queue l :: !acc)
            row)
        t.agg_core.(pod)
    end
  done;
  !acc

let core_queues t =
  let acc = ref [] in
  Array.iter
    (fun pod ->
      Array.iter
        (fun agg ->
          Array.iter
            (fun l -> acc := Duplex.fwd_queue l :: Duplex.rev_queue l :: !acc)
            agg)
        pod)
    t.agg_core;
  !acc

let all_queues t =
  let acc = ref (core_queues t) in
  Array.iter
    (fun l -> acc := Duplex.fwd_queue l :: Duplex.rev_queue l :: !acc)
    t.host_links;
  Array.iter
    (fun pod ->
      Array.iter
        (fun edge ->
          Array.iter
            (fun l -> acc := Duplex.fwd_queue l :: Duplex.rev_queue l :: !acc)
            edge)
        pod)
    t.edge_agg;
  !acc
