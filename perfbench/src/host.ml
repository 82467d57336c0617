(* lint: allow-file R1 -- the host-speed probe times itself with the host's monotonic clock *)

(* A fixed host-speed probe. The shared virtual machines this
   benchmark runs on share cores and caches with other tenants, and
   their speed drifts by tens of per cent from one minute to the next,
   which no amount of repetition inside a run averages away. The probe
   is constant work that uses none of the simulator's code, so no
   change to the program moves it; timing it between episodes measures
   how fast the host is while the episodes run. Two parts, chosen because together they
   track the simulator's slowdowns best among the mixes tried: random
   access to a 2 MB array with hashtable churn and short-lived
   allocation, and a miniature event loop (a heap of timed closures
   over 4000 connection records).

   Editing this file re-bases every time metric of the benchmark. *)

(* Probe time on the reference host, seconds: a shared 2-vCPU x86-64
   virtual machine (Xeon, 2.1 GHz) in one of its fast phases.
   Time metrics are reported in that host's seconds. *)
let reference_s = 0.25

let xorshift state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state := x;
  x land max_int

let table_churn () =
  let state = ref 88172645463325252 in
  let n = 1 lsl 18 in
  let a = Array.make n 0. in
  let h = Hashtbl.create 4096 in
  let recent = ref [] in
  for i = 1 to 700_000 do
    let r = xorshift state in
    let j = r land (n - 1) in
    a.(j) <- (a.(j) *. 0.5) +. float_of_int (r land 1023);
    if i land 3 = 0 then Hashtbl.replace h (r land 65535) (a.(j), i)
    else ignore (Hashtbl.find_opt h (r land 65535) : (float * int) option);
    if i land 15 = 0 then
      recent := (i, a.(j)) :: (if i land 1023 = 0 then [] else !recent)
  done;
  ignore (Sys.opaque_identity (a, h, recent) : _ * _ * _)

type conn = {
  mutable cwnd : float;
  mutable acked : int;
  mutable rtt : float;
  seen : (int, unit) Hashtbl.t;
}

let event_loop () =
  let state = ref 88172645463325252 in
  let cap = 8192 in
  let times = Array.make cap 0. and fns = Array.make cap ignore in
  let size = ref 0 in
  let push t f =
    let i = ref !size in
    incr size;
    while !i > 0 && times.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      times.(!i) <- times.(p);
      fns.(!i) <- fns.(p);
      i := p
    done;
    times.(!i) <- t;
    fns.(!i) <- f
  in
  let pop () =
    let t0 = times.(0) and f0 = fns.(0) in
    decr size;
    let t = times.(!size) and f = fns.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c =
          if l + 1 < !size && times.(l + 1) < times.(l) then l + 1 else l
        in
        if times.(c) < t then begin
          times.(!i) <- times.(c);
          fns.(!i) <- fns.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- t;
    fns.(!i) <- f;
    (t0, f0)
  in
  let now = ref 0. in
  let rec ack c () =
    c.acked <- c.acked + 1;
    c.cwnd <- c.cwnd +. (1. /. c.cwnd);
    if c.acked land 7 = 0 then Hashtbl.replace c.seen (c.acked land 63) ();
    if c.acked land 5 = 0 then Hashtbl.remove c.seen ((c.acked - 8) land 63);
    c.rtt <-
      (0.875 *. c.rtt)
      +. (0.125 *. (float_of_int (xorshift state land 255) *. 1e-3));
    push (!now +. c.rtt) (ack c)
  in
  let conns =
    Array.init 4000 (fun _ ->
        { cwnd = 2.; acked = 0; rtt = 0.1; seen = Hashtbl.create 8 })
  in
  Array.iter
    (fun c -> push (float_of_int (xorshift state land 1023) *. 1e-3) (ack c))
    conns;
  for _ = 1 to 600_000 do
    let t, f = pop () in
    now := t;
    f ()
  done;
  ignore (Sys.opaque_identity conns : conn array)

let timed () =
  let t0 = Span.now_ns () in
  table_churn ();
  event_loop ();
  float_of_int (Span.now_ns () - t0) /. 1e9

(* The probe on [domains] domains at once, for a workload that keeps
   that many cores busy: the slowest copy sets the pace, as the slowest
   shard does at each barrier. *)
let probe ~domains =
  let others = Array.init (domains - 1) (fun _ -> Domain.spawn timed) in
  let mine = timed () in
  Array.fold_left (fun m d -> Float.max m (Domain.join d)) mine others
