(* Dynamic per-subflow counters; grown on first use so connections can add
   subflows after creation. *)
type state = {
  mutable ell1 : float array;
  mutable ell2 : float array;
  mutable n : int;
}

let ensure st idx =
  if idx >= Array.length st.ell1 then begin
    let cap = Int.max (2 * (idx + 1)) 4 in
    let grow a = Array.init cap (fun i -> if i < Array.length a then a.(i) else 0.) in
    st.ell1 <- grow st.ell1;
    st.ell2 <- grow st.ell2
  end;
  if idx >= st.n then st.n <- idx + 1

(* ℓ_r = max(ℓ1_r, ℓ2_r). Eq. 6 below reads ℓ through the two counter
   arrays rather than a materialised ℓ array, so the per-call path
   allocates nothing; [alpha_values] passes one array twice, and
   [max x x = x] bit for bit. *)
let[@inline] ell ell1 ell2 r = Fmath.max ell1.(r) ell2.(r)

let[@inline] quality ell1 ell2 (views : Cc_types.subflow_view array) r =
  ell ell1 ell2 r /. (Fmath.max views.(r).rtt 1e-9 ** 2.)

(* Membership in a maximising set, ties grouped within 1e-9 relative. *)
let[@inline] in_max_set best x = best > 0. && x >= best *. (1. -. 1e-9)

(* Eq. 6 for subflow [idx], by loops over the views in index order (the
   maxima fold left from -inf, as [Array.fold_left max] did). Every
   alpha is 1/|R| divided by a set size, so the scan returns which one
   as an int — [|B\M|] for a path in B\M, [-|M|] for one in M, 0 for
   alpha = 0 — and only [alpha] below touches floats: an int return
   never boxes, so the scan need not be inlined. *)
let alpha_code ell1 ell2 (views : Cc_types.subflow_view array) idx =
  let nr = Array.length views in
  let best_w = ref neg_infinity and best_q = ref neg_infinity in
  for r = 0 to nr - 1 do
    best_w := Fmath.max !best_w views.(r).cwnd;
    best_q := Fmath.max !best_q (quality ell1 ell2 views r)
  done;
  let best_w = !best_w and best_q = !best_q in
  (* |M| and |B \ M| *)
  let n_m = ref 0 and n_bm = ref 0 in
  for r = 0 to nr - 1 do
    if in_max_set best_w views.(r).cwnd then incr n_m
    else if in_max_set best_q (quality ell1 ell2 views r) then incr n_bm
  done;
  if !n_bm = 0 then 0
  else if in_max_set best_w views.(idx).cwnd then - !n_m
  else if in_max_set best_q (quality ell1 ell2 views idx) then !n_bm
  else 0

let[@inline] alpha ell1 ell2 (views : Cc_types.subflow_view array) idx =
  let code = alpha_code ell1 ell2 views idx in
  if code = 0 then 0.
  else
    let inv_ru = 1. /. float_of_int (Array.length views) in
    if code < 0 then -.inv_ru /. float_of_int (-code)
    else inv_ru /. float_of_int code

let alpha_values ~ell (views : Cc_types.subflow_view array) =
  Array.init (Array.length views) (fun r -> alpha ell ell views r)

let[@inline] kelly_voice_term (views : Cc_types.subflow_view array) idx =
  let denom = ref 0. in
  for r = 0 to Array.length views - 1 do
    let v = views.(r) in
    denom := !denom +. (v.cwnd /. Fmath.max v.rtt 1e-9)
  done;
  let v = views.(idx) in
  let rtt = Fmath.max v.rtt 1e-9 in
  v.cwnd /. (rtt *. rtt) /. Fmath.max (!denom *. !denom) 1e-18

let make () =
  let st = { ell1 = Array.make 4 0.; ell2 = Array.make 4 0.; n = 0 } in
  let last_views = ref [||] in
  let increase ~views ~idx =
    ensure st idx;
    last_views := views;
    if Array.length views = 1 then
      (* Single path: OLIA degrades to regular TCP (Eq. 5 with one term
         equals 1/w and alpha = 0). *)
      1. /. Fmath.max views.(0).Cc_types.cwnd 1e-9
    else begin
      for r = 0 to Array.length views - 1 do
        ensure st r
      done;
      kelly_voice_term views idx
      +. (alpha st.ell1 st.ell2 views idx
          /. Fmath.max views.(idx).Cc_types.cwnd 1e-9)
    end
  in
  let on_ack ~idx ~acked =
    ensure st idx;
    st.ell2.(idx) <- st.ell2.(idx) +. acked
  in
  let on_loss ~idx =
    ensure st idx;
    st.ell1.(idx) <- st.ell2.(idx);
    st.ell2.(idx) <- 0.
  in
  let probe n =
    let ell = Array.init n (fun r -> ensure st r; ell st.ell1 st.ell2 r) in
    let alpha =
      if Array.length !last_views = n then alpha_values ~ell !last_views
      else Array.make n 0.
    in
    (ell, alpha)
  in
  let cc =
    {
      Cc_types.name = "olia";
      multipath_initial_ssthresh = Some 1.;
      on_ack;
      on_loss;
      increase;
      loss_decrease = Cc_types.halve;
    }
  in
  (cc, probe)

let create () = fst (make ())

type probe = { ell : float array; alpha : float array }

let create_instrumented () =
  let cc, probe = make () in
  (cc, fun n -> let ell, alpha = probe n in { ell; alpha })
