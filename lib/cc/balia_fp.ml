(* Integer twin of the kernel's BALIA (net/mptcp/mptcp_balia.c,
   linux-4.1 MPTCP tree, SNIPPETS.md): mptcp_balia_recalc_ai mirrored
   step by step — per-path rates in mss*usec units, alpha in
   alpha_scale units, the rate_scale_limit/num_scale_down rescaling
   loop, and the ai/md outputs consumed as a 1/ai per-ACK increase and
   an md loss decrease. Like the float Balia, the twin is stateless
   across ACKs: everything is recomputed from the current views, so
   on_ack/on_loss are no-ops. Floats appear only in the
   [@olia.float_boundary] adapters. *)

module Fp = Fixedpoint

(* tp->mss_cache: rates enter ai and md only as ratios, so any fixed
   segment size cancels; 1460 matches a typical Ethernet mss_cache. *)
let mss = 1460

(* USEC_PER_SEC << 3 *)
let usec_per_sec_shl3 = 8_000_000

type state = {
  mutable n : int;
  mutable cwnd : int array;
  mutable rtt_us : int array;
  mutable rates : int array;
  mutable sum_rate : int;
  mutable max_rate : int;
  mutable ai : int;
  mutable md : int;
}

(* --- integer cores (kernel arithmetic, alloc-free) -------------------- *)

(* div_u64(mss_cache * snd_cwnd * (USEC_PER_SEC << 3), srtt_us) *)
let[@olia.alloc_free] path_rate st p =
  Fp.div_u64
    (Fp.mul_sat (Fp.mul_sat mss st.cwnd.(p)) usec_per_sec_shl3)
    st.rtt_us.(p)

(* mptcp_balia_recalc_ai for the subflow at [idx]: writes st.ai and
   st.md. With at most one established subflow (or a zero own rate)
   BALIA falls back to Reno behaviour: ai = snd_cwnd, md = cwnd/2. *)
let[@olia.alloc_free] recalc_ai st idx =
  if st.n <= 1 then begin
    st.ai <- st.cwnd.(idx);
    st.md <- st.cwnd.(idx) asr 1
  end
  else begin
    st.max_rate <- 0;
    st.sum_rate <- 0;
    for p = 0 to st.n - 1 do
      let tmp = path_rate st p in
      st.rates.(p) <- tmp;
      st.sum_rate <- Fp.add_sat st.sum_rate tmp;
      if tmp >= st.max_rate then st.max_rate <- tmp
    done;
    if st.rates.(idx) = 0 then begin
      st.ai <- st.cwnd.(idx);
      st.md <- st.cwnd.(idx) asr 1
    end
    else begin
      let alpha =
        Fp.div_u64 (Fp.shift_sat st.max_rate Fp.alpha_scale) st.rates.(idx)
      in
      (* scale every rate down in lockstep until the largest fits below
         2^rate_scale_limit, so the squared sum below cannot overflow *)
      let down = Fp.num_scale_down st.max_rate in
      if down > 0 then begin
        st.sum_rate <- 0;
        for p = 0 to st.n - 1 do
          st.rates.(p) <- Fp.rescale st.rates.(p) down;
          st.sum_rate <- Fp.add_sat st.sum_rate st.rates.(p)
        done;
        st.max_rate <- Fp.rescale st.max_rate down
      end;
      let rate = st.rates.(idx) in
      (*      (sum_rate)^2 * 10 * w_i
         ai = ------------------------------------
              (x_i + max_rate) * (4x_i + max_rate)  *)
      let sum2 = Fp.mul_sat st.sum_rate st.sum_rate in
      let ai =
        Fp.div_u64 (Fp.mul_sat sum2 10) (Fp.add_sat rate st.max_rate)
      in
      let ai =
        Fp.div_u64
          (Fp.mul_sat ai st.cwnd.(idx))
          (Fp.add_sat (Fp.shift_sat rate 2) st.max_rate)
      in
      st.ai <- (if ai = 0 then st.cwnd.(idx) else ai);
      (* md = (cwnd/2) * min(alpha, 1.5) in alpha_scale units *)
      let cap = (3 lsl Fp.alpha_scale) asr 1 in
      let a = if alpha < cap then alpha else cap in
      st.md <- Fp.mul_sat (st.cwnd.(idx) asr 1) a asr Fp.alpha_scale
    end
  end

(* --- float boundary ---------------------------------------------------- *)

let ensure st idx =
  if idx >= Array.length st.cwnd then begin
    let cap = Int.max (2 * (idx + 1)) 4 in
    let grow fill a =
      Array.init cap (fun i -> if i < Array.length a then a.(i) else fill)
    in
    st.cwnd <- grow 0 st.cwnd;
    st.rtt_us <- grow 1 st.rtt_us;
    st.rates <- grow 0 st.rates
  end;
  if idx >= st.n then st.n <- idx + 1

let[@olia.float_boundary] sync st (views : Cc_types.subflow_view array) =
  let n = Array.length views in
  ensure st (n - 1);
  st.n <- n;
  for p = 0 to n - 1 do
    let v = views.(p) in
    let w = int_of_float v.Cc_types.cwnd in
    st.cwnd.(p) <- (if w < 1 then 1 else w);
    st.rtt_us.(p) <- Fp.usec_of_sec v.Cc_types.rtt
  done

let[@olia.float_boundary] create () =
  let st =
    {
      n = 0;
      cwnd = Array.make 4 0;
      rtt_us = Array.make 4 1;
      rates = Array.make 4 0;
      sum_rate = 0;
      max_rate = 0;
      ai = 0;
      md = 0;
    }
  in
  let increase ~views ~idx =
    sync st views;
    recalc_ai st idx;
    1. /. float_of_int st.ai
  in
  let loss_decrease ~views ~idx =
    sync st views;
    recalc_ai st idx;
    float_of_int st.md
  in
  {
    Cc_types.name = "balia-fp";
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase;
    loss_decrease;
  }
