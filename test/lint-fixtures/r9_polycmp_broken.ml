(* A deliberately-broken hot path: the RTO clamp goes through the
   polymorphic [Stdlib.max] and a bare [min], which box both float
   arguments and call the generic compare on every ACK, and the RTT
   filter picks its sample with [compare]. The regression test asserts
   R9 flags all three (one a call away from the root) and leaves the
   float-typed [fmax] and [Int.max] alone. *)

let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] clamp rto = Stdlib.max rto 0.2
let older a b = if compare a b <= 0 then a else b

let[@olia.alloc_free] on_ack srtt rttvar credit =
  let rto = fmax (clamp (srtt +. (4. *. rttvar))) (min srtt 60.) in
  ignore (Int.max credit 1);
  older rto srtt
