let[@inline] max (a : float) b = if a >= b then a else b
let[@inline] min (a : float) b = if a <= b then a else b
