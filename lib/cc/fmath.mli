(** Float-typed [max]/[min].

    [Stdlib.max]/[min] are polymorphic: on floats they box both
    arguments and call the generic [compare]. These are the same
    definitions ([if a >= b then a else b]) specialised to [float], so
    they compile to an unboxed comparison and return bit-identical
    results, including on NaN and signed zeros — unlike [Float.max]/
    [Float.min], which treat both differently. *)

val max : float -> float -> float [@@inline]
val min : float -> float -> float [@@inline]
