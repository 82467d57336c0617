(** Pass 2: the interprocedural analyses (R9, R10, R11).

    Each check walks the {!Callgraph} with BFS parent links, so every
    finding explains its full call chain and carries the chain's root
    (file, line) in {!Finding.t.root} — a suppression directive at the
    entry point waives the findings it implies. Walks are in node-id
    order, so output is deterministic. *)

val check_alloc_free : ?extra_roots:string list -> Callgraph.t -> Finding.t list
(** R9: from every [[@olia.alloc_free]] entry point (plus
    [extra_roots], module-qualified names from [--alloc-free-root]),
    follow unguarded call edges and flag every unguarded allocation
    site, every float-returning function lacking [@inline], and every
    partial application, each with its chain. *)

val check_domain_safety : Callgraph.t -> Finding.t list
(** R10: inventory toplevel mutable state in [lib/] reachable from
    [Exp.Sweep.run]/[run_seq] or any scenario [run] — state domains
    would race on unless instantiated per-domain ([Domain.DLS]). *)

val check_determinism_taint : Callgraph.t -> Finding.t list
(** R11: propagate nondeterminism taint (wall clock, ambient
    randomness, Hashtbl iteration order, polymorphic float compare)
    callee-to-caller to a fixpoint along unguarded edges (calls under
    the zero-cost-off idiom — armed tracing, armed invariants
    — are off the replay path); flag every [lib/] output sink
    ([Trace.emit], JSON/CSV writers, [Meter.finish]) in a tainted
    function, with the chain to a concrete source. A sort in a
    function sanitizes [Table_order] taint there. *)
