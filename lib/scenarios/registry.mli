(** Name-based access to every testbed scenario behind the uniform
    experiment API, mirroring {!Repro_cc.Registry} for congestion
    controllers.

    Each scenario module keeps its typed entry point
    ([Scen_a.run : config -> result] etc.); the registry wraps it in
    {!Repro_exp.Scenario_intf.S} — a parameter {!Repro_exp.Spec.t} built
    from the module's [default] record and a
    [run : bindings -> outcome] that flattens the typed result into
    named metrics — so the CLI, the sweep engine and the bench harness
    can drive any experiment by name. *)

module type SCENARIO = Repro_exp.Scenario_intf.S

val names : string list
(** All registered scenarios: ["scenario-a"; "scenario-b"; "scenario-c";
    "two-bottleneck"; "responsiveness"; "wireless"; "fattree-dynamic";
    "fattree-sharded"]. *)

val find : string -> (module SCENARIO)
(** Raises [Invalid_argument] (listing {!names}) on unknown names. *)

val mem : string -> bool
