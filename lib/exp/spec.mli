(** Typed parameter specifications for the uniform experiment API.

    A {!t} describes one experiment: its registry name and the set of
    key/value parameters it accepts, each with a typed default. Concrete
    settings are {!bindings} — association lists resolved against the
    spec's defaults — so a scenario can be driven from the command line
    ([-p n2=30]), from a sweep axis, or programmatically, all through the
    same interface. *)

type value = Int of int | Float of float | Bool of bool | String of string

type param = { key : string; default : value; doc : string }

type t = { name : string; doc : string; params : param list }

(** {1 Construction helpers} *)

val int : string -> int -> string -> param
val float : string -> float -> string -> param
val bool : string -> bool -> string -> param
val string : string -> string -> string -> param

(** {1 Values} *)

val value_to_string : value -> string
(** Render a value the way the CLI accepts it ([true]/[false] for
    booleans, [%.12g] for floats). *)

val type_name : value -> string
(** ["int"], ["float"], ["bool"] or ["string"]. *)

val parse_value : key:string -> like:value -> string -> value
(** Parse a string as the same type as [like], for parameter [key].
    Raises [Invalid_argument] naming [key] on a malformed literal and on
    a non-finite float ([nan], [inf], [-inf]): no scenario has a
    meaningful non-finite parameter, so they are refused here rather
    than deep inside the engine. *)

(** {1 Bindings} *)

type bindings = (string * value) list
(** Overrides for a spec's defaults; earlier entries shadow later ones,
    and any key not bound falls back to the spec default. *)

val param : t -> string -> param
(** Raises [Invalid_argument] (listing the valid keys) when the spec has
    no such parameter. *)

val get : t -> bindings -> string -> value
(** The bound value, or the spec default. Raises on unknown keys. *)

val get_int : t -> bindings -> string -> int
val get_float : t -> bindings -> string -> float
(** Accepts an [Int] binding for a float-typed parameter. *)

val get_bool : t -> bindings -> string -> bool
val get_string : t -> bindings -> string -> string

val validate : t -> bindings -> unit
(** Check every bound key against the spec: raises [Invalid_argument]
    on unknown keys or type mismatches. *)

val parse_assign : t -> string -> string * value
(** [parse_assign spec "n2=30"] is [("n2", Int 30)], typed according to
    the spec's default for that key. *)

val to_json : t -> bindings -> Repro_stats.Json.t
(** The fully-resolved parameter set (defaults plus overrides) as a JSON
    object, in spec order. *)
