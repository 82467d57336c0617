type value = Int of int | Float of float | Bool of bool | String of string

type param = { key : string; default : value; doc : string }

type t = { name : string; doc : string; params : param list }

let int key default doc = { key; default = Int default; doc }
let float key default doc = { key; default = Float default; doc }
let bool key default doc = { key; default = Bool default; doc }
let string key default doc = { key; default = String default; doc }

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.12g" f
  | Bool b -> string_of_bool b
  | String s -> s

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Bool _ -> "bool"
  | String _ -> "string"

let parse_value ~key ~like s =
  let fail () =
    invalid_arg
      (Printf.sprintf "Spec.parse_value: %s: %S is not a valid %s" key s
         (type_name like))
  in
  match like with
  | Int _ -> (
    match int_of_string_opt s with Some i -> Int i | None -> fail ())
  | Float _ -> (
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Float f
    | Some _ ->
      invalid_arg
        (Printf.sprintf "Spec.parse_value: %s: %S is not a finite float" key
           s)
    | None -> fail ())
  | Bool _ -> (
    match bool_of_string_opt s with Some b -> Bool b | None -> fail ())
  | String _ -> String s

type bindings = (string * value) list

let param t key =
  match List.find_opt (fun p -> p.key = key) t.params with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "%s has no parameter %S (valid: %s)" t.name key
         (String.concat ", " (List.map (fun p -> p.key) t.params)))

let get t bindings key =
  let p = param t key in
  match List.assoc_opt key bindings with
  | Some v -> v
  | None -> p.default

let type_error t key ~expected v =
  invalid_arg
    (Printf.sprintf "%s: parameter %S expects %s, got %s %S" t.name key
       expected (type_name v) (value_to_string v))

let get_int t bindings key =
  match get t bindings key with
  | Int i -> i
  | v -> type_error t key ~expected:"an int" v

let get_float t bindings key =
  match get t bindings key with
  | Float f -> f
  | Int i -> float_of_int i
  | v -> type_error t key ~expected:"a float" v

let get_bool t bindings key =
  match get t bindings key with
  | Bool b -> b
  | v -> type_error t key ~expected:"a bool" v

let get_string t bindings key =
  match get t bindings key with
  | String s -> s
  | v -> type_error t key ~expected:"a string" v

let validate t bindings =
  List.iter
    (fun (key, v) ->
      let p = param t key in
      let ok =
        match (p.default, v) with
        | Int _, Int _
        | Float _, (Float _ | Int _)
        | Bool _, Bool _
        | String _, String _ ->
          true
        | _ -> false
      in
      if not ok then type_error t key ~expected:(type_name p.default) v)
    bindings

let parse_assign t s =
  match String.index_opt s '=' with
  | None ->
    invalid_arg
      (Printf.sprintf "%s: expected key=value, got %S" t.name s)
  | Some i ->
    let key = String.sub s 0 i in
    let raw = String.sub s (i + 1) (String.length s - i - 1) in
    let p = param t key in
    (key, parse_value ~key ~like:p.default raw)

let json_of_value : value -> Repro_stats.Json.t = function
  | Int i -> Repro_stats.Json.Int i
  | Float f -> Repro_stats.Json.Float f
  | Bool b -> Repro_stats.Json.Bool b
  | String s -> Repro_stats.Json.String s

let to_json t bindings =
  Repro_stats.Json.Obj
    (List.map
       (fun p -> (p.key, json_of_value (get t bindings p.key)))
       t.params)
