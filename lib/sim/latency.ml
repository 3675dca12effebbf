(** Message latency models.

    The paper assumes an asynchronous system: reliable channels,
    unbounded and variable delays, possible reordering.  Reordering
    falls out of independently sampled per-message delays. *)

type t =
  | Constant of int  (** fixed delay *)
  | Uniform of int * int  (** uniform in [lo, hi] *)
  | Exponential of int  (** exponential-tailed with the given mean *)
  | Bimodal of { fast : int; slow : int; p_slow : float }
      (** mostly [fast], occasionally [slow] — heavy jitter *)

let sample t rng =
  match t with
  | Constant d -> d
  | Uniform (lo, hi) -> Rng.int_range rng ~lo ~hi
  | Exponential mean -> Rng.exponential_int rng ~mean
  | Bimodal { fast; slow; p_slow } ->
    if Rng.bernoulli rng ~p:p_slow then slow else fast

(* Shortest decimal that reads back as the same float. *)
let float_repr f =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec f in
    if prec >= 17 || float_of_string s = f then s else go (prec + 1)
  in
  go 1

(* The [--latency] syntax, which [of_string] reads back. *)
let pp ppf = function
  | Constant d -> Fmt.pf ppf "constant:%d" d
  | Uniform (lo, hi) -> Fmt.pf ppf "uniform:%d:%d" lo hi
  | Exponential m -> Fmt.pf ppf "exp:%d" m
  | Bimodal { fast; slow; p_slow } ->
    Fmt.pf ppf "bimodal:%d:%d:%s" fast slow (float_repr p_slow)

let of_string s =
  let delay d =
    match int_of_string_opt d with Some d when d >= 0 -> Some d | _ -> None
  in
  let model =
    match String.split_on_char ':' s with
    | [ "constant"; d ] -> Option.map (fun d -> Constant d) (delay d)
    | [ "uniform"; lo; hi ] -> (
      match (delay lo, delay hi) with
      | Some lo, Some hi when lo <= hi -> Some (Uniform (lo, hi))
      | _ -> None)
    | [ "exp"; m ] -> (
      match int_of_string_opt m with
      | Some m when m >= 1 -> Some (Exponential m)
      | _ -> None)
    | [ "bimodal"; fast; slow; p ] -> (
      match (delay fast, delay slow, float_of_string_opt p) with
      | Some fast, Some slow, Some p_slow when p_slow >= 0.0 && p_slow <= 1.0 ->
        Some (Bimodal { fast; slow; p_slow })
      | _ -> None)
    | _ -> None
  in
  Option.to_result model
    ~none:
      (Fmt.str
         "bad latency model %S: expected constant:D | uniform:LO:HI | \
          exp:MEAN | bimodal:FAST:SLOW:P (delays >= 0, LO <= HI, MEAN >= 1, \
          P in [0, 1])"
         s)

(** Default model used by the experiments: uniform 5–15 time units —
    wide enough that reordering is routine. *)
let default = Uniform (5, 15)
