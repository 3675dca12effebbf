(** Message latency models.  The paper assumes an asynchronous
    reliable network with reordering; reordering falls out of
    independently sampled per-message delays. *)

type t =
  | Constant of int
  | Uniform of int * int  (** uniform in [lo, hi] *)
  | Exponential of int  (** exponential-tailed with the given mean *)
  | Bimodal of { fast : int; slow : int; p_slow : float }
      (** mostly [fast], occasionally [slow] — heavy jitter *)

val sample : t -> Rng.t -> int

(** Prints the syntax {!of_string} reads: [constant:D],
    [uniform:LO:HI], [exp:MEAN] or [bimodal:FAST:SLOW:P]. *)
val pp : Format.formatter -> t -> unit

(** Parses {!pp}'s syntax; [Error] names the accepted forms.  Delays
    must be [>= 0], [LO <= HI], [MEAN >= 1] and [P] in [[0, 1]], so
    [of_string (Fmt.str "%a" pp l) = Ok l] for every valid [l]. *)
val of_string : string -> (t, string) result

(** Uniform 5–15: the experiments' default — wide enough that
    reordering is routine. *)
val default : t
