(** Client-facing interface of a replicated multi-object store.

    Processes are sequential: a client must not invoke again before its
    previous continuation fired (histories stay well-formed). *)

open Mmc_core

type t = {
  name : string;
  invoke : proc:int -> Prog.mprog -> k:(Value.t -> unit) -> unit;
  messages_sent : unit -> int;
}

val invoke : t -> proc:int -> Prog.mprog -> k:(Value.t -> unit) -> unit
val messages_sent : t -> int
val name : t -> string

type kind =
  | Msc  (** Figure 4: m-sequential consistency *)
  | Mlin  (** Figure 6: m-linearizability *)
  | Central  (** centralized serial server (baseline) *)
  | Local  (** unsynchronized local copies (inconsistent baseline) *)
  | Causal  (** causal propagation (Raynal et al., weaker baseline) *)
  | Lock  (** distributed strict two-phase locking over sharded owners *)
  | Aw  (** Attiya–Welch clock-based linearizability (needs delay bound) *)
  | Rmsc  (** recoverable msc: WAL + checkpoints + catch-up (Rstore) *)
  | Seg
      (** coordination-avoidance fast path: confluent m-operations
          apply locally, sequenced ones escalate to the broadcast
          behind a flush barrier (Seg_store) *)

val pp_kind : Format.formatter -> kind -> unit
val kind_of_string : string -> kind option

(** The condition a store kind's trace is checked under:
    m-sequential consistency for the Figure 4 family ([Msc], [Rmsc],
    [Seg]) and for the [Local] baseline (whose traces are expected to
    fail it), m-linearizability for every other kind. *)
val flavour : kind -> History.flavour
