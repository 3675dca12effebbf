(** Client-facing interface of a replicated multi-object store.

    [invoke ~proc m ~k] starts m-operation [m] at process [proc]; the
    continuation [k] is called with the result when the response event
    occurs.  Processes are sequential (well-formed histories): a client
    must not invoke again before its previous continuation fired. *)

open Mmc_core

type t = {
  name : string;
  invoke : proc:int -> Prog.mprog -> k:(Value.t -> unit) -> unit;
  messages_sent : unit -> int;
}

let invoke t ~proc m ~k = t.invoke ~proc m ~k

let messages_sent t = t.messages_sent ()

let name t = t.name

(** Store protocol selector. *)
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

let pp_kind ppf = function
  | Msc -> Fmt.string ppf "msc"
  | Mlin -> Fmt.string ppf "mlin"
  | Central -> Fmt.string ppf "central"
  | Local -> Fmt.string ppf "local"
  | Causal -> Fmt.string ppf "causal"
  | Lock -> Fmt.string ppf "lock"
  | Aw -> Fmt.string ppf "aw"
  | Rmsc -> Fmt.string ppf "rmsc"
  | Seg -> Fmt.string ppf "seg"

let kind_of_string = function
  | "msc" -> Some Msc
  | "mlin" -> Some Mlin
  | "central" -> Some Central
  | "local" -> Some Local
  | "causal" -> Some Causal
  | "lock" -> Some Lock
  | "aw" -> Some Aw
  | "rmsc" -> Some Rmsc
  | "seg" -> Some Seg
  | _ -> None

let flavour = function
  | Msc | Rmsc | Seg | Local -> History.Msc
  | Mlin | Central | Causal | Lock | Aw -> History.Mlin
