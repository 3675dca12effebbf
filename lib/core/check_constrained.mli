(** Polynomial-time admissibility checking under execution constraints
    (paper, Theorem 7): under OO or WW, admissibility is equivalent to
    legality, and a witness is any total extension of
    [(~H ∪ ~rw)+]. *)

type result =
  | Admissible of Sequential.witness
  | Not_legal of Legality.triple
  | Constraint_violated  (** the history is not under the given constraint *)
  | Cyclic  (** [~H] itself is not an irreflexive partial order *)
  | Extended_cyclic
      (** impossible under OO/WW for a legal history (Lemmas 3–4) *)

val pp_result : Format.formatter -> result -> unit

(** [check_closed h closed kind] — like {!check_relation} over an
    already transitively closed relation; a cyclic [~H] is recognized
    by reflexive entries of the closure.  Entry point for callers that
    maintain the closure themselves (e.g. {!Incremental}).  With
    [~arena] the [~rw]-extension intermediate is acquired from and
    recycled into the arena ({!Relation.Arena}); [closed] itself is
    never recycled. *)
val check_closed :
  ?arena:Relation.Arena.arena ->
  History.t ->
  Relation.t ->
  Constraints.kind ->
  result

(** [check_relation h base kind] — decide admissibility with respect to
    the (not necessarily closed) relation [base], verifying constraint
    [kind] first.  Use when the synchronization order (e.g. the atomic
    broadcast order) is supplied as extra edges.  The bitset oracle
    that {!Check_chain} is cross-checked against. *)
val check_relation :
  History.t ->
  Relation.t ->
  Constraints.kind ->
  result

(** [check h flavour kind] — over the base relation of the given
    consistency condition. *)
val check :
  History.t ->
  History.flavour ->
  Constraints.kind ->
  result

(** Incrementally closed relation for verifying a growing trace:
    stream edges in as m-operations complete; the transitive closure
    is maintained per edge ({!Relation.add_edge_closed}) so the final
    {!Incremental.check} never re-closes from scratch. *)
module Incremental : sig
  type t

  (** [create n] — empty (closed) relation over [0 .. n-1].  With
      [~arena] the backing words come from (and can go back to, via
      {!Relation.recycle} on the {!relation}) the arena's free lists —
      how the windowed streaming checker keeps one epoch-sized
      relation resident instead of a trace-sized one. *)
  val create : ?arena:Relation.Arena.arena -> int -> t

  val add_edge : t -> int -> int -> unit
  val add_edges : t -> (int * int) list -> unit

  (** The maintained transitive closure (shared, not a copy). *)
  val relation : t -> Relation.t

  val is_acyclic : t -> bool

  (** {!check_closed} on the maintained closure (which stays owned by
      [t] — only the extension intermediate goes through [~arena]). *)
  val check :
    ?arena:Relation.Arena.arena -> t -> History.t -> Constraints.kind -> result
end
