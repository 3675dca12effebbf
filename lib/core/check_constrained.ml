(** Polynomial-time admissibility checking under execution constraints
    (paper, Theorem 7).

    For a history under the OO- or WW-constraint, admissibility is
    equivalent to legality; a witness is obtained by extending the
    relation [~H+ = (~H ∪ ~rw)+] (D 4.12) to any total order
    (Lemmas 3–5).  Everything here is polynomial in the history size,
    in contrast with {!Admissible.search}.

    The pipeline is single-pass: the base relation is closed exactly
    once (acyclicity read off the closure's diagonal) and the
    interference triples are computed once and shared between the
    legality scan and the [~rw] extension.  {!Check_chain} answers
    the same question without a closure; this bitset pipeline is its
    independent oracle. *)

type result =
  | Admissible of Sequential.witness
  | Not_legal of Legality.triple  (** legality violated, hence not admissible *)
  | Constraint_violated  (** the history is not under the given constraint *)
  | Cyclic  (** [~H] itself is not an irreflexive partial order *)
  | Extended_cyclic
      (** [(~H ∪ ~rw)+] is cyclic — impossible under OO/WW for a legal
          history (Lemmas 3 and 4); reported for WO or misuse *)

let pp_result ppf = function
  | Admissible w -> Fmt.pf ppf "admissible: %a" Sequential.pp w
  | Not_legal t -> Fmt.pf ppf "not legal: %a" Legality.pp_triple t
  | Constraint_violated -> Fmt.string ppf "constraint violated"
  | Cyclic -> Fmt.string ppf "~H cyclic"
  | Extended_cyclic -> Fmt.string ppf "extended relation cyclic"

(** [check_closed h closed kind] — like {!check_relation} but over an
    already transitively closed relation (a cyclic [~H] shows up as
    reflexive entries of the closure).  This is the entry point for
    callers that maintain the closure themselves, e.g. incrementally
    via {!Relation.add_edge_closed} as a trace grows. *)
exception Violation of Legality.triple

let check_closed ?arena h closed kind =
  if not (Relation.is_irreflexive closed) then Cyclic
  else if not (Constraints.satisfies h closed kind) then Constraint_violated
  else begin
    (* One pass over the interference triples decides legality (D 4.6)
       and collects the [~rw] edges (D 4.11) not already implied: each
       triple (a, b, c) with [b ~H c] either violates legality
       ([c ~H a]) or forces [a ~rw c]. *)
    let triples = Legality.interfering_triples h in
    match
      let fresh = ref [] in
      List.iter
        (fun (t : Legality.triple) ->
          if Relation.mem closed t.Legality.beta t.Legality.gamma then begin
            if Relation.mem closed t.Legality.gamma t.Legality.alpha then
              raise (Violation t);
            if not (Relation.mem closed t.Legality.alpha t.Legality.gamma) then
              fresh := (t.Legality.alpha, t.Legality.gamma) :: !fresh
          end)
        triples;
      !fresh
    with
    | exception Violation t -> Not_legal t
    | fresh ->
      let ext = Relation.closure_with ?arena closed fresh in
      (* [ext] is transitively closed, so the witness order is read
         off row cardinalities instead of a Kahn sort.  Witness
         validity (Theorem 7 / Lemma 5) is exercised by the test
         suite's [Sequential.validate] properties, not re-checked on
         every call. *)
      let verdict =
        match Relation.topo_sort_closed ext with
        | None -> Extended_cyclic
        | Some order -> Admissible order
      in
      (* The witness is a bare permutation: [ext] is dead here. *)
      Option.iter (fun a -> Relation.recycle a ext) arena;
      verdict
  end

(** [check_relation h base kind] — decide admissibility of [h] with
    respect to the (not necessarily closed) relation [base], assuming
    it executes under constraint [kind].  The constraint is verified,
    not trusted.  Used directly when the synchronization order (e.g.
    the atomic-broadcast order) is supplied as extra edges beyond a
    standard flavour. *)
let check_relation h base kind =
  check_closed h (Relation.transitive_closure base) kind

(** [check h flavour kind] — {!check_relation} over the base relation
    of the given consistency condition. *)
let check h flavour kind =
  check_relation h (History.base_relation h flavour) kind

(** Incrementally closed relation for checking a growing trace: edges
    stream in (process order, reads-from, synchronization order...) as
    m-operations complete, the transitive closure is maintained per
    edge in O(n^2/63) word operations ({!Relation.add_edge_closed}),
    and {!Incremental.check} runs the Theorem-7 pipeline on the
    maintained closure without ever re-closing from scratch. *)
module Incremental = struct
  type t = { closed : Relation.t }

  let create ?arena n =
    match arena with
    | None -> { closed = Relation.create n }
    | Some a -> { closed = Relation.create_in a n }

  let add_edge t i j = Relation.add_edge_closed t.closed i j

  let add_edges t edges = List.iter (fun (i, j) -> add_edge t i j) edges

  (** The maintained transitive closure (shared, not a copy). *)
  let relation t = t.closed

  let is_acyclic t = Relation.is_irreflexive t.closed

  (* [t.closed] stays owned by [t]; only the extension intermediate
     goes through the arena. *)
  let check ?arena t h kind = check_closed ?arena h t.closed kind
end
