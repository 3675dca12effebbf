(** Theorem-7 admissibility checking with chain clocks instead of a
    transitive closure.

    Two facts from the paper make a closure unnecessary:

    - process order splits the m-operations into [p] chains, so
      [c ~H a] holds iff [V_a[proc c] >= idx c], where [V] is a
      width-[p] vector clock computed in one topological pass (the
      vector timestamps of Section 5, P 5.1–5.8);
    - under WW/OO/WO the writers of each object are totally ordered by
      [~H], so for a reads-from edge [b --x--> a] legality (D 4.6)
      needs only [c], the next writer of [x] after [b], and the [~rw]
      extension (D 4.11) needs only the edge [a ~rw c]; every other
      [~rw] edge follows by transitivity.

    The check costs O((n + E) . p) time and O(n . p) memory, where [E]
    is the number of base edges after reduction (process order,
    reads-from, synchronization links, and at most [p] real-time or
    object-order predecessors per m-operation and object).  It shares
    no closure code with {!Check_constrained.check_relation}, the
    bitset oracle it is cross-checked against. *)

(** [check h flavour ~sync kind] — decide admissibility of [h] over
    the base relation of [flavour] plus the synchronization [sync]
    (each list a chain: consecutive members become edges, e.g. the
    atomic-broadcast order), verifying constraint [kind] first.  Same
    verdict shape as {!Check_constrained.check_relation} over the same
    relation; the witness or the reported triple may differ. *)
val check :
  History.t ->
  History.flavour ->
  sync:Types.mop_id list list ->
  Constraints.kind ->
  Check_constrained.result
