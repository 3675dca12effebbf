(** Open-loop soak harness: drive a broadcast-based store at a target
    arrival rate while the {!Window_check} verifies the trace as it
    streams, for runs far longer than a full in-memory history could
    hold.

    Unlike {!Mmc_store.Runner.run} (closed loop: each client reissues a
    think time after its previous response), arrivals here are an
    exponential process with a target mean inter-arrival time,
    independent of service latency.  Arrivals queue for the first idle
    client of a fixed pool; reported latency is arrival to response,
    queueing included — so overload shows up as growing latency and
    queue depth instead of silently throttling the offered load.

    Completed m-operations drain out of the {!Mmc_store.Recorder}
    continuously and feed the windowed checker through a small
    reordering buffer (records complete out of invocation order; the
    buffer releases a record once no in-flight or future m-operation
    can invoke before it), so resident state is O(window + in-flight),
    not O(trace). *)

open Mmc_core
open Mmc_sim
open Mmc_store

(** Same as {!Mmc_store.Store.flavour}. *)
val flavour_of_kind : Store.kind -> History.flavour

type config = {
  runner : Runner.config;
      (** store kind and topology; [ops_per_proc], [think_lo] and
          [think_hi] are ignored (arrivals are open-loop).  The kind
          must have a global synchronization order (msc / mlin /
          rmsc). *)
  rate : int;  (** mean inter-arrival time, virtual ticks (>= 1) *)
  max_ops : int;  (** stop after this many arrivals; 0 = by time only *)
  max_time : int option;  (** stop arrivals at this virtual time *)
  window : int;
  settle : int;  (** {!Window_check.create} knobs *)
  sample_every : int;
      (** virtual time between observability samples; 0 disables *)
  corrupt : int option;
      (** inject one stale read at (roughly) the given feed index: the
          first subsequent read-modify-write of some object [x] that
          observed version [v >= 2] is rewritten to have read [v - 2]
          (value patched to match), which Theorem 7 must reject —
          a seeded known-FAIL for exercising the failure path *)
  verify_full : bool;
      (** additionally keep every record and re-check the whole trace
          with the full-trace checker at the end (O(trace) memory —
          cross-validation for tests, not for real soaks) *)
}

val default_config : config

(** One observability sample (emitted every [sample_every] ticks). *)
type sample = {
  s_now : int;
  s_completed : int;
  s_queue : int;  (** arrivals waiting for an idle client *)
  s_interval : Stats.quantiles;
      (** latency quantiles over the sample interval only *)
  s_wc : Window_check.metrics;
}

type result = {
  verdict : Window_check.verdict;
  wc : Window_check.metrics;
  arrived : int;
  completed : int;
  duration : int;  (** virtual time at quiescence *)
  messages : int;
  events : int;
  latency : Stats.quantiles;  (** arrival-to-response, whole run *)
  query_latency : Stats.quantiles;
  update_latency : Stats.quantiles;
  max_queue : int;
  samples : int;
  full_verdict : string option;  (** with [verify_full] *)
  agreement : bool option;
      (** with [verify_full]: whether the windowed verdict matches the
          full-trace one ([None] when windowed is [Inconclusive] or
          the full check could not run) *)
}

(** [run ~seed ~workload cfg] — [workload rng ~proc ~step] produces the
    [step]-th m-operation dispatched to client [proc] (e.g.
    {!Mmc_workload.Generator.mixed}).  Arrivals stop at the
    [max_ops] / [max_time] bound, or as soon as the verdict latches
    non-[Pass]; in-flight m-operations then complete and the final
    window is checked. *)
val run :
  ?on_sample:(sample -> unit) ->
  seed:int ->
  workload:(Rng.t -> proc:int -> step:int -> Prog.mprog) ->
  config ->
  result

(** [verify_sharded ~window ~settle ~flavour result] — stream each
    shard's local trace of a {!Mmc_shard.Shard_runner} run through its
    own windowed checker, all sharing one arena.  The conjunction of
    the per-shard verdicts is the sharded analogue of the single-store
    windowed check; the global stitched condition stays an offline
    check ({!Mmc_shard.Shard_runner.check}) — see DESIGN.md §14. *)
val verify_sharded :
  ?arena:Relation.Arena.arena ->
  window:int ->
  settle:int ->
  flavour:History.flavour ->
  Mmc_shard.Shard_runner.result ->
  Window_check.verdict array * Window_check.metrics list
