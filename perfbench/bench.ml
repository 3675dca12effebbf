(* One measured repeat of one benchmark workload, in a fresh process.

     bench.exe run   --workload W --seed N [--quick]
     bench.exe trace --workload W --seed N [--quick] [--spans FILE]

   [run] drives the library's bundled entry points ([Soak.run],
   [Shard_runner.run]/[check], [Runner.run]/[check_trace]) with
   tracing off and prints one JSON line: exact counts, virtual-time
   latency quantiles, wall time of the measured run, set-up samples and
   the peak heap.  [trace] re-drives the same run from the layers'
   public parts with a span around every call into a layer and prints
   the same counts plus per-layer self times and counters.  [run.py]
   compares the two: identical counts show the re-driven run is the
   same run.

   Every quantity except the wall-clock ones is a deterministic
   function of the workload, the seed and the GC settings fixed below. *)

open Mmc_core
open Mmc_sim
open Mmc_store
module Soak = Mmc_stream.Soak
module Wc = Mmc_stream.Window_check
module Placement = Mmc_shard.Placement
module Shard_runner = Mmc_shard.Shard_runner
module Shard_store = Mmc_shard.Shard_store
module Shard_recorder = Mmc_shard.Shard_recorder
module Check_sharded = Mmc_shard.Check_sharded
module Router = Mmc_shard.Router
module Gen = Mmc_workload.Generator
module Spec = Mmc_workload.Spec
module Rlog = Mmc_recovery.Rlog
module Rbcast = Mmc_broadcast.Rbcast

(* ---------------------------------------------------------------- *)
(* JSON output                                                        *)

type json =
  | I of int
  | F of float
  | S of string
  | L of json list
  | O of (string * json) list

let rec pp_json b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | F f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | L xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        pp_json b x)
      xs;
    Buffer.add_char b ']'
  | O kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%S:" k);
        pp_json b v)
      kvs;
    Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  pp_json b j;
  print_endline (Buffer.contents b)

(* ---------------------------------------------------------------- *)
(* Workloads                                                          *)

type workload = Soak_msc | Soak_rmsc_lossy | Shard_seg_verify | Chaos_rmsc

let workloads =
  [
    ("soak-msc", Soak_msc);
    ("soak-rmsc-lossy", Soak_rmsc_lossy);
    ("shard-seg-verify", Shard_seg_verify);
    ("chaos-rmsc", Chaos_rmsc);
  ]

let n_procs = 4
let n_objects = 16

(* Soaks: 4 clients, 16 objects, half queries, exponential arrivals
   with a mean gap of 8 ticks (about 37% of the pool's capacity). *)
let soak_spec = { Spec.default with n_objects; read_ratio = 0.5 }

let soak_config ~quick ~rmsc =
  let kind, fault, ops =
    if rmsc then (Store.Rmsc, { Fault.none with drop = 0.05 }, 20_000)
    else (Store.Msc, Fault.none, 100_000)
  in
  {
    Soak.default_config with
    runner = { Runner.default_config with n_procs; n_objects; kind; fault };
    rate = 8;
    max_ops = (if quick then ops / 20 else ops);
    sample_every = 0;
  }

(* The soak's m-operation programs come from their own stream, apart
   from the streams [Soak.run] derives from the same seed for arrivals
   and the store. *)
let soak_programs ~seed ~ops =
  let rng = Rng.create (seed + (1 lsl 30)) in
  Array.init ops (fun step -> Gen.mixed soak_spec rng ~proc:0 ~step)

(* [Soak.run] hands its arrivals to idle clients in arrival order; the
   [i]-th dispatched m-operation is program [i]. *)
let feeder progs =
  let next = ref 0 in
  fun (_ : Rng.t) ~proc:(_ : int) ~step:(_ : int) ->
    let m = progs.(!next) in
    incr next;
    m

(* The sharded run: the seg store on S=4 hash-placed shards, the
   commuting-counter workload at ratio 0.9, closed loop, 4 clients. *)
let shard_spec = { Spec.default with n_objects; read_ratio = 0.5 }
let shard_placement () = Placement.hash ~n_shards:4 ~n_objects

(* Client [p]'s programs come from its own stream of the input seed;
   the runner's client streams then only draw think times. *)
let shard_programs ~seed ~ops placement =
  let rng = Rng.create (seed + (1 lsl 30)) in
  Array.init n_procs (fun proc ->
      let r = Rng.split rng in
      Array.init ops (fun step ->
          Gen.sharded_counter_commute ~commute_ratio:0.9 ~n_procs placement
            shard_spec r ~proc ~step))

let replay progs (_ : Rng.t) ~proc ~step = progs.(proc).(step)

(* Four independent sub-runs of 4 x 500 m-operations: pooling them
   steadies the seed-to-seed spread of every figure, and four checks
   of 2000 m-operations cost less than one check of 8000. *)
let shard_config ~quick =
  {
    Runner.default_config with
    n_procs;
    n_objects;
    ops_per_proc = (if quick then 100 else 500);
    kind = Store.Seg;
  }

(* Sub-run [j] of seed [seed] runs with seed [seed * 1000 + j]. *)
let shard_seeds ~quick ~seed =
  List.init (if quick then 2 else 4) (fun j -> (seed * 1000) + j)

(* The chaos loop, exactly as [mmc chaos --ops 50 --plans 100]: plan
   [i] is [Fault.fuzz] of seed [seed + i], run with that seed. *)
let chaos_plans ~quick = if quick then 10 else 100
let chaos_spec = { Spec.default with n_objects = 8 }

let chaos_config plan =
  {
    Runner.default_config with
    n_procs;
    n_objects = 8;
    ops_per_proc = 50;
    kind = Store.Rmsc;
    latency = Latency.Uniform (5, 15);
    fault = plan;
  }

let chaos_inputs ~quick ~seed =
  Array.init (chaos_plans ~quick) (fun i ->
      (seed + i, Fault.fuzz ~rng:(Rng.create (seed + i)) ~n:n_procs))

(* ---------------------------------------------------------------- *)
(* Set-up: generate the seeded inputs and build the components a run
   starts from.  Timed on its own; the components built here are
   thrown away (the library's entry points build their own). *)

type inputs =
  | Soak_in of Soak.config * Prog.mprog array
  | Shard_in of
      Runner.config * Placement.t * (int * Prog.mprog array array) list
      (** sub-runs: seed, each client's programs *)
  | Chaos_in of (int * Fault.plan) array  (** plan seed, plan *)

let gen_inputs ~quick ~seed = function
  | (Soak_msc | Soak_rmsc_lossy) as w ->
    let cfg = soak_config ~quick ~rmsc:(w = Soak_rmsc_lossy) in
    Soak_in (cfg, soak_programs ~seed ~ops:cfg.Soak.max_ops)
  | Shard_seg_verify ->
    let cfg = shard_config ~quick and placement = shard_placement () in
    Shard_in
      ( cfg,
        placement,
        List.map
          (fun seed ->
            (seed, shard_programs ~seed ~ops:cfg.Runner.ops_per_proc placement))
          (shard_seeds ~quick ~seed) )
  | Chaos_rmsc -> Chaos_in (chaos_inputs ~quick ~seed)

let build_store (cfg : Runner.config) ~seed =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let recorder = Recorder.create ~n_objects:cfg.Runner.n_objects in
  let store_rng = Rng.split rng in
  let fault =
    if Fault.is_none cfg.Runner.fault then None
    else Some (Fault.create cfg.Runner.fault ~rng:(Rng.split rng))
  in
  Runner.make_store ?fault cfg engine ~rng:store_rng ~recorder

let setup_once ~quick ~seed w =
  let inputs = gen_inputs ~quick ~seed w in
  (match inputs with
  | Soak_in (cfg, _) ->
    ignore (build_store cfg.Soak.runner ~seed);
    ignore
      (Wc.create ~window:cfg.Soak.window ~settle:cfg.Soak.settle
         ~flavour:(Soak.flavour_of_kind cfg.Soak.runner.Runner.kind)
         ~n_objects ())
  | Shard_in (cfg, placement, runs) ->
    List.iter
      (fun (seed, _) ->
        let rng = Rng.create seed in
        ignore
          (Shard_store.create cfg (Engine.create ()) ~placement
             ~rng:(Rng.split rng)))
      runs
  | Chaos_in plans ->
    Array.iter
      (fun (plan_seed, plan) ->
        ignore (build_store (chaos_config plan) ~seed:plan_seed))
      plans);
  inputs

(* ---------------------------------------------------------------- *)
(* Results                                                            *)

type lat = { query : Stats.quantiles; update : Stats.quantiles; all : Stats.quantiles }

type outcome = {
  attempted : int;
  completed : int;
  failed : int;  (** m-operations not verified: lost, or in a failed run *)
  messages : int;
  events : int;
  lat : lat;
  verdict : string;
  problems : string list;  (** every check that did not hold *)
  extra : (string * json) list;  (** exact workload-specific counts *)
}

let j_quantiles (q : Stats.quantiles) =
  O
    [
      ("n", I q.Stats.q_count);
      ("p50", F q.Stats.q50);
      ("p99", F q.Stats.q99);
      ("p999", F q.Stats.q999);
    ]

let j_outcome o =
  [
    ("attempted", I o.attempted);
    ("completed", I o.completed);
    ("failed", I o.failed);
    ("messages", I o.messages);
    ("events", I o.events);
    ( "latency_vt",
      O
        [
          ("query", j_quantiles o.lat.query);
          ("update", j_quantiles o.lat.update);
          ("all", j_quantiles o.lat.all);
        ] );
    ("verdict", S o.verdict);
    ("extra", O o.extra);
    ("problems", L (List.map (fun p -> S p) o.problems));
  ]

(* Latency samples, kept so that pooled quantiles can be taken. *)
module Samples = struct
  type t = { mutable q : int list; mutable u : int list }

  let create () = { q = []; u = [] }
  let add t ~is_query v = if is_query then t.q <- v :: t.q else t.u <- v :: t.u

  (* Invocation-to-response of every recorded m-operation; returns how
     many queries and updates it added. *)
  let add_history t h =
    List.fold_left
      (fun (nq, nu) (m : Mop.t) ->
        let is_query = Mop.is_query m in
        add t ~is_query (m.Mop.resp - m.Mop.inv);
        if is_query then (nq + 1, nu) else (nq, nu + 1))
      (0, 0) (History.real_mops h)

  let append t src =
    t.q <- List.rev_append src.q t.q;
    t.u <- List.rev_append src.u t.u

  let lat t =
    let qs = Array.of_list t.q and us = Array.of_list t.u in
    {
      query = Stats.quantiles_of_ints qs;
      update = Stats.quantiles_of_ints us;
      all = Stats.quantiles_of_ints (Array.append qs us);
    }
end

let verdict_word = function
  | Wc.Pass -> "PASS"
  | Wc.Fail { prefix; reason } -> Printf.sprintf "FAIL(%d: %s)" prefix reason
  | Wc.Inconclusive reason -> Printf.sprintf "INCONCLUSIVE(%s)" reason

let result_word = function
  | Check_constrained.Admissible _ -> "admissible"
  | r -> Fmt.str "%a" Check_constrained.pp_result r

let is_admissible = function
  | Check_constrained.Admissible _ -> true
  | _ -> false

(* ---------------------------------------------------------------- *)
(* Soaks                                                              *)

let soak_outcome ~cfg ~verdict ~arrived ~completed ~messages ~events ~lat
    ~(wc : Wc.metrics) =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if verdict <> Wc.Pass then note "soak verdict %s" (verdict_word verdict);
  if arrived <> cfg.Soak.max_ops then
    note "%d arrivals for max_ops %d" arrived cfg.Soak.max_ops;
  if completed <> arrived then note "%d of %d arrivals completed" completed arrived;
  {
    attempted = cfg.Soak.max_ops;
    completed;
    failed = (if verdict = Wc.Pass then cfg.Soak.max_ops - completed else cfg.Soak.max_ops);
    messages;
    events;
    lat;
    verdict = verdict_word verdict;
    problems = List.rev !problems;
    extra =
      [
        ("wc_fed", I wc.Wc.fed);
        ("wc_checks", I wc.Wc.checks);
        ("wc_retired", I wc.Wc.retired);
        ("wc_max_resident_words", I wc.Wc.max_resident_words);
      ];
  }

let soak_run ~cfg ~seed ~progs =
  let r = Soak.run ~seed ~workload:(feeder progs) cfg in
  soak_outcome ~cfg ~verdict:r.Soak.verdict ~arrived:r.Soak.arrived
    ~completed:r.Soak.completed ~messages:r.Soak.messages ~events:r.Soak.events
    ~lat:
      {
        query = r.Soak.query_latency;
        update = r.Soak.update_latency;
        all = r.Soak.latency;
      }
    ~wc:r.Soak.wc

(* Per-layer counters of a traced run, summed over its sub-runs and
   plans, by metric name.  A counter a workload never touches reads 0;
   [_per_op] counters are divided by the completed m-operations and
   shares are taken by [layer_counts]. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)
let set name v = Hashtbl.replace counters name v
let count name n = set name (get name +. float_of_int n)
let count_max name n = set name (Float.max (get name) (float_of_int n))

let count_fault f =
  let c = Fault.counts f in
  count "transport.dropped_per_op" (Fault.dropped f);
  count "transport.retransmits_per_op" c.Fault.retransmissions;
  count "transport.abandoned" c.Fault.abandoned;
  count_max "transport.heal_catchup_vt" (Fault.recovery_time f)

let count_rstore (h : Rstore.handle) =
  Option.iter
    (fun (d : Detector.stats) ->
      count "detector.beats_per_op" d.Detector.beats_sent;
      count "detector.false_suspicions" d.Detector.false_suspicions)
    (h.Rstore.detector_stats ());
  let b = h.Rstore.broadcast_stats () in
  count "broadcast.epochs" b.Rbcast.epochs;
  count "broadcast.resubmits" b.Rbcast.resubmits;
  count "broadcast.fenced" b.Rbcast.fenced;
  count "broadcast.holes" b.Rbcast.holes;
  count "store.stability_acks_per_op" (h.Rstore.stability_acks ());
  Array.iter
    (fun (s : Rlog.stats) ->
      count "rlog.appends_per_op" s.Rlog.appends;
      count "rlog.scrubbed_per_op" s.Rlog.scrubbed;
      count "rlog.torn" s.Rlog.torn;
      count "rlog.corrupt" s.Rlog.corrupt;
      count "rlog.repaired" s.Rlog.repaired;
      count "rlog.ckpt_fallbacks" s.Rlog.ckpt_fallbacks)
    (h.Rstore.log_stats ());
  count "catchup.pulls" (h.Rstore.pulls ());
  count "catchup.entries_pushed" (h.Rstore.entries_pushed ());
  count "recovery.recoveries" (h.Rstore.recoveries ())

let count_seg (h : Seg_store.handle) =
  let s = h.Seg_store.stats in
  count "fastpath.local" (s.Seg_store.fast + s.Seg_store.fast_queries);
  count "fastpath.escalated" s.Seg_store.escalated;
  count "fastpath.flushes" s.Seg_store.flushes

let count_wc (m : Wc.metrics) verdict =
  count "window_check.checks" m.Wc.checks;
  count "window_check.max_resident_words" m.Wc.max_resident_words;
  count "window_check.recycled_words" m.Wc.recycled_words;
  count "window_check.arena_hits" m.Wc.arena_hits;
  count "window_check.arena_misses" m.Wc.arena_misses;
  count "window_check.inconclusive"
    (match verdict with Wc.Inconclusive _ -> 1 | _ -> 0)

let layer_counts ~completed =
  let share a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let per_op = float_of_int (max 1 completed) in
  Hashtbl.fold
    (fun name v acc ->
      if String.ends_with ~suffix:"_per_op" name then (name, v /. per_op) :: acc
      else (name, v) :: acc)
    counters
    [
      ("fastpath.local_share", share (get "fastpath.local") (get "fastpath.escalated"));
      ( "window_check.arena_hit_share",
        share (get "window_check.arena_hits") (get "window_check.arena_misses") );
      ("router.cross_shard_share", get "router.cross_shard" /. per_op);
    ]

(* [Soak.run], re-driven from its public parts with a span around
   every call into a layer.  Stream splitting, dispatch, the reorder
   buffer and the watermark follow [Soak.run] step for step, so the
   run is the same run: [run.py] checks that every count matches. *)
let soak_traced ~(cfg : Soak.config) ~seed ~progs =
  let open Trace in
  let rcfg = cfg.Soak.runner in
  let engine, recorder, store, wc, arrival_rng, fault, fhandle, rhandle =
    span Setup (fun () ->
        let engine = Engine.create () in
        let rng = Rng.create seed in
        let recorder = Recorder.create ~n_objects in
        let store_rng = Rng.split rng in
        (* The client streams feed only the workload, which here
           replays pre-generated programs; they are split anyway so
           that the arrival and fault streams are [Soak.run]'s. *)
        let _client_rngs = Array.init n_procs (fun _ -> Rng.split rng) in
        let arrival_rng = Rng.split rng in
        Fault.validate ~n:n_procs rcfg.Runner.fault;
        let fault =
          if Fault.is_none rcfg.Runner.fault then None
          else Some (Fault.create rcfg.Runner.fault ~rng:(Rng.split rng))
        in
        let fhandle = ref None and rhandle = ref None in
        let store =
          Runner.make_store ?fault
            ~sink:(fun h -> rhandle := Some h)
            ~fsink:(fun h -> fhandle := Some h)
            rcfg engine ~rng:store_rng ~recorder
        in
        let wc =
          Wc.create ~window:cfg.Soak.window ~settle:cfg.Soak.settle
            ~flavour:(Soak.flavour_of_kind rcfg.Runner.kind)
            ~n_objects ()
        in
        (engine, recorder, store, wc, arrival_rng, fault, fhandle, rhandle))
  in
  let queue : (int * int) Queue.t = Queue.create () in
  let idle : int Queue.t = Queue.create () in
  for p = 0 to n_procs - 1 do
    Queue.add p idle
  done;
  let in_flight = Array.make n_procs max_int in
  let arrived = ref 0 and completed = ref 0 and dispatched = ref 0 in
  let max_queue = ref 0 in
  let lat_q = Stats.create () and lat_u = Stats.create () in
  let lat_all = Stats.create () and waits = Stats.create () in
  let ids : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let buffer : Recorder.record list ref = ref [] in
  let watermark () =
    let wm = Array.fold_left min (Engine.now engine) in_flight in
    match !fhandle with
    | None -> wm
    | Some h -> (
      match h.Seg_store.oldest_pending () with None -> wm | Some t -> min wm t)
  in
  let cmp_rec (a : Recorder.record) (b : Recorder.record) =
    compare
      (a.Recorder.inv, a.Recorder.resp, a.Recorder.proc)
      (b.Recorder.inv, b.Recorder.resp, b.Recorder.proc)
  in
  let feed_one (r : Recorder.record) =
    let key = (r.Recorder.proc, r.Recorder.inv) in
    let op = Option.value ~default:(-1) (Hashtbl.find_opt ids key) in
    Hashtbl.remove ids key;
    span ~op Window_check (fun () -> Wc.feed wc (Wc.entry_of_record r))
  in
  let pump ~op ~final =
    let drained = span ~op Recorder (fun () -> Recorder.drain recorder) in
    buffer := List.rev_append drained !buffer;
    let wm = watermark () in
    let ready, rest =
      List.partition
        (fun (r : Recorder.record) -> final || r.Recorder.inv < wm)
        !buffer
    in
    buffer := rest;
    if ready <> [] then List.iter feed_one (List.sort cmp_rec ready)
  in
  let stopping () =
    !arrived >= cfg.Soak.max_ops
    || match Wc.verdict wc with Wc.Pass -> false | _ -> true
  in
  let rec dispatch () =
    if not (Queue.is_empty queue || Queue.is_empty idle) then begin
      let op, t_arr = Queue.pop queue in
      let proc = Queue.pop idle in
      let m = progs.(!dispatched) in
      incr dispatched;
      in_flight.(proc) <- Engine.now engine;
      Hashtbl.replace ids (proc, Engine.now engine) op;
      Stats.add waits (Engine.now engine - t_arr);
      let is_query = Prog.is_query m in
      span ~op Store (fun () ->
          Store.invoke store ~proc m ~k:(fun _result ->
              span ~op Soak (fun () ->
                  incr completed;
                  let lat = Engine.now engine - t_arr in
                  Stats.add (if is_query then lat_q else lat_u) lat;
                  Stats.add lat_all lat;
                  in_flight.(proc) <- max_int;
                  pump ~op ~final:false;
                  Engine.schedule engine ~delay:1 (fun () ->
                      span Soak (fun () ->
                          Queue.add proc idle;
                          dispatch ())))));
      dispatch ()
    end
  in
  let iat () = Rng.exponential_int arrival_rng ~mean:cfg.Soak.rate in
  let rec arrive () =
    span Soak (fun () ->
        if not (stopping ()) then begin
          Queue.add (!arrived, Engine.now engine) queue;
          incr arrived;
          if Queue.length queue > !max_queue then max_queue := Queue.length queue;
          dispatch ();
          if not (stopping ()) then Engine.schedule engine ~delay:(iat ()) arrive
        end)
  in
  Engine.schedule engine ~delay:(iat ()) arrive;
  span Engine (fun () -> Engine.run engine);
  Option.iter
    (fun (h : Seg_store.handle) -> span Store (fun () -> h.Seg_store.finalize ()))
    !fhandle;
  span Soak (fun () -> pump ~op:(-1) ~final:true);
  let verdict = span Window_check (fun () -> Wc.finish wc) in
  let m = Wc.metrics wc in
  (* The quantiles [Soak.run] takes before it returns. *)
  let lat, wait_p999 =
    span Soak (fun () ->
        ( {
            query = Stats.percentiles lat_q;
            update = Stats.percentiles lat_u;
            all = Stats.percentiles lat_all;
          },
          (Stats.percentiles waits).Stats.q999 ))
  in
  let o =
    soak_outcome ~cfg ~verdict ~arrived:!arrived ~completed:!completed
      ~messages:(Store.messages_sent store) ~events:(Engine.executed engine)
      ~lat ~wc:m
  in
  Option.iter count_fault fault;
  Option.iter count_rstore !rhandle;
  Option.iter count_seg !fhandle;
  count_wc m verdict;
  set "soak.queue_wait_p999_vt" wait_p999;
  count "soak.max_queue" !max_queue;
  o

(* ---------------------------------------------------------------- *)
(* Closed-loop runs                                                   *)

(* Number of operations a program executes.  The counter and mixed
   programs used here execute the same operations whatever they
   read. *)
let n_ops (m : Prog.mprog) =
  let n = ref 0 in
  ignore
    (Prog.run m.Prog.prog
       ~read:(fun _ ->
         incr n;
         Value.Int 0)
       ~write:(fun _ _ -> incr n));
  !n

(* Client-level latency of a closed-loop run, from the recorded
   history: a client m-operation is one history m-operation, or, when
   the router split it over shards, a run of consecutive ones of the
   same process whose operations add up to the program's. *)
let history_latency h (progs : Prog.mprog array array) samples =
  let per_proc = Array.make n_procs [] in
  List.iter
    (fun (m : Mop.t) -> per_proc.(m.Mop.proc) <- m :: per_proc.(m.Mop.proc))
    (History.real_mops h);
  let ok = ref true in
  Array.iteri
    (fun proc rev ->
      let rest = ref (List.rev rev) in
      Array.iter
        (fun m ->
            let want = n_ops m in
            let rec take got first =
              match !rest with
              | [] -> ok := false
              | (x : Mop.t) :: tl ->
                rest := tl;
                let got = got + List.length x.Mop.ops in
                let first = match first with None -> Some x | f -> f in
                if got < want then take got first
                else begin
                  if got > want then ok := false;
                  match first with
                  | Some f ->
                    Samples.add samples ~is_query:(Prog.is_query m)
                      (x.Mop.resp - f.Mop.inv)
                  | None -> ()
                end
            in
            take 0 None)
        progs.(proc);
      if !rest <> [] then ok := false)
    per_proc;
  !ok

(* The closed-loop client loop of [Runner.run] / [Shard_runner.run],
   with spans.  Same draws from the same streams in the same order. *)
let closed_loop_traced ~engine ~store ~client_rngs ~(cfg : Runner.config)
    ~workload =
  let open Trace in
  let completed = ref 0 in
  let rec step proc i () =
    if i < cfg.Runner.ops_per_proc then begin
      let op = (proc * cfg.Runner.ops_per_proc) + i in
      let m = span ~op Workload (fun () -> workload client_rngs.(proc) ~proc ~step:i) in
      span ~op Store (fun () ->
          Store.invoke store ~proc m ~k:(fun _result ->
              incr completed;
              let think =
                Rng.int_range client_rngs.(proc) ~lo:cfg.Runner.think_lo
                  ~hi:cfg.Runner.think_hi
              in
              Engine.schedule engine ~delay:think (step proc (i + 1))))
    end
  in
  span Setup (fun () ->
      for proc = 0 to cfg.Runner.n_procs - 1 do
        let start =
          Rng.int_range client_rngs.(proc) ~lo:cfg.Runner.think_lo
            ~hi:cfg.Runner.think_hi
        in
        Engine.schedule engine ~delay:start (step proc 0)
      done);
  span Engine (fun () -> Engine.run engine);
  !completed

(* ---- shard-seg-verify ---- *)

let shard_verdict_problems (v : Check_sharded.t) =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iter
    (fun (s : Check_sharded.shard_verdict) ->
      if not (is_admissible s.Check_sharded.result) then
        note "shard %d: %s" s.Check_sharded.shard (result_word s.Check_sharded.result))
    v.Check_sharded.per_shard;
  if not (Check_sharded.admissible v) then
    note "stitched: %s" (result_word v.Check_sharded.stitched);
  if not v.Check_sharded.agree then note "stitched and batch verdicts disagree";
  if not v.Check_sharded.composes then note "per-shard verdicts do not compose";
  List.rev !problems

(* Totals over the independent runs of a closed-loop workload: the
   sub-runs of shard-seg-verify, the plans of chaos-rmsc.  A run with a
   failed check counts all its m-operations as failed. *)
type runs = {
  what : string;  (** "run" or "plan", for the messages *)
  mutable r_attempted : int;
  mutable r_completed : int;
  mutable r_failed : int;
  mutable r_messages : int;
  mutable r_events : int;
  mutable r_failed_seeds : int list;
  mutable r_problems : string list;
  r_samples : Samples.t;
  r_extra : (string, int) Hashtbl.t;
}

let runs what =
  {
    what;
    r_attempted = 0;
    r_completed = 0;
    r_failed = 0;
    r_messages = 0;
    r_events = 0;
    r_failed_seeds = [];
    r_problems = [];
    r_samples = Samples.create ();
    r_extra = Hashtbl.create 4;
  }

let note_extra t name n =
  Hashtbl.replace t.r_extra name
    (n + Option.value ~default:0 (Hashtbl.find_opt t.r_extra name))

let note_run t ~(cfg : Runner.config) ~seed ~completed ~messages ~events
    problems =
  let attempted = cfg.Runner.n_procs * cfg.Runner.ops_per_proc in
  t.r_attempted <- t.r_attempted + attempted;
  t.r_completed <- t.r_completed + completed;
  t.r_messages <- t.r_messages + messages;
  t.r_events <- t.r_events + events;
  if problems <> [] then begin
    t.r_failed <- t.r_failed + attempted;
    t.r_failed_seeds <- seed :: t.r_failed_seeds;
    t.r_problems <-
      List.rev_map (Printf.sprintf "%s seed %d: %s" t.what seed) problems
      @ t.r_problems
  end

let note_raised t ~cfg ~seed e =
  note_run t ~cfg ~seed ~completed:0 ~messages:0 ~events:0
    [ "run raised " ^ Printexc.to_string e ]

let runs_outcome t =
  {
    attempted = t.r_attempted;
    completed = t.r_completed;
    failed = t.r_failed;
    messages = t.r_messages;
    events = t.r_events;
    lat = Samples.lat t.r_samples;
    verdict =
      (match t.r_failed_seeds with
      | [] -> Printf.sprintf "every %s passes" t.what
      | seeds ->
        Printf.sprintf "failed %s seeds %s" t.what
          (String.concat "," (List.rev_map string_of_int seeds)));
    problems = List.rev t.r_problems;
    extra =
      List.sort compare
        (Hashtbl.fold (fun k n acc -> (k, I n) :: acc) t.r_extra []);
  }

let regroup_problem grouped =
  if grouped then [] else [ "stitched history does not regroup into client m-operations" ]

let completion_problem ~(cfg : Runner.config) completed =
  let attempted = cfg.Runner.n_procs * cfg.Runner.ops_per_proc in
  if completed = attempted then []
  else [ Printf.sprintf "%d of %d m-operations completed" completed attempted ]

let shard_run ~cfg ~placement ~runs:sub_runs =
  let t = runs "run" in
  List.iter
    (fun (seed, progs) ->
      match
        let res = Shard_runner.run ~seed ~placement cfg ~workload:(replay progs) in
        (res, Shard_runner.check res ~flavour:History.Msc)
      with
      | exception e -> note_raised t ~cfg ~seed e
      | res, v ->
        let history = res.Shard_runner.stitched.Shard_recorder.history in
        let mine = Samples.create () in
        let grouped = history_latency history progs mine in
        let consistent =
          List.length mine.Samples.q = res.Shard_runner.query_latency.Stats.count
          && List.length mine.Samples.u = res.Shard_runner.update_latency.Stats.count
        in
        Samples.append t.r_samples mine;
        note_extra t "router_cross_shard" res.Shard_runner.router.Router.cross_shard;
        note_extra t "stitched_mops" (History.n_mops history - 1);
        note_run t ~cfg ~seed ~completed:res.Shard_runner.completed
          ~messages:res.Shard_runner.messages ~events:res.Shard_runner.events
          (completion_problem ~cfg res.Shard_runner.completed
          @ regroup_problem grouped
          @ (if consistent then []
             else [ "history latency counts differ from the runner's" ])
          @ shard_verdict_problems v))
    sub_runs;
  runs_outcome t

let link_edges order =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] order

let same_shape a b =
  match (a, b) with
  | Check_constrained.Admissible _, Check_constrained.Admissible _
  | Check_constrained.Not_legal _, Check_constrained.Not_legal _
  | Check_constrained.Constraint_violated, Check_constrained.Constraint_violated
  | Check_constrained.Cyclic, Check_constrained.Cyclic
  | Check_constrained.Extended_cyclic, Check_constrained.Extended_cyclic ->
    true
  | _ -> false

(* [Shard_runner.run] then [Shard_runner.check], re-driven. *)
let shard_traced_run ~cfg ~seed ~placement ~progs =
  let open Trace in
  let engine, client_rngs, sharded =
    span Setup (fun () ->
        let engine = Engine.create () in
        let rng = Rng.create seed in
        let store_rng = Rng.split rng in
        let client_rngs = Array.init n_procs (fun _ -> Rng.split rng) in
        let sharded = Shard_store.create cfg engine ~placement ~rng:store_rng in
        (engine, client_rngs, sharded))
  in
  let store = Shard_store.store sharded in
  let completed =
    closed_loop_traced ~engine ~store ~client_rngs ~cfg ~workload:(replay progs)
  in
  let fastpath = Shard_store.fastpath sharded in
  Array.iter
    (Option.iter (fun (h : Seg_store.handle) ->
         span Store (fun () -> h.Seg_store.finalize ())))
    fastpath;
  let recorders = Shard_store.recorders sharded in
  (* [Shard_runner.run] stitches once for its result ... *)
  let stitched = span History (fun () -> Shard_recorder.stitch placement recorders) in
  let router = Router.stats (Shard_store.router sharded) in
  (* ... and [Check_sharded.check] checks each shard, stitches again,
     checks the stitched history and runs the batch oracle. *)
  let per_shard =
    Array.mapi
      (fun s recorder ->
        let history, _, sync_order =
          span History (fun () -> Recorder.to_history_full recorder)
        in
        span Check_sharded (fun () ->
            let inc = Check_constrained.Incremental.create (History.n_mops history) in
            Check_constrained.Incremental.add_edges inc
              (History.base_edges history History.Msc);
            Check_constrained.Incremental.add_edges inc (link_edges sync_order);
            {
              Check_sharded.shard = s;
              mops = History.n_mops history - 1;
              result = Check_constrained.Incremental.check inc history Constraints.WW;
            }))
      recorders
  in
  let st = span History (fun () -> Shard_recorder.stitch placement recorders) in
  let stitched_v =
    span Check_sharded (fun () -> Check_sharded.check_stitched st ~flavour:History.Msc)
  in
  let batch =
    span Oracle (fun () ->
        Check_constrained.check_relation st.Shard_recorder.history
          (Check_sharded.stitched_relation st ~flavour:History.Msc)
          Constraints.WW)
  in
  let v =
    {
      Check_sharded.per_shard;
      stitched = stitched_v;
      batch = Some batch;
      agree = same_shape stitched_v batch;
      composes =
        Array.for_all (fun s -> is_admissible s.Check_sharded.result) per_shard
        = is_admissible stitched_v;
    }
  in
  (engine, store, completed, stitched, router, fastpath, v)

let shard_traced ~cfg ~placement ~runs:sub_runs =
  let t = runs "run" in
  List.iter
    (fun (seed, progs) ->
      match shard_traced_run ~cfg ~seed ~placement ~progs with
      | exception e -> note_raised t ~cfg ~seed e
      | engine, store, completed, stitched, router, fastpath, v ->
        let history = stitched.Shard_recorder.history in
        let grouped = history_latency history progs t.r_samples in
        Array.iter (Option.iter count_seg) fastpath;
        count "router.cross_shard" router.Router.cross_shard;
        note_extra t "router_cross_shard" router.Router.cross_shard;
        note_extra t "stitched_mops" (History.n_mops history - 1);
        note_run t ~cfg ~seed ~completed ~messages:(Store.messages_sent store)
          ~events:(Engine.executed engine)
          (completion_problem ~cfg completed
          @ regroup_problem grouped
          @ shard_verdict_problems v))
    sub_runs;
  runs_outcome t

(* ---- chaos-rmsc ---- *)

(* The three oracles of [mmc chaos] over one plan's run. *)
let chaos_problems ~plan ~(res : Runner.result) ~(handle : Rstore.handle)
    ~check =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let wipes = List.length (Fault.wipes plan) in
  if not (handle.Rstore.converged ()) then note "replicas diverged";
  if not (is_admissible check) then
    note "trace not admissible (%s)" (result_word check);
  if res.Runner.completed <> n_procs * 50 then
    note "completed %d m-operations, expected %d" res.Runner.completed (n_procs * 50);
  if handle.Rstore.recoveries () <> wipes then
    note "%d recoveries for %d wipe-crashes" (handle.Rstore.recoveries ()) wipes;
  (match res.Runner.fault with
  | Some f when (Fault.counts f).Fault.restarts <> wipes ->
    note "%d restarts for %d wipe-crashes" (Fault.counts f).Fault.restarts wipes
  | _ -> ());
  List.rev !problems

let chaos_run ~plans =
  let t = runs "plan" in
  Array.iter
    (fun (seed, plan) ->
      let cfg = chaos_config plan in
      match Runner.run ~seed cfg ~workload:(Gen.mixed chaos_spec) with
      | exception e -> note_raised t ~cfg ~seed e
      | res ->
        let nq, nu = Samples.add_history t.r_samples res.Runner.history in
        let consistent =
          nq = res.Runner.query_latency.Stats.count
          && nu = res.Runner.update_latency.Stats.count
        in
        note_run t ~cfg ~seed ~completed:res.Runner.completed
          ~messages:res.Runner.messages ~events:res.Runner.events
          ((if consistent then []
            else [ "history latency counts differ from the runner's" ])
          @
          match res.Runner.recovery with
          | None -> [ "no recovery handle" ]
          | Some handle -> (
            match Runner.check_trace res ~flavour:History.Msc with
            | exception e -> [ "check raised " ^ Printexc.to_string e ]
            | check -> chaos_problems ~plan ~res ~handle ~check)))
    plans;
  runs_outcome t

(* [Runner.run] then the oracles, re-driven per plan. *)
let chaos_traced ~plans =
  let open Trace in
  let t = runs "plan" in
  Array.iter
    (fun (seed, plan) ->
      let cfg = chaos_config plan in
      match
        let engine, recorder, client_rngs, fault, store, handle =
          span Setup (fun () ->
              let engine = Engine.create () in
              let rng = Rng.create seed in
              let recorder = Recorder.create ~n_objects:cfg.Runner.n_objects in
              let store_rng = Rng.split rng in
              let client_rngs = Array.init n_procs (fun _ -> Rng.split rng) in
              Fault.validate ~n:n_procs plan;
              let fault =
                if Fault.is_none plan then None
                else Some (Fault.create plan ~rng:(Rng.split rng))
              in
              let handle = ref None in
              let store =
                Runner.make_store ?fault
                  ~sink:(fun h -> handle := Some h)
                  cfg engine ~rng:store_rng ~recorder
              in
              (engine, recorder, client_rngs, fault, store, handle))
        in
        let completed =
          closed_loop_traced ~engine ~store ~client_rngs ~cfg
            ~workload:(Gen.mixed chaos_spec)
        in
        let history, stamps, sync_order =
          span History (fun () -> Recorder.to_history_full recorder)
        in
        {
          Runner.history;
          stamps;
          sync_order;
          duration = Engine.now engine;
          messages = Store.messages_sent store;
          events = Engine.executed engine;
          completed;
          query_latency = Stats.empty_summary;
          update_latency = Stats.empty_summary;
          fault;
          recovery = !handle;
          fastpath = None;
        }
      with
      | exception e -> note_raised t ~cfg ~seed e
      | res ->
        ignore (Samples.add_history t.r_samples res.Runner.history);
        Option.iter count_fault res.Runner.fault;
        Option.iter count_rstore res.Runner.recovery;
        note_run t ~cfg ~seed ~completed:res.Runner.completed
          ~messages:res.Runner.messages ~events:res.Runner.events
          (match res.Runner.recovery with
          | None -> [ "no recovery handle" ]
          | Some handle -> (
            match
              span Check_trace (fun () ->
                  Runner.check_history res.Runner.history
                    ~sync_order:res.Runner.sync_order ~flavour:History.Msc)
            with
            | exception e -> [ "check raised " ^ Printexc.to_string e ]
            | check -> chaos_problems ~plan ~res ~handle ~check)))
    plans;
  runs_outcome t

(* ---------------------------------------------------------------- *)
(* Modes                                                              *)

let measured ~seed = function
  | Soak_in (cfg, progs) -> soak_run ~cfg ~seed ~progs
  | Shard_in (cfg, placement, runs) -> shard_run ~cfg ~placement ~runs
  | Chaos_in plans -> chaos_run ~plans

let traced ~seed = function
  | Soak_in (cfg, progs) -> soak_traced ~cfg ~seed ~progs
  | Shard_in (cfg, placement, runs) -> shard_traced ~cfg ~placement ~runs
  | Chaos_in plans -> chaos_traced ~plans

(* Fixed GC settings: with them, allocation and the peak heap of a run
   in a fresh process are exact functions of workload and seed. *)
let gc_settings () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let g = Gc.get () in
  O
    [
      ("minor_heap_words", I g.Gc.minor_heap_size);
      ("space_overhead", I g.Gc.space_overhead);
      ("word_bytes", I (Sys.word_size / 8));
    ]

let time f =
  let t0 = Trace.now () in
  let v = f () in
  (v, Trace.now () -. t0)

(* Set-up is sampled until [setup_budget] seconds have gone and at
   least [min_setups] samples exist, capped at [max_setups]: the cheap
   set-ups get many samples, so their median is steady. *)
let setup_budget = 0.2
let min_setups = 3
let max_setups = 500

let main_run ~quick ~seed w name =
  let gc = gc_settings () in
  let inputs, setup0 = time (fun () -> setup_once ~quick ~seed w) in
  let cpu0 = Sys.time () in
  let o, wall = time (fun () -> measured ~seed inputs) in
  let cpu = Sys.time () -. cpu0 in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let t0 = Trace.now () in
  let rec more acc n =
    if n >= max_setups || (n >= min_setups && Trace.now () -. t0 >= setup_budget)
    then List.rev acc
    else more (snd (time (fun () -> ignore (setup_once ~quick ~seed w))) :: acc) (n + 1)
  in
  let more = more [] 1 in
  print_json
    (O
       ([
          ("mode", S "run");
          ("workload", S name);
          ("seed", I seed);
          ("gc", gc);
          ("wall_s", F wall);
          ("cpu_s", F cpu);
          ("setup_s", L (List.map (fun s -> F s) (setup0 :: more)));
          ("peak_heap_words", I peak_words);
        ]
       @ j_outcome o))

let main_trace ~quick ~seed ~spans w name =
  let gc = gc_settings () in
  let inputs = setup_once ~quick ~seed w in
  Trace.reset ();
  let o, wall =
    time (fun () -> Trace.span Trace.Bench (fun () -> traced ~seed inputs))
  in
  let self = Trace.self in
  let completed = max 1 o.completed in
  let per_op x = x /. float_of_int completed in
  let covered = wall -. self Trace.Bench in
  let times =
    [
      ("setup.build_s", self Trace.Setup);
      ("workload.gen_s", self Trace.Workload);
      ("engine.self_s", self Trace.Engine);
      ("store.invoke_s", self Trace.Store);
      ("soak.self_s", self Trace.Soak);
      ("recorder.drain_s", self Trace.Recorder);
      ("window_check.feed_s", self Trace.Window_check);
      ("history.build_s", self Trace.History);
      ("check.trace_s", self Trace.Check_trace);
      ("check_sharded.check_s", self Trace.Check_sharded);
      ("check_sharded.oracle_s", self Trace.Oracle);
    ]
  in
  let work =
    [
      ("engine.events_per_op", per_op (float_of_int o.events));
      ("engine.alloc_words_per_op", per_op (Trace.words Trace.Engine));
      ("window_check.alloc_words_per_op", per_op (Trace.words Trace.Window_check));
      ("history.alloc_words_per_op", per_op (Trace.words Trace.History));
      ( "check.alloc_words_per_op",
        per_op
          (Trace.words Trace.Check_trace
          +. Trace.words Trace.Check_sharded
          +. Trace.words Trace.Oracle) );
    ]
  in
  Option.iter Trace.write spans;
  print_json
    (O
       ([
          ("mode", S "trace");
          ("workload", S name);
          ("seed", I seed);
          ("gc", gc);
          ("wall_s", F wall);
          ("covered_s", F covered);
          ("spans", I (Trace.spans ()));
          ( "layers",
            O
              (List.map
                 (fun (k, v) -> (k, F v))
                 (times @ work @ layer_counts ~completed:o.completed)) );
        ]
       @ j_outcome o))

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 in
  let quick = ref false and spans = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--quick", Arg.Set quick, " small sizes, for the quick test");
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE write the span log (trace mode)");
    ]
  in
  Arg.parse specs (fun m -> mode := m) "bench.exe (run|trace) --workload NAME --seed N";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("bench.exe: unknown workload " ^ !workload);
    exit 2
  | Some w -> (
    match !mode with
    | "run" -> main_run ~quick:!quick ~seed:!seed w !workload
    | "trace" -> main_trace ~quick:!quick ~seed:!seed ~spans:!spans w !workload
    | m ->
      prerr_endline ("bench.exe: unknown mode " ^ m);
      exit 2)

