(* mmc: command-line front end.

   Subcommands:
     simulate     run a protocol simulation, report stats, optionally
                  check the trace and save it
     soak         open-loop run verified by the streaming checker
     faults       run over a faulty transport and check the trace
     recover      run the recoverable store under wipe-crashes
     chaos        fuzz the recoverable store with random fault plans
     shard        run a sharded store and check the stitched history
     check        check a saved history against a consistency condition
     generate     emit a random history in the text format
     experiments  print experiment tables (see EXPERIMENTS.md)
     figures      print the paper's worked figures and their verdicts
     dot, show, stats  render or measure a saved history

   The six store-running subcommands (simulate .. shard) parse their
   common flags through one term, [run_term]. *)

open Cmdliner
open Mmc_core
module Store = Mmc_store.Store
module Runner = Mmc_store.Runner
module Rstore = Mmc_store.Rstore
module Fault = Mmc_sim.Fault
module Stats = Mmc_sim.Stats
module Rlog = Mmc_recovery.Rlog
module Window_check = Mmc_stream.Window_check
module Soak = Mmc_stream.Soak

(* --- shared argument converters --- *)

let store_kind_conv =
  let parse s =
    match Store.kind_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Fmt.str "unknown store %S (msc|rmsc|seg|mlin|central|local|causal|lock|aw)" s))
  in
  Arg.conv (parse, Store.pp_kind)

let fastpath_conv =
  let parse s =
    match Mmc_fastpath.Classify.mode_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Fmt.str "unknown fastpath mode %S (sound|off|wrong)" s))
  in
  Arg.conv (parse, Mmc_fastpath.Classify.pp_mode)

let abcast_conv =
  let parse = function
    | "sequencer" -> Ok Mmc_broadcast.Abcast.Sequencer_impl
    | "lamport" -> Ok Mmc_broadcast.Abcast.Lamport_impl
    | s -> Error (`Msg (Fmt.str "unknown abcast %S (sequencer|lamport)" s))
  in
  Arg.conv (parse, Mmc_broadcast.Abcast.pp_impl)

let flavour_conv =
  let parse = function
    | "msc" -> Ok History.Msc
    | "mnorm" -> Ok History.Mnorm
    | "mlin" -> Ok History.Mlin
    | s -> Error (`Msg (Fmt.str "unknown condition %S (msc|mnorm|mlin)" s))
  in
  Arg.conv (parse, History.pp_flavour)

let latency_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Mmc_sim.Latency.of_string s) in
  Arg.conv (parse, Mmc_sim.Latency.pp)

let fault_plan_usage =
  "fields are drop=P, spike=P:DELAY, part=FROM:UNTIL:N1+N2+.., \
   crash=NODE:AT:BACK, wipe=NODE:AT:BACK, tear=NODE:AT, rot=NODE:AT, \
   stale=NODE:AT (comma-separated; part/crash/wipe and the storage faults \
   repeatable)"

let fault_plan_conv =
  (* "drop=0.2,spike=0.05:40,part=150:400:0,crash=2:60:300" — any subset,
     comma-separated; part islands use '+'-separated node lists.  Every
     parse error names the offending token and repeats the field
     grammar: plans are typed by hand, so a bare [int_of_string]
     exception is not an acceptable diagnostic. *)
  let parse s =
    (* [field] is the whole comma-separated chunk the bad token sits
       in; quoting both pins the error to its context. *)
    let bad field what token =
      failwith
        (Fmt.str "in fault field %S: expected %s, got %S — %s" field what token
           fault_plan_usage)
    in
    let int_in field what token =
      match int_of_string_opt token with
      | Some i -> i
      | None -> bad field (what ^ " (an integer)") token
    in
    let float_in field what token =
      match float_of_string_opt token with
      | Some f -> f
      | None -> bad field (what ^ " (a number)") token
    in
    try
      let plan =
        List.fold_left
          (fun plan field ->
            match String.index_opt field '=' with
            | None ->
              failwith
                (Fmt.str "bad fault field %S (missing '=') — %s" field
                   fault_plan_usage)
            | Some i -> (
              let key = String.sub field 0 i in
              let v = String.sub field (i + 1) (String.length field - i - 1) in
              let nodes_of str =
                String.split_on_char '+' str
                |> List.map (int_in field "an island node id")
              in
              match (key, String.split_on_char ':' v) with
              | "drop", [ p ] ->
                { plan with Fault.drop = float_in field "a probability" p }
              | "spike", [ p; d ] ->
                {
                  plan with
                  Fault.spike_prob = float_in field "a probability" p;
                  spike_delay = int_in field "a spike delay" d;
                }
              | "part", [ from_; until; island ] ->
                {
                  plan with
                  Fault.partitions =
                    {
                      Fault.from_ = int_in field "a start time" from_;
                      until = int_in field "an end time" until;
                      island = nodes_of island;
                    }
                    :: plan.Fault.partitions;
                }
              | ("crash" | "wipe"), [ node; at; back ] ->
                {
                  plan with
                  Fault.crashes =
                    {
                      Fault.node = int_in field "a node id" node;
                      at = int_in field "a crash time" at;
                      back = int_in field "a restart time" back;
                      wipe = key = "wipe";
                    }
                    :: plan.Fault.crashes;
                }
              | ("tear" | "rot" | "stale"), [ node; at ] -> (
                let f =
                  {
                    Fault.node = int_in field "a node id" node;
                    at = int_in field "a fault time" at;
                  }
                in
                match key with
                | "tear" ->
                  { plan with Fault.tears = f :: plan.Fault.tears }
                | "rot" ->
                  { plan with Fault.rots = f :: plan.Fault.rots }
                | _ ->
                  {
                    plan with
                    Fault.stales = f :: plan.Fault.stales;
                  })
              | ("drop" | "spike" | "part" | "crash" | "wipe" | "tear" | "rot"
                | "stale"), _ ->
                failwith
                  (Fmt.str
                     "bad fault field %S: wrong number of ':'-separated values \
                      for %S — %s"
                     field key fault_plan_usage)
              | _ ->
                failwith
                  (Fmt.str "unknown fault key %S in field %S — %s" key field
                     fault_plan_usage)))
          Fault.none
          (String.split_on_char ',' s)
      in
      Fault.validate plan;
      Ok plan
    with
    | Failure msg -> Error (`Msg msg)
    | Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Fault.pp_plan)


let delivery_conv =
  let parse s =
    match Rstore.mode_of_string s with
    | Some m -> Ok m
    | None ->
      Error (`Msg (Fmt.str "unknown delivery mode %S (stable|optimistic)" s))
  in
  Arg.conv (parse, Rstore.pp_mode)

let scrub_conv =
  let parse = function
    | "off" -> Ok 0
    | s -> (
      match int_of_string_opt s with
      | Some i when i > 0 -> Ok i
      | _ -> Error (`Msg (Fmt.str "expected a positive interval or 'off', got %S" s)))
  in
  let pp ppf = function 0 -> Fmt.string ppf "off" | i -> Fmt.int ppf i in
  Arg.conv (parse, pp)

let crc_conv =
  let parse = function
    | "on" -> Ok true
    | "off" -> Ok false
    | s -> Error (`Msg (Fmt.str "expected 'on' or 'off', got %S" s))
  in
  let pp ppf b = Fmt.string ppf (if b then "on" else "off") in
  Arg.conv (parse, pp)

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* --- the shared run configuration --- *)

(* Print "mmc: CMD: message" and exit 124, cmdliner's code for a
   command-line error.  Bad flag values end here, the message naming
   the flag, before anything runs. *)
let cli_error ~cmd fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "mmc: %s: %s@." cmd msg;
      exit 124)
    fmt

let require_positive ~cmd pairs =
  List.iter
    (fun (name, v) -> if v < 1 then cli_error ~cmd "%s must be >= 1" name)
    pairs

let require_ratio ~cmd pairs =
  List.iter
    (fun (name, r) ->
      if not (r >= 0.0 && r <= 1.0) then
        cli_error ~cmd "%s must be in [0, 1], got %g" name r)
    pairs

(* --fastpath: the seg store's classifier mode. *)
let fastpath_term =
  Arg.(
    value
    & opt fastpath_conv Mmc_fastpath.Classify.Sound
    & info [ "fastpath" ] ~docv:"MODE"
        ~doc:
          "The seg store's commutativity classifier: $(b,sound) (default; \
           ownership rule), $(b,off) (everything sequenced — the \
           broadcast-always A/B baseline) or $(b,wrong) (deliberately \
           unsound, to demonstrate the Theorem-7 oracle catching it).")

(* --batch / --flush-every / --fanout: broadcast-layer batching and
   tree dissemination. *)
let batch_term ~cmd =
  let size =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Sequencer-side batching: one ordered wire message carries up to \
             $(docv) stamped updates (default 1 = unbatched).  Batching \
             changes only the wire framing, never the delivered order.")
  in
  let flush_every =
    Arg.(
      value & opt int 0
      & info [ "flush-every" ] ~docv:"D"
          ~doc:
            "Flush a partial batch $(docv) time units after its first entry \
             (default 0 = at the end of the current simulation instant).")
  in
  let fanout =
    Arg.(
      value & opt int 0
      & info [ "fanout" ] ~docv:"F"
          ~doc:
            "Disseminate ordered messages along a complete $(docv)-ary tree \
             rooted at the stamping node instead of a flat fan-out (default \
             0 = flat); for the lamport broadcast this also replaces the \
             all-to-all acknowledgements with a convergecast.")
  in
  let make size flush_every fanout =
    try Mmc_broadcast.Batch.make ~size ~flush_every ~fanout ()
    with Invalid_argument msg -> cli_error ~cmd "%s" msg
  in
  Term.(const make $ size $ flush_every $ fanout)

(* --rto / --max-rto / --max-retries: the reliable channel layer's
   retry budget; [None] when every knob is left at its default so the
   runner keeps using [Reliable.default_config] internally. *)
let reliable_term ~cmd =
  let d = Mmc_sim.Reliable.default_config in
  let knob name ~docv ~doc =
    Arg.(value & opt (some int) None & info [ name ] ~docv ~doc)
  in
  let rto =
    knob "rto" ~docv:"T"
      ~doc:
        (Fmt.str
           "Initial retransmission timeout of the reliable channel layer \
            used by $(b,%s) (default %d virtual-time units)."
           cmd d.Mmc_sim.Reliable.rto)
  in
  let max_rto =
    knob "max-rto" ~docv:"T"
      ~doc:
        (Fmt.str "Retransmission backoff cap (default %d)."
           d.Mmc_sim.Reliable.max_rto)
  in
  let max_retries =
    knob "max-retries" ~docv:"N"
      ~doc:
        (Fmt.str
           "Retransmissions per message before the channel gives up; \
            abandoned messages are reported in the fault counters (default \
            %d)."
           d.Mmc_sim.Reliable.max_retries)
  in
  let make rto max_rto max_retries =
    match (rto, max_rto, max_retries) with
    | None, None, None -> None
    | _ ->
      Some
        {
          d with
          Mmc_sim.Reliable.rto = Option.value rto ~default:d.rto;
          max_rto = Option.value max_rto ~default:d.max_rto;
          max_retries = Option.value max_retries ~default:d.max_retries;
        }
  in
  Term.(const make $ rto $ max_rto $ max_retries)

(* --heartbeat-every / --suspect-after: failure-detector tuning for the
   rmsc broadcast; [None] when both knobs are default so the runner
   keeps using [Detector.default_config] internally. *)
let detector_term ~cmd =
  let d = Mmc_sim.Detector.default_config in
  let heartbeat_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "heartbeat-every" ] ~docv:"T"
          ~doc:
            (Fmt.str
               "Failure-detector heartbeat period of the rmsc broadcast \
                (default %d virtual-time units)."
               d.Mmc_sim.Detector.heartbeat_every))
  in
  let suspect_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "suspect-after" ] ~docv:"T"
          ~doc:
            (Fmt.str
               "Suspect a peer after this long without heartbeat evidence \
                (default %d).  Too close to the latency bound and false \
                suspicions become routine; the protocol stays safe either \
                way."
               d.Mmc_sim.Detector.suspect_after))
  in
  let make heartbeat_every suspect_after =
    match (heartbeat_every, suspect_after) with
    | None, None -> None
    | _ ->
      let c =
        {
          Mmc_sim.Detector.heartbeat_every =
            Option.value heartbeat_every ~default:d.heartbeat_every;
          suspect_after = Option.value suspect_after ~default:d.suspect_after;
        }
      in
      (try Mmc_sim.Detector.validate_config c
       with Invalid_argument msg -> cli_error ~cmd "%s" msg);
      Some c
  in
  Term.(const make $ heartbeat_every $ suspect_after)

let delivery_arg =
  Arg.(
    value
    & opt delivery_conv Rstore.Stable
    & info [ "delivery" ] ~docv:"MODE"
        ~doc:
          "Delivery rule of the rmsc store: $(b,stable) applies an update \
           only once a majority quorum acknowledged its stamp (the \
           default); $(b,optimistic) applies on first delivery and can \
           expose the epoch-change divergence anomaly.")

(* Storage-integrity knobs of the rmsc store's durable layer. *)

let scrub_arg =
  Arg.(
    value
    & opt scrub_conv Rlog.default_policy.scrub_every
    & info [ "scrub" ] ~docv:"T"
        ~doc:
          (Fmt.str
             "Background CRC scrub pass period in virtual time, or $(b,off) \
              to disable scrubbing (default %d).  Scrubbing finds bit-rot \
              before the data is needed and repairs it from peers."
             Rlog.default_policy.scrub_every))

let crc_arg =
  Arg.(
    value & opt crc_conv true
    & info [ "crc" ] ~docv:"on|off"
        ~doc:
          "Storage integrity checking: $(b,on) (default) detects, \
           quarantines and repairs damaged frames; $(b,off) trusts the \
           medium, so injected corruption silently becomes holes — expect \
           the oracles to catch the resulting divergence.")

(* What a store-running subcommand gets from the shared flags. *)
type run = {
  cfg : Runner.config;
  spec : Mmc_workload.Spec.t;  (** workload over [cfg]'s objects *)
  seed : int;
}

let all_stores_doc =
  "Store protocol: msc, rmsc, seg, mlin, central, local, causal, lock or aw."

(* [run_term ~cmd ~objects ()] parses the shared run flags of
   subcommand [cmd] and validates them once.  Every such command takes
   --procs, --objects (default [objects]), --abcast, --latency, --seed
   and the batch trio; the optional arguments pick the other flag
   groups, and their defaults, that the command accepts:
   - [store]: [`Flag doc] for --store, or [`Fixed kind];
   - [ops]: --ops with this default (absent: the runner's default);
   - [read_ratio]: --read-ratio;  [fastpath]: --fastpath;
   - [plan]: --plan with this default, its doc ending in the note;
   - [reliable]: --rto, --max-rto, --max-retries;
   - [rstore]: --delivery, --heartbeat-every, --suspect-after,
     --scrub, --crc;  [checkpoint]: --checkpoint-every.
   An absent flag leaves its [Runner.default_config] value. *)
let run_term ~cmd ?(store = `Flag all_stores_doc) ~objects ?ops
    ?(read_ratio = false) ?(fastpath = false) ?plan ?(reliable = false)
    ?(rstore = false) ?(checkpoint = false) () =
  let d = Runner.default_config in
  let group on term default = if on then term else Term.const default in
  let kind =
    match store with
    | `Fixed k -> Term.const k
    | `Flag doc ->
      Arg.(
        value
        & opt store_kind_conv d.kind
        & info [ "store" ] ~docv:"STORE" ~doc)
  in
  let procs =
    Arg.(
      value & opt int d.n_procs
      & info [ "procs" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let objects =
    Arg.(
      value & opt int objects
      & info [ "objects" ] ~docv:"N" ~doc:"Number of shared objects.")
  in
  let ops =
    match ops with
    | None -> Term.const d.ops_per_proc
    | Some n ->
      Arg.(
        value & opt int n
        & info [ "ops" ] ~docv:"N" ~doc:"m-operations per process.")
  in
  let read_ratio =
    group read_ratio
      Arg.(
        value
        & opt float Mmc_workload.Spec.default.read_ratio
        & info [ "read-ratio" ] ~docv:"R" ~doc:"Query fraction.")
      Mmc_workload.Spec.default.read_ratio
  in
  let abcast =
    Arg.(
      value
      & opt abcast_conv d.abcast_impl
      & info [ "abcast" ] ~docv:"IMPL"
          ~doc:"Atomic broadcast: sequencer or lamport.")
  in
  let latency =
    Arg.(
      value
      & opt latency_conv d.latency
      & info [ "latency" ] ~docv:"MODEL" ~doc:"Latency model.")
  in
  let plan =
    match plan with
    | None -> Term.const d.fault
    | Some (default, note) ->
      Arg.(
        value
        & opt fault_plan_conv default
        & info [ "plan" ] ~docv:"PLAN"
            ~doc:(Fmt.str "Fault plan: %s.  %s" fault_plan_usage note))
  in
  let checkpoint_every =
    group checkpoint
      Arg.(
        value
        & opt int d.recovery.checkpoint_every
        & info [ "checkpoint-every" ] ~docv:"N"
            ~doc:"Take a replica snapshot every $(docv) applied positions.")
      d.recovery.checkpoint_every
  in
  let make kind procs objects ops read_ratio abcast latency seed batch fastpath
      plan reliable delivery detector checkpoint_every scrub_every crc =
    require_positive ~cmd
      [
        ("--procs", procs);
        ("--objects", objects);
        ("--ops", ops);
        ("--checkpoint-every", checkpoint_every);
      ];
    require_ratio ~cmd [ ("--read-ratio", read_ratio) ];
    (* the converter validates the plan in isolation; node ids can
       only be range-checked against --procs here *)
    (try Fault.validate ~n:procs plan
     with Invalid_argument msg -> cli_error ~cmd "%s" msg);
    {
      cfg =
        {
          d with
          n_procs = procs;
          n_objects = objects;
          ops_per_proc = ops;
          kind;
          abcast_impl = abcast;
          latency;
          fault = plan;
          reliable;
          recovery = { d.recovery with checkpoint_every; scrub_every; crc };
          delivery;
          detector;
          batch;
          fastpath;
        };
      spec = { Mmc_workload.Spec.default with n_objects = objects; read_ratio };
      seed;
    }
  in
  Term.(
    const make $ kind $ procs $ objects $ ops $ read_ratio $ abcast $ latency
    $ seed $ batch_term ~cmd
    $ group fastpath fastpath_term d.fastpath
    $ plan
    $ group reliable (reliable_term ~cmd) d.reliable
    $ group rstore delivery_arg d.delivery
    $ group rstore (detector_term ~cmd) d.detector
    $ checkpoint_every
    $ group rstore scrub_arg d.recovery.scrub_every
    $ group rstore crc_arg d.recovery.crc)

(* --- shared report helpers --- *)

let save_arg ~doc =
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

(* --save: write [h] in the text format and say so. *)
let save_history ?(label = "history saved  ") save h =
  Option.iter
    (fun path ->
      Codec.to_file h path;
      Fmt.pr "%s %s@." label path)
    save

(* The fault injector's counter block: [faults] prints every counter,
   [recover] the short form with the restart count. *)
let print_fault_counts ~long = function
  | None -> Fmt.pr "faults          none injected (empty plan)@."
  | Some f ->
    let c = Fault.counts f in
    Fmt.pr "dropped         %d (loss %d, partition %d, crashed %d)@."
      (Fault.dropped f) c.Fault.loss c.Fault.partitioned c.Fault.crashed;
    if long then Fmt.pr "spikes          %d@." c.Fault.spikes;
    Fmt.pr "retransmits     %d (given up %d)@." c.Fault.retransmissions
      c.Fault.abandoned;
    if long then begin
      Fmt.pr "acks            %d@." c.Fault.acks;
      Fmt.pr "dups suppressed %d@." c.Fault.duplicates;
      Fmt.pr "delivery delay  %a@." Stats.pp_summary (Fault.delivery_delay f);
      Fmt.pr "recovery time   %d@." (Fault.recovery_time f)
    end
    else Fmt.pr "restarts        %d@." c.Fault.restarts

(* The same counters on one line ([shard], [chaos --verbose]). *)
let pp_fault_brief ppf f =
  let c = Fault.counts f in
  Fmt.pf ppf "dropped %d, retransmits %d (given up %d)" (Fault.dropped f)
    c.Fault.retransmissions c.Fault.abandoned

(* [log_sum h f] sums field [f] of the rmsc replicas' WAL counters. *)
let log_sum (h : Rstore.handle) =
  let logs = h.Rstore.log_stats () in
  fun f -> Array.fold_left (fun acc s -> acc + f s) 0 logs

(* The Theorem-7 verdict line of a run's trace under [flavour]
   ([label] names it; default the flavour's name); [true] on PASS. *)
let theorem7_verdict ?label res ~flavour =
  let label =
    Option.value label ~default:(Fmt.str "%a" History.pp_flavour flavour)
  in
  match Runner.check_trace res ~flavour with
  | Check_constrained.Admissible _ ->
    Fmt.pr "check           %s (Theorem 7, WW): PASS@." label;
    true
  | r ->
    Fmt.pr "check           %s (Theorem 7, WW): FAIL (%a)@." label
      Check_constrained.pp_result r;
    false

let pp_detector_stats ppf (s : Mmc_sim.Detector.stats) =
  Fmt.pf ppf
    "%d beats (%d delivered), %d suspicions (%d false), %d refuted, %d doubts"
    s.Mmc_sim.Detector.beats_sent s.Mmc_sim.Detector.beats_delivered
    s.Mmc_sim.Detector.suspicions s.Mmc_sim.Detector.false_suspicions
    s.Mmc_sim.Detector.refutations s.Mmc_sim.Detector.doubts

let json_summary_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Append a one-line JSON summary object to stdout (the greppable \
           text summary line stays).")

(* --- simulate --- *)

let simulate { cfg; spec; seed } check save =
  let res = Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec) in
  Fmt.pr "store           %a@." Store.pp_kind cfg.kind;
  Fmt.pr "processes       %d@." cfg.n_procs;
  Fmt.pr "completed ops   %d@." res.Runner.completed;
  Fmt.pr "virtual time    %d@." res.Runner.duration;
  Fmt.pr "messages        %d@." res.Runner.messages;
  Fmt.pr "engine events   %d@." res.Runner.events;
  Fmt.pr "query latency   %a@." Stats.pp_summary res.Runner.query_latency;
  Fmt.pr "update latency  %a@." Stats.pp_summary res.Runner.update_latency;
  let h = res.Runner.history in
  save_history save h;
  if check then begin
    match cfg.kind with
    | Store.Causal -> (
      match Check_causal.check ~max_states:10_000_000 h with
      | Check_causal.Causal _ -> Fmt.pr "check           causal: PASS@."
      | Check_causal.Not_causal p -> Fmt.pr "check           causal: FAIL (P%d)@." p
      | Check_causal.Aborted -> Fmt.pr "check           causal: budget exhausted@.")
    | kind -> (
      let flavour = Store.flavour kind in
      match Admissible.check ~max_states:10_000_000 h flavour with
      | Admissible.Admissible _ ->
        Fmt.pr "check           %a: PASS@." History.pp_flavour flavour
      | Admissible.Not_admissible ->
        Fmt.pr "check           %a: FAIL@." History.pp_flavour flavour
      | Admissible.Aborted ->
        Fmt.pr "check           %a: budget exhausted@." History.pp_flavour
          flavour)
  end;
  0

let simulate_cmd =
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Check the trace after the run.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a protocol simulation")
    Term.(
      const simulate
      $ run_term ~cmd:"simulate" ~objects:8 ~ops:30 ~read_ratio:true ()
      $ check
      $ save_arg ~doc:"Save the history in the text format.")

(* --- check --- *)

(* The rf-closed prefix of the first [k] m-operations: readers pull in
   their writers transitively, so the restriction is well-formed. *)
let rf_closed_prefix h k =
  let keep = Hashtbl.create 64 in
  let rec pull id =
    if id > 0 && not (Hashtbl.mem keep id) then begin
      Hashtbl.add keep id ();
      List.iter
        (fun (e : History.rf_edge) -> pull e.History.writer)
        (History.rf_of_reader h id)
    end
  in
  for id = 1 to k do
    pull id
  done;
  Hashtbl.fold (fun id () acc -> id :: acc) keep []

(* Admissibility restricts to rf-closed sub-histories (drop the absent
   m-operations from the witness), so once a prefix fails every longer
   one does — binary search finds the first failing length. *)
let failing_prefix h flavour =
  let n = History.n_mops h - 1 in
  let fails k =
    let hk, _ = History.restrict h (rf_closed_prefix h k) in
    match Admissible.check ~max_states:10_000_000 hk flavour with
    | Admissible.Not_admissible -> true
    | Admissible.Admissible _ | Admissible.Aborted -> false
  in
  if n < 1 || not (fails n) then None
  else begin
    let lo = ref 1 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fails mid then hi := mid else lo := mid + 1
    done;
    Some !hi
  end

(* Streaming check: NDJSON in, windowed Theorem-7 checker over it —
   resident state stays O(window) however long the trace.  Updates
   must carry their broadcast position ("sync"); without one the
   polynomial checker has no WW constraint to work under and answers
   inconclusive. *)
let check_stream file flavour window settle =
  let ic = if file = "-" then stdin else open_in file in
  Fun.protect ~finally:(fun () -> if file <> "-" then close_in ic)
  @@ fun () ->
  let wc = ref None in
  match
    Codec.Stream.fold ic ~init:0 ~f:(fun n ~n_objects (m : Mop.t) ~rf ~sync ->
        let w =
          match !wc with
          | Some w -> w
          | None ->
            let w =
              Mmc_stream.Window_check.create ~window ~settle ~flavour
                ~n_objects ()
            in
            wc := Some w;
            w
        in
        Mmc_stream.Window_check.feed w
          {
            Mmc_stream.Window_check.proc = m.Mop.proc;
            inv = m.Mop.inv;
            resp = m.Mop.resp;
            ops = m.Mop.ops;
            reads =
              List.map
                (fun (x, wr) -> (x, Mmc_stream.Window_check.Gid wr))
                rf;
            writes =
              List.map
                (fun (x, v) ->
                  ( x,
                    (match sync with Some p -> p + 1 | None -> 0),
                    v ))
                (Mop.final_writes m);
            sync;
          };
        n + 1)
  with
  | exception Codec.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | n -> (
    match !wc with
    | None ->
      Fmt.pr "empty stream@.";
      0
    | Some w ->
      let verdict = Mmc_stream.Window_check.finish w in
      let m = Mmc_stream.Window_check.metrics w in
      Fmt.pr "%d m-operations streamed (window %d, %d epoch checks, %d \
              retired, %d words resident)@."
        n window m.Mmc_stream.Window_check.checks
        m.Mmc_stream.Window_check.retired
        m.Mmc_stream.Window_check.max_resident_words;
      (match verdict with
      | Mmc_stream.Window_check.Pass ->
        Fmt.pr "%a: PASS@." History.pp_flavour flavour;
        0
      | Mmc_stream.Window_check.Fail { prefix; reason } ->
        Fmt.pr "%a: FAIL (first %d m-operations: %s)@." History.pp_flavour
          flavour prefix reason;
        1
      | Mmc_stream.Window_check.Inconclusive reason ->
        Fmt.pr "%a: inconclusive: %s@." History.pp_flavour flavour reason;
        2))

let check_history file flavour single stream window settle =
  if stream then check_stream file flavour window settle
  else
  match Codec.of_file file with
  | exception Codec.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | exception History.Ill_formed msg ->
    Fmt.epr "ill-formed history: %s@." msg;
    1
  | h ->
    Fmt.pr "%d m-operations over %d objects@." (History.n_mops h - 1)
      (History.n_objects h);
    if single then begin
      match Check_single.check h with
      | Check_single.Linearizable w ->
        Fmt.pr "single-object polynomial check: linearizable@.witness: %a@."
          Sequential.pp w;
        0
      | Check_single.Not_linearizable ->
        Fmt.pr "single-object polynomial check: NOT linearizable@.";
        1
      | Check_single.Not_single_object ->
        Fmt.epr "history is not single-object; use --condition instead@.";
        2
    end
    else begin
      match Admissible.check ~max_states:10_000_000 h flavour with
      | Admissible.Admissible w ->
        Fmt.pr "%a: PASS@.witness: %a@." History.pp_flavour flavour
          Sequential.pp w;
        0
      | Admissible.Not_admissible ->
        (match failing_prefix h flavour with
        | Some k ->
          Fmt.pr "%a: FAIL (first %d m-operations already inadmissible)@."
            History.pp_flavour flavour k
        | None -> Fmt.pr "%a: FAIL@." History.pp_flavour flavour);
        1
      | Admissible.Aborted ->
        Fmt.pr "%a: state budget exhausted@." History.pp_flavour flavour;
        2
    end

let check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"History file (\"-\" for stdin with --stream).")
  in
  let flavour =
    Arg.(
      value
      & opt flavour_conv History.Mlin
      & info [ "condition" ] ~docv:"COND" ~doc:"msc, mnorm or mlin.")
  in
  let single =
    Arg.(
      value & flag
      & info [ "single" ]
          ~doc:"Use the polynomial single-object linearizability checker.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Treat $(docv) as an NDJSON stream (\"-\" for stdin) and check \
             it with the windowed streaming checker — O(window) resident \
             state, any trace length.  Updates must carry broadcast \
             positions.")
  in
  let window =
    Arg.(
      value
      & opt int Mmc_stream.Window_check.default_window
      & info [ "window" ] ~docv:"W"
          ~doc:"Streaming window size (with --stream).")
  in
  let settle =
    Arg.(
      value
      & opt int Mmc_stream.Window_check.default_settle
      & info [ "settle" ] ~docv:"S"
          ~doc:"Streaming settle grace (with --stream).")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a saved history")
    Term.(
      const check_history $ file $ flavour $ single $ stream $ window
      $ settle)

(* --- generate --- *)

let generate family n_procs n_objects n_mops seed out stream =
  let h =
    match family with
    | "legal" ->
      Mmc_workload.Histories.legal_random ~seed ~n_procs ~n_objects ~n_mops
        ~max_len:3 ~read_ratio:0.5 ()
    | "register" ->
      Mmc_workload.Histories.random_register ~seed ~n_procs ~n_objects ~n_mops
        ~write_ratio:0.5 ()
    | "multi" ->
      Mmc_workload.Histories.random_multi ~seed ~n_procs ~n_objects ~n_mops
        ~max_reads:2 ~max_writes:2 ()
    | "mutated" -> (
      let h =
        Mmc_workload.Histories.legal_random ~seed ~n_procs ~n_objects ~n_mops
          ~max_len:3 ~read_ratio:0.5 ()
      in
      match Mmc_workload.Histories.perturb_rf ~seed h with
      | Some h' -> h'
      | None -> h)
    | f ->
      Fmt.epr "unknown family %S (legal|register|multi|mutated)@." f;
      exit 2
  in
  (if stream then
     (* Emit in (inv, resp) order with ids renumbered to that rank —
        the order a streaming consumer (mmc check --stream) feeds. *)
     let mops =
       List.sort
         (fun (a : Mop.t) (b : Mop.t) ->
           compare
             (a.Mop.inv, a.Mop.resp, a.Mop.id)
             (b.Mop.inv, b.Mop.resp, b.Mop.id))
         (History.real_mops h)
     in
     let remap = Hashtbl.create (List.length mops) in
     Hashtbl.add remap 0 0;
     List.iteri (fun i (m : Mop.t) -> Hashtbl.add remap m.Mop.id (i + 1)) mops;
     (* The legal family is consistent by construction with the id
        order as witness, so that order's update subsequence is a
        valid synchronization order to emit.  The other families have
        no known witness; fabricating one would impose a WW constraint
        the history was never built to satisfy. *)
     let sync_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
     if family = "legal" then begin
       let pos = ref 0 in
       List.iter
         (fun (m : Mop.t) ->
           if Mop.final_writes m <> [] then begin
             Hashtbl.add sync_of m.Mop.id !pos;
             incr pos
           end)
         (History.real_mops h)
     end;
     let rf_of = Hashtbl.create (List.length mops) in
     List.iter
       (fun (e : History.rf_edge) ->
         let prev =
           Option.value ~default:[] (Hashtbl.find_opt rf_of e.History.reader)
         in
         Hashtbl.replace rf_of e.History.reader
           ((e.History.obj, Hashtbl.find remap e.History.writer) :: prev))
       (History.rf h);
     let emit oc =
       Codec.Stream.write_header oc ~n_objects:(History.n_objects h);
       List.iteri
         (fun i (m : Mop.t) ->
           let m' =
             Mop.make ~id:(i + 1) ~proc:m.Mop.proc ~ops:m.Mop.ops ~inv:m.Mop.inv
               ~resp:m.Mop.resp
           in
           let rf =
             List.rev
               (Option.value ~default:[] (Hashtbl.find_opt rf_of m.Mop.id))
           in
           Codec.Stream.write_mop oc ?sync:(Hashtbl.find_opt sync_of m.Mop.id)
             m' ~rf)
         mops
     in
     match out with
     | Some path -> Out_channel.with_open_text path emit
     | None -> emit stdout
   else
     let text = Codec.to_string h in
     match out with
     | Some path ->
       Out_channel.with_open_text path (fun oc -> output_string oc text)
     | None -> print_string text);
  0

let generate_cmd =
  let family =
    Arg.(
      value & opt string "legal"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"legal, register, multi or mutated.")
  in
  let procs = Arg.(value & opt int 3 & info [ "procs" ] ~docv:"N") in
  let objects = Arg.(value & opt int 4 & info [ "objects" ] ~docv:"N") in
  let mops = Arg.(value & opt int 10 & info [ "mops" ] ~docv:"N") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Emit NDJSON (one m-operation per line) instead of the text \
             format, for piping traces too large to materialise.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random history")
    Term.(
      const generate $ family $ procs $ objects $ mops $ seed $ out $ stream)


(* --- soak --- *)

let pp_soak_verdict ppf = function
  | Window_check.Pass -> Fmt.string ppf "PASS"
  | Window_check.Fail { prefix; reason } ->
    Fmt.pf ppf "FAIL (first %d m-operations: %s)" prefix reason
  | Window_check.Inconclusive reason -> Fmt.pf ppf "INCONCLUSIVE (%s)" reason

let soak_verdict_word = function
  | Window_check.Pass -> "PASS"
  | Window_check.Fail _ -> "FAIL"
  | Window_check.Inconclusive _ -> "INCONCLUSIVE"

let soak_exit_code = function
  | Window_check.Pass -> 0
  | Window_check.Fail _ -> 1
  | Window_check.Inconclusive _ -> 2

(* One greppable line with everything a dashboard scrape needs. *)
let soak_summary_line ~store ~procs ~objects ~window ~completed ~duration
    ~(latency : Stats.quantiles) (wc : Window_check.metrics) verdict =
  let thr =
    if duration > 0 then 1000.0 *. float_of_int completed /. float_of_int duration
    else 0.0
  in
  Fmt.pr
    "soak summary store=%s procs=%d objects=%d ops=%d duration=%d thr=%.1f \
     p50=%.1f p99=%.1f p999=%.1f window=%d max_live=%d retired=%d checks=%d \
     resident_w=%d max_resident_w=%d recycled_w=%d verdict=%s@."
    store procs objects completed duration thr latency.q50 latency.q99
    latency.q999 window wc.max_live wc.retired wc.checks wc.resident_words
    wc.max_resident_words wc.recycled_words (soak_verdict_word verdict)

let soak { cfg = rcfg; spec; seed } shards rate ops duration window settle
    sample_every corrupt json verify_full =
  let procs = rcfg.n_procs and objects = rcfg.n_objects in
  require_positive ~cmd:"soak"
    [ ("--rate", rate); ("--window", window); ("--shards", shards) ];
  if ops <= 0 && duration = None then
    cli_error ~cmd:"soak" "need --ops and/or --duration";
  (match rcfg.kind with
  | Store.Msc | Store.Mlin | Store.Rmsc | Store.Seg -> ()
  | k ->
    cli_error ~cmd:"soak"
      "store %a has no synchronization order (use msc, mlin, rmsc or seg)"
      Store.pp_kind k);
  let store_name = Fmt.str "%a" Store.pp_kind rcfg.kind in
  if shards > 1 then begin
    (* Sharded soak: closed-loop generation (the open loop drives one
       store), then each shard's trace streams through its own
       windowed checker over a shared arena; the global stitched
       condition stays an offline check (DESIGN.md §14). *)
    if corrupt <> None || verify_full || json then
      cli_error ~cmd:"soak"
        "--corrupt/--verify-full/--json apply to the single-store soak \
         (--shards 1)";
    let total = if ops > 0 then ops else 10_000 in
    let rcfg =
      { rcfg with ops_per_proc = max 1 ((total + procs - 1) / procs) }
    in
    let placement =
      Mmc_shard.Placement.hash ~n_shards:shards ~n_objects:objects
    in
    (* every shard's windowed checker needs an object to check *)
    for s = 0 to shards - 1 do
      if Mmc_shard.Placement.size placement s = 0 then
        cli_error ~cmd:"soak"
          "--shards %d over --objects %d leaves shard %d without objects"
          shards objects s
    done;
    let res =
      Mmc_shard.Shard_runner.run ~seed ~placement rcfg
        ~workload:(Mmc_workload.Generator.sharded placement spec)
    in
    let verdicts, ms =
      Soak.verify_sharded ~window ~settle ~flavour:(Store.flavour rcfg.kind)
        res
    in
    let verdict =
      Array.fold_left
        (fun acc v -> match acc with Window_check.Pass -> v | _ -> acc)
        Window_check.Pass verdicts
    in
    let wc =
      let add (acc : Window_check.metrics) (m : Window_check.metrics) =
        {
          acc with
          fed = acc.fed + m.fed;
          retired = acc.retired + m.retired;
          checks = acc.checks + m.checks;
          max_live = max acc.max_live m.max_live;
          resident_words = acc.resident_words + m.resident_words;
          (* summed, not maxed: the shards' checkers are resident
             together, so the peak-per-shard sum bounds the total *)
          max_resident_words = acc.max_resident_words + m.max_resident_words;
          recycled_words = acc.recycled_words + m.recycled_words;
        }
      in
      match ms with m :: rest -> List.fold_left add m rest | [] -> assert false
    in
    Fmt.pr "store            %s (%d shards)@." store_name shards;
    Fmt.pr "completed ops    %d@." res.completed;
    Fmt.pr "virtual time     %d@." res.duration;
    Fmt.pr "messages         %d@." res.messages;
    Array.iteri
      (fun s v -> Fmt.pr "shard %-2d         %a@." s pp_soak_verdict v)
      verdicts;
    let q =
      (* Closed-loop generation has no arrival latency; update latency
         is the informative one (msc queries are local, latency 0).
         The summary record has no p999 — at a few hundred updates the
         max is that tail. *)
      let s = res.update_latency in
      {
        Stats.q_count = s.Stats.count;
        q50 = float_of_int s.Stats.p50;
        q99 = float_of_int s.Stats.p99;
        q999 = float_of_int s.Stats.max;
      }
    in
    soak_summary_line
      ~store:(Fmt.str "sharded-%s:%d" store_name shards)
      ~procs ~objects ~window ~completed:res.completed
      ~duration:res.duration ~latency:q wc verdict;
    soak_exit_code verdict
  end
  else begin
    let cfg =
      {
        Soak.runner = rcfg;
        rate;
        max_ops = ops;
        max_time = duration;
        window;
        settle;
        sample_every =
          (if sample_every = 0 && json then 2_000 else sample_every);
        corrupt;
        verify_full;
      }
    in
    let on_sample (s : Soak.sample) =
      if json then
        let q = s.s_interval and m = s.s_wc in
        Fmt.pr
          "{\"t\":%d,\"completed\":%d,\"queue\":%d,\"n\":%d,\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f,\"live\":%d,\"pending\":%d,\"retired\":%d,\"checks\":%d,\"resident_words\":%d,\"recycled_words\":%d}@."
          s.s_now s.s_completed s.s_queue q.q_count q.q50 q.q99 q.q999 m.live
          m.pending m.retired m.checks m.resident_words m.recycled_words
    in
    match
      Soak.run ~on_sample ~seed ~workload:(Mmc_workload.Generator.mixed spec)
        cfg
    with
    | exception Invalid_argument msg -> cli_error ~cmd:"soak" "%s" msg
    | (r : Soak.result) ->
      let m = r.wc in
      if json then begin
        (* Keep stdout pure NDJSON: the run ends with one summary
           object instead of the human report. *)
        let q = r.latency in
        Fmt.pr
          "{\"summary\":true,\"store\":\"%s\",\"ops\":%d,\"duration\":%d,\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f,\"max_queue\":%d,\"max_live\":%d,\"retired\":%d,\"checks\":%d,\"resident_words\":%d,\"max_resident_words\":%d,\"recycled_words\":%d,\"verdict\":\"%s\"}@."
          store_name r.completed r.duration q.q50 q.q99 q.q999 r.max_queue
          m.max_live m.retired m.checks m.resident_words m.max_resident_words
          m.recycled_words
          (soak_verdict_word r.verdict)
      end
      else begin
        Fmt.pr "store            %s@." store_name;
        Fmt.pr "arrived ops      %d@." r.arrived;
        Fmt.pr "completed ops    %d@." r.completed;
        Fmt.pr "virtual time     %d@." r.duration;
        Fmt.pr "messages         %d@." r.messages;
        Fmt.pr "engine events    %d@." r.events;
        Fmt.pr "latency          %a@." Stats.pp_quantiles r.latency;
        Fmt.pr "query latency    %a@." Stats.pp_quantiles r.query_latency;
        Fmt.pr "update latency   %a@." Stats.pp_quantiles r.update_latency;
        Fmt.pr "max queue        %d@." r.max_queue;
        Fmt.pr "window occupancy %d live (max %d), %d pending@." m.live
          m.max_live m.pending;
        Fmt.pr "retired prefix   %d of %d fed (%d epoch checks)@." m.retired
          m.fed m.checks;
        Fmt.pr "relation words   %d resident (max %d), %d recycled@."
          m.resident_words m.max_resident_words m.recycled_words;
        (match r.full_verdict with
        | Some fv ->
          Fmt.pr "full-trace check %s (%s)@." fv
            (match r.agreement with
            | Some true -> "windowed verdict agrees"
            | Some false -> "WINDOWED VERDICT DISAGREES"
            | None -> "no windowed verdict to compare")
        | None -> ());
        Fmt.pr "verdict          %a@." pp_soak_verdict r.verdict;
        soak_summary_line ~store:store_name ~procs ~objects ~window
          ~completed:r.completed ~duration:r.duration ~latency:r.latency m
          r.verdict
      end;
      if r.agreement = Some false then 3 else soak_exit_code r.verdict
  end

let soak_cmd =
  let int_arg name ~docv ~doc default =
    Arg.(value & opt int default & info [ name ] ~docv ~doc)
  in
  let shards =
    int_arg "shards" ~docv:"N" 1
      ~doc:
        "Shard count; above 1 the run is generated closed-loop through the \
         sharded store and each shard's trace streams through its own \
         windowed checker."
  in
  let rate =
    int_arg "rate" ~docv:"IAT" 8
      ~doc:
        "Mean inter-arrival time in virtual ticks (open-loop: arrivals are \
         independent of service latency and queue for an idle client)."
  in
  let ops =
    int_arg "ops" ~docv:"N" 0
      ~doc:"Stop after $(docv) arrivals (0 = by --duration only)."
  in
  let duration =
    Arg.(
      value
      & opt (some int) None
      & info [ "duration" ] ~docv:"T"
          ~doc:"Stop arrivals at virtual time $(docv).")
  in
  let window =
    int_arg "window" ~docv:"W" Window_check.default_window
      ~doc:"Live m-operations that trigger an epoch check."
  in
  let settle =
    int_arg "settle" ~docv:"S" Window_check.default_settle
      ~doc:
        "Virtual-time grace after a version is superseded before the \
         checker assumes no straggler still reads it."
  in
  let sample_every =
    int_arg "sample-every" ~docv:"T" 0
      ~doc:
        "Emit an observability sample every $(docv) virtual ticks (default: \
         off; 2000 with --json)."
  in
  let corrupt =
    Arg.(
      value
      & opt (some int) None
      & info [ "corrupt" ] ~docv:"N"
          ~doc:
            "Inject one stale read at roughly the $(docv)-th checked \
             m-operation — a seeded known-FAIL.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Stream observability samples as NDJSON on stdout.")
  in
  let verify_full =
    Arg.(
      value & flag
      & info [ "verify-full" ]
          ~doc:
            "Also keep the whole trace and cross-check the windowed verdict \
             against the full-trace checker (O(trace) memory).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Open-loop soak: drive a store at a target arrival rate while the \
          windowed checker verifies the trace as it streams (exit 0 PASS, 1 \
          FAIL, 2 inconclusive)")
    Term.(
      const soak
      $ run_term ~cmd:"soak"
          ~store:
            (`Flag "Store protocol: msc, mlin, rmsc or seg (broadcast-based).")
          ~objects:16 ~read_ratio:true ~fastpath:true ()
      $ shards $ rate $ ops $ duration $ window $ settle $ sample_every
      $ corrupt $ json $ verify_full)

(* --- faults --- *)

let faults { cfg; spec; seed } save =
  let res = Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec) in
  Fmt.pr "store           %a over %a@." Store.pp_kind cfg.kind
    Mmc_broadcast.Abcast.pp_impl cfg.abcast_impl;
  Fmt.pr "fault plan      %a@." Fault.pp_plan cfg.fault;
  Fmt.pr "completed ops   %d@." res.Runner.completed;
  Fmt.pr "virtual time    %d@." res.Runner.duration;
  Fmt.pr "messages        %d@." res.Runner.messages;
  Fmt.pr "update latency  %a@." Stats.pp_summary res.Runner.update_latency;
  print_fault_counts ~long:true res.Runner.fault;
  save_history save res.Runner.history;
  if theorem7_verdict res ~flavour:(Store.flavour cfg.kind) then 0 else 1

let faults_cmd =
  let plan =
    {
      Fault.none with
      drop = 0.2;
      partitions = [ { Fault.from_ = 150; until = 400; island = [ 0 ] } ];
    }
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a protocol over a faulty transport and verify the trace \
          (Theorem-7 admissibility as a fault-tolerance oracle)")
    Term.(
      const faults
      $ run_term ~cmd:"faults" ~objects:8 ~ops:20 ~fastpath:true
          ~plan:(plan, "The default drops 20% and isolates node 0 from t=150 to t=400.")
          ~reliable:true ()
      $ save_arg ~doc:"Save the history in the text format.")

(* --- recover --- *)

let recover { cfg; spec; seed } json save =
  if not (List.exists (fun c -> c.Fault.wipe) cfg.fault.crashes) then
    Fmt.epr
      "mmc: recover: note: plan has no wipe crashes; nothing exercises the \
       WAL/checkpoint restart path@.";
  let res =
    (* A run blowing up (e.g. the recorder detecting two writers of one
       version, as unchecked corruption reaching replay will cause) is
       divergence-grade evidence, reported like the chaos driver does. *)
    match Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec) with
    | res -> res
    | exception e ->
      Fmt.pr "recover         DIVERGED: run raised %s@." (Printexc.to_string e);
      Fmt.pr "fault plan      %a@." Fault.pp_plan cfg.fault;
      Fmt.pr
        "summary         converged=no admissible=no given-up=0 restarts=0 \
         repaired=0@.";
      if json then
        Fmt.pr
          "{\"cmd\":\"recover\",\"seed\":%d,\"converged\":false,\"admissible\":false,\"raised\":true}@."
          seed;
      exit 2
  in
  Fmt.pr "store           %a over %a (%a delivery)@." Store.pp_kind cfg.kind
    Mmc_broadcast.Abcast.pp_impl cfg.abcast_impl Rstore.pp_mode cfg.delivery;
  Fmt.pr "fault plan      %a@." Fault.pp_plan cfg.fault;
  Fmt.pr "completed ops   %d@." res.Runner.completed;
  Fmt.pr "virtual time    %d@." res.Runner.duration;
  Fmt.pr "messages        %d@." res.Runner.messages;
  print_fault_counts ~long:false res.Runner.fault;
  let h =
    match res.Runner.recovery with
    | None -> cli_error ~cmd:"recover" "internal error: no recovery handle"
    | Some h -> h
  in
  let sum = log_sum h in
  let converged =
    Fmt.pr "recoveries      %d@." (h.recoveries ());
    Fmt.pr "wal             %d appends, %d checkpoints, %d replayed, %d \
            truncated@."
      (sum (fun s -> s.Rlog.appends))
      (sum (fun s -> s.Rlog.checkpoints))
      (sum (fun s -> s.Rlog.replayed))
      (sum (fun s -> s.Rlog.truncated));
    Fmt.pr "storage         %d torn sectors, %d corrupt, %d silent, %d \
            repaired, %d scrubbed, %d ckpt-fallbacks, %d reclaimed@."
      (sum (fun s -> s.Rlog.torn))
      (sum (fun s -> s.Rlog.corrupt))
      (sum (fun s -> s.Rlog.silent))
      (sum (fun s -> s.Rlog.repaired))
      (sum (fun s -> s.Rlog.scrubbed))
      (sum (fun s -> s.Rlog.ckpt_fallbacks))
      (sum (fun s -> s.Rlog.reclaimed_sectors));
    Fmt.pr "catch-up        %d pulls, %d pushes (%d entries, %d snapshots)@."
      (h.pulls ()) (h.pushes ()) (h.entries_pushed ()) (h.snapshots_pushed ());
    Fmt.pr "broadcast       %a@." Mmc_broadcast.Rbcast.pp_stats
      (h.broadcast_stats ());
    (match h.detector_stats () with
    | Some d -> Fmt.pr "detector        %a@." pp_detector_stats d
    | None -> ());
    Fmt.pr "stability acks  %d@." (h.stability_acks ());
    let ok = h.converged () in
    Fmt.pr "replicas        %s@." (if ok then "converged" else "DIVERGED");
    ok
  in
  save_history save res.Runner.history;
  let admissible =
    theorem7_verdict ~label:"msc" res ~flavour:(Store.flavour cfg.kind)
  in
  (* One greppable line with the run's verdicts and the retry-budget
     exhaustion counters: [given-up] is messages the reliable layer
     abandoned after its retry budget, the usual first suspect when a
     run fails to converge under an aggressive plan. *)
  let given_up, restarts =
    match res.Runner.fault with
    | None -> (0, 0)
    | Some f ->
      let c = Fault.counts f in
      (c.Fault.abandoned, c.Fault.restarts)
  in
  Fmt.pr "summary         converged=%s admissible=%s given-up=%d restarts=%d \
          repaired=%d@."
    (if converged then "yes" else "NO")
    (if admissible then "yes" else "NO")
    given_up restarts
    (sum (fun s -> s.Rlog.repaired));
  if json then
    Fmt.pr
      "{\"cmd\":\"recover\",\"seed\":%d,\"converged\":%b,\"admissible\":%b,\"restarts\":%d,\"given_up\":%d,\"repaired\":%d,\"torn\":%d,\"corrupt\":%d,\"silent\":%d,\"scrubbed\":%d,\"ckpt_fallbacks\":%d}@."
      seed converged admissible restarts given_up
      (sum (fun s -> s.Rlog.repaired))
      (sum (fun s -> s.Rlog.torn))
      (sum (fun s -> s.Rlog.corrupt))
      (sum (fun s -> s.Rlog.silent))
      (sum (fun s -> s.Rlog.scrubbed))
      (sum (fun s -> s.Rlog.ckpt_fallbacks));
  if not converged then 2 else if not admissible then 1 else 0

let recover_cmd =
  let plan =
    {
      Fault.none with
      drop = 0.1;
      crashes =
        [
          { Fault.node = 0; at = 150; back = 600; wipe = true };
          { Fault.node = 2; at = 900; back = 1300; wipe = true };
        ];
    }
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run the recoverable store under wipe-crashes and verify \
          convergence plus Theorem-7 admissibility of the stitched \
          cross-crash history"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the rmsc store (WAL + checkpoints + anti-entropy \
              catch-up, epoch-fenced sequencer failover under the \
              sequencer broadcast) over a fault plan with wipe-crashes, \
              then checks that every replica converged to identical state \
              and that the history stitched across crash epochs is \
              Theorem-7 admissible for m-sequential consistency.";
           `P
             "Storage faults (tear=, rot=, stale= plan fields) damage the \
              simulated block devices under the WAL and checkpoints; with \
              $(b,--crc on) the damage is detected, quarantined and \
              repaired from peers (see $(b,--scrub)), with $(b,--crc off) \
              it silently corrupts recovery — which the oracles then \
              catch.";
           `P
             "Exit status: 0 when replicas converge and the history is \
              admissible, 1 when the admissibility check fails, 2 when \
              replicas did not converge.";
         ])
    Term.(
      const recover
      $ run_term ~cmd:"recover" ~store:(`Fixed Store.Rmsc) ~objects:8 ~ops:12
          ~plan:
            ( plan,
              "Wipe-crashes exercise the restart path; the default wipes \
               the initial sequencer at t=150 and node 2 at t=900." )
          ~reliable:true ~rstore:true ~checkpoint:true ()
      $ json_summary_arg
      $ save_arg ~doc:"Save the history in the text format.")

(* --- chaos --- *)

let chaos { cfg; spec; seed } plans json verbose =
  require_positive ~cmd:"chaos" [ ("--plans", plans) ];
  let procs = cfg.n_procs and ops = cfg.ops_per_proc in
  let diverged = ref 0 in
  let failed = ref 0 in
  let torn = ref 0 and corrupt = ref 0 and silent = ref 0 in
  let repaired = ref 0 and restarts = ref 0 in
  for i = 0 to plans - 1 do
    let run_seed = seed + i in
    let plan = Fault.fuzz ~rng:(Mmc_sim.Rng.create run_seed) ~n:procs in
    match
      Runner.run ~seed:run_seed { cfg with fault = plan }
        ~workload:(Mmc_workload.Generator.mixed spec)
    with
    | exception e ->
      (* A run blowing up (e.g. the recorder detecting two writers
         of one version) is divergence-grade evidence, not a
         driver crash. *)
      incr diverged;
      incr failed;
      Fmt.pr "seed %-6d FAIL  plan: %a@." run_seed Fault.pp_plan plan;
      Fmt.pr "            - run raised %s@." (Printexc.to_string e)
    | res ->
    let handle =
      match res.Runner.recovery with
      | Some h -> h
      | None -> cli_error ~cmd:"chaos" "internal error: no recovery handle"
    in
    let wipes = List.length (Fault.wipes plan) in
    let sum = log_sum handle in
    torn := !torn + sum (fun s -> s.Rlog.torn);
    corrupt := !corrupt + sum (fun s -> s.Rlog.corrupt);
    silent := !silent + sum (fun s -> s.Rlog.silent);
    repaired := !repaired + sum (fun s -> s.Rlog.repaired);
    let fault_restarts =
      Option.map (fun f -> (Fault.counts f).Fault.restarts) res.Runner.fault
    in
    restarts := !restarts + Option.value fault_restarts ~default:0;
    let problems = ref [] in
    let note fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
    (* Oracle 1: every replica converged to identical state. *)
    if not (handle.converged ()) then begin
      incr diverged;
      note "replicas DIVERGED"
    end;
    (* Oracle 2: the history stitched across crash epochs is
       Theorem-7 admissible for m-sequential consistency. *)
    (match Runner.check_trace res ~flavour:(Store.flavour cfg.kind) with
    | Check_constrained.Admissible _ -> ()
    | r -> note "trace not admissible (%a)" Check_constrained.pp_result r);
    (* Oracle 3: counter sanity — no operation lost, every
       wipe-crash restarted and completed its recovery. *)
    if res.Runner.completed <> procs * ops then
      note "completed %d ops, expected %d" res.Runner.completed (procs * ops);
    if handle.recoveries () <> wipes then
      note "%d recoveries completed for %d wipe-crashes" (handle.recoveries ())
        wipes;
    (match fault_restarts with
    | Some r when r <> wipes ->
      note "%d restarts recorded for %d wipe-crashes" r wipes
    | _ -> ());
    if !problems <> [] then begin
      incr failed;
      Fmt.pr "seed %-6d FAIL  plan: %a@." run_seed Fault.pp_plan plan;
      List.iter (fun p -> Fmt.pr "            - %s@." p) (List.rev !problems);
      if verbose then begin
        Fmt.pr "            cursors: %a@."
          Fmt.(array ~sep:sp int)
          (handle.cursors ());
        Fmt.pr "            broadcast: %a@." Mmc_broadcast.Rbcast.pp_stats
          (handle.broadcast_stats ());
        (match handle.detector_stats () with
        | Some d -> Fmt.pr "            detector: %a@." pp_detector_stats d
        | None -> ());
        Option.iter
          (Fmt.pr "            faults: %a@." pp_fault_brief)
          res.Runner.fault
      end
    end
    else if verbose then
      Fmt.pr "seed %-6d ok    t=%-6d plan: %a@." run_seed res.Runner.duration
        Fault.pp_plan plan
  done;
  let crc = cfg.recovery.crc and scrub_every = cfg.recovery.scrub_every in
  Fmt.pr "chaos           %d random plans (seeds %d..%d), %a delivery@."
    plans seed
    (seed + plans - 1)
    Rstore.pp_mode cfg.delivery;
  Fmt.pr "storage         %d torn sectors, %d corrupt, %d silent, %d \
          repaired (crc %s, scrub %s)@."
    !torn !corrupt !silent !repaired
    (if crc then "on" else "off")
    (if scrub_every = 0 then "off" else string_of_int scrub_every);
  Fmt.pr "failed          %d (%d diverged)@." !failed !diverged;
  if json then
    Fmt.pr
      "{\"cmd\":\"chaos\",\"plans\":%d,\"seed\":%d,\"failed\":%d,\"diverged\":%d,\"converged\":%b,\"admissible\":%b,\"restarts\":%d,\"repaired\":%d,\"torn\":%d,\"corrupt\":%d,\"silent\":%d,\"crc\":%b,\"scrub\":%d}@."
      plans seed !failed !diverged (!diverged = 0) (!failed = 0) !restarts
      !repaired !torn !corrupt !silent crc scrub_every;
  if !diverged > 0 then 2 else if !failed > 0 then 1 else 0

let chaos_cmd =
  let plans =
    Arg.(
      value & opt int 25
      & info [ "plans" ] ~docv:"N"
          ~doc:
            "Number of random fault plans to run; plan $(i,i) is drawn \
             deterministically from seed $(b,--seed)+$(i,i).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print one line per plan, not only failures.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fuzz the recoverable store with random fault plans and assert \
          the recovery oracles on every run"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Draws $(b,--plans) deterministic random fault plans (message \
              loss, latency spikes, a timed partition, up to two \
              crash/wipe windows — see $(b,Fault.fuzz)), runs the rmsc \
              store over each, and asserts three oracles per run: every \
              replica converged to identical state, the history stitched \
              across crash epochs is Theorem-7 admissible for \
              m-sequential consistency, and the run's counters are sane \
              (no operation lost, every wipe-crash restarted and \
              recovered).";
           `P
             "With $(b,--delivery optimistic) the store applies updates on \
              first delivery instead of waiting for quorum stability; \
              expect occasional divergence under wipe-crashes that \
              straddle an epoch change — the anomaly quorum-stable \
              delivery exists to rule out.";
           `P
             "Fuzzed plans also draw storage faults — torn writes riding \
              wipe-crash instants, bit-rot, stale-checkpoint loss — so the \
              same oracles double as an end-to-end check of CRC framing, \
              scrubbing and peer repair.  Running with $(b,--crc off) \
              $(b,--scrub off) is expected to fail: silent corruption \
              then reaches replay.";
           `P
             "Exit status: 0 when every plan passes, 2 when any run \
              diverged, 1 when only other oracle failures occurred.";
         ])
    Term.(
      const chaos
      $ run_term ~cmd:"chaos" ~store:(`Fixed Store.Rmsc) ~objects:8 ~ops:10
          ~rstore:true ()
      $ plans $ json_summary_arg $ verbose)

(* --- shard --- *)

let placement_conv =
  let parse = function
    | "hash" -> Ok `Hash
    | "rr" | "round-robin" -> Ok `Round_robin
    | s -> Error (`Msg (Fmt.str "unknown placement %S (hash|rr)" s))
  in
  let pp ppf = function
    | `Hash -> Fmt.string ppf "hash"
    | `Round_robin -> Fmt.string ppf "rr"
  in
  Arg.conv (parse, pp)

let shard { cfg; spec; seed } n_shards cross skew commute_ratio
    placement save =
  require_positive ~cmd:"shard" [ ("--shards", n_shards) ];
  require_ratio ~cmd:"shard"
    (("--cross", cross)
    :: List.map (fun r -> ("--commute-ratio", r)) (Option.to_list commute_ratio));
  let open Mmc_shard in
  let objects = cfg.n_objects in
  let placement =
    try
      match placement with
      | `Hash -> Placement.hash ~n_shards ~n_objects:objects
      | `Round_robin -> Placement.round_robin ~n_shards ~n_objects:objects
    with Invalid_argument msg -> cli_error ~cmd:"shard" "%s" msg
  in
  let spec = { spec with skew } in
  let workload =
    match commute_ratio with
    | None ->
      Mmc_workload.Generator.sharded ~cross_shard_ratio:cross placement spec
    | Some r ->
      (* Commuting-ratio counter workload: the seg store's fast path
         regime, also runnable against any other store for A/B. *)
      Mmc_workload.Generator.sharded_counter_commute ~commute_ratio:r
        ~n_procs:cfg.n_procs placement spec
  in
  let res = Shard_runner.run ~seed ~placement cfg ~workload in
  Fmt.pr "store           %a x %d shards (%a placement)@." Store.pp_kind
    cfg.kind n_shards Placement.pp placement;
  Fmt.pr "processes       %d@." cfg.n_procs;
  Fmt.pr "completed ops   %d@." res.Shard_runner.completed;
  Fmt.pr "virtual time    %d@." res.Shard_runner.duration;
  Fmt.pr "messages        %d (%a by shard)@." res.Shard_runner.messages
    Fmt.(array ~sep:(any " ") int)
    res.Shard_runner.messages_by_shard;
  Fmt.pr "engine events   %d@." res.Shard_runner.events;
  Fmt.pr "router          %a@." Router.pp_stats res.Shard_runner.router;
  Fmt.pr "query latency   %a@." Stats.pp_summary res.Shard_runner.query_latency;
  Fmt.pr "update latency  %a@." Stats.pp_summary
    res.Shard_runner.update_latency;
  Option.iter (Fmt.pr "faults          %a@." pp_fault_brief)
    res.Shard_runner.fault;
  (* One greppable line for the seg store: how much coordination the
     fast path avoided. *)
  (match cfg.kind with
  | Store.Seg ->
    let handles =
      Array.to_list res.Shard_runner.fastpath |> List.filter_map Fun.id
    in
    let sum f =
      List.fold_left (fun a h -> a + f h.Mmc_store.Seg_store.stats) 0 handles
    in
    let local =
      sum (fun s -> s.Mmc_store.Seg_store.fast)
      + sum (fun s -> s.Mmc_store.Seg_store.fast_queries)
    in
    let escalated = sum (fun s -> s.Mmc_store.Seg_store.escalated) in
    let msgs_per_op =
      if res.Shard_runner.completed > 0 then
        float_of_int res.Shard_runner.messages
        /. float_of_int res.Shard_runner.completed
      else 0.0
    in
    Fmt.pr
      "fastpath summary local=%d escalated=%d flushes=%d msgs-per-op=%.3f \
       mode=%a@."
      local escalated
      (sum (fun s -> s.Mmc_store.Seg_store.flushes))
      msgs_per_op Mmc_fastpath.Classify.pp_mode cfg.fastpath
  | _ -> ());
  save_history ~label:"stitched saved " save
    res.Shard_runner.stitched.Shard_recorder.history;
  let v = Shard_runner.check res ~flavour:(Store.flavour cfg.kind) in
  Fmt.pr "%a@." Check_sharded.pp v;
  if not v.Check_sharded.agree then 2
  else if Check_sharded.admissible v then 0
  else 1

let shard_cmd =
  let float_arg name ~docv ~doc default =
    Arg.(value & opt float default & info [ name ] ~docv ~doc)
  in
  let n_shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"S" ~doc:"Number of shards.")
  in
  let commute_ratio =
    Arg.(
      value
      & opt (some float) None
      & info [ "commute-ratio" ] ~docv:"R"
          ~doc:
            "Switch to the commuting-counter workload: fraction $(docv) of \
             updates are owner-local fetch-and-adds (confluent under the seg \
             store's classifier), the rest cross-owner moves (sequenced).  \
             Omitted = the default mixed sharded workload.")
  in
  let cross =
    float_arg "cross" ~docv:"R" 0.1
      ~doc:"Fraction of m-operations spanning two shards."
  in
  let skew =
    float_arg "skew" ~docv:"S" 0.0 ~doc:"Zipf exponent for object popularity."
  in
  let placement =
    Arg.(
      value & opt placement_conv `Hash
      & info [ "placement" ] ~docv:"POLICY" ~doc:"Object placement: hash or rr.")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run a sharded store (one ordering mechanism per shard), verify each \
          shard with the Theorem-7 checker and cross-check the stitched \
          global history"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Exit status: 0 when the stitched history is admissible, 1 when \
              it is not (e.g. a cross-shard composition anomaly — per-shard \
              sequential consistency does not compose), 2 when the \
              decomposed and batch checkers disagree (a bug).";
         ])
    Term.(
      const shard
      $ run_term ~cmd:"shard"
          ~store:
            (`Flag
              "Per-shard store protocol: msc, rmsc, seg, mlin or central.  \
               The other stores run too, but have no update order for the \
               Theorem-7 check to work under.")
          ~objects:16 ~ops:20 ~read_ratio:true ~fastpath:true
          ~plan:(Fault.none, "Injected under every shard's transport; default none.")
          ()
      $ n_shards $ cross $ skew $ commute_ratio $ placement
      $ save_arg ~doc:"Save the stitched global history in the text format.")

(* --- experiments --- *)

let experiments ids quick =
  let module R = Mmc_experiments.Registry in
  match List.filter (fun id -> R.find id = None) ids with
  | _ :: _ as unknown ->
    List.iter
      (fun id ->
        Fmt.epr "mmc: experiments: unknown experiment %S (known: %s)@." id
          (String.concat ", " (List.map (fun (e : R.entry) -> e.id) R.all)))
      unknown;
    124
  | [] ->
    List.iter
      (fun (e : R.entry) ->
        Mmc_experiments.Table.print (if quick then e.quick () else e.run ());
        print_newline ())
      (if ids = [] then R.all else List.filter_map R.find ids);
    0

let experiments_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes.") in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Print experiment tables")
    Term.(const experiments $ ids $ quick)

(* --- stats --- *)

let stats file =
  match Codec.of_file file with
  | exception Codec.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | exception History.Ill_formed msg ->
    Fmt.epr "ill-formed history: %s@." msg;
    1
  | h ->
    Fmt.pr "%a@." Analysis.pp (Analysis.analyze h);
    0

let stats_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"History file.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Structural metrics of a history")
    Term.(const stats $ file)

(* --- show --- *)

let show file width =
  match Codec.of_file file with
  | exception Codec.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | exception History.Ill_formed msg ->
    Fmt.epr "ill-formed history: %s@." msg;
    1
  | h ->
    print_string (Timeline.render ~width h);
    0

let show_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"History file.")
  in
  let width =
    Arg.(
      value
      & opt int Timeline.default_width
      & info [ "width" ] ~docv:"COLS" ~doc:"Timeline width in columns.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Render a history as an ASCII timeline")
    Term.(const show $ file $ width)

(* --- dot --- *)

let dot file out include_rt =
  match Codec.of_file file with
  | exception Codec.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | exception History.Ill_formed msg ->
    Fmt.epr "ill-formed history: %s@." msg;
    1
  | h ->
    let text = Dot.history ~include_rt h in
    (match out with
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text)
    | None -> print_string text);
    0

let dot_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"History file.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE")
  in
  let no_rt =
    Arg.(value & flag & info [ "no-rt" ] ~doc:"Omit real-time edges.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a history as graphviz")
    Term.(const dot $ file $ out $ Term.app (const not) no_rt)

(* --- figures --- *)

let figures () =
  let h1, _ = Mmc_workload.Figures.figure1 () in
  Fmt.pr "Figure 1:@.%a@.@." History.pp h1;
  let h2, _, ww = Mmc_workload.Figures.figure2 () in
  Fmt.pr "Figure 2 (H1):@.%a@.WW edges: %a@." History.pp h2
    Fmt.(list ~sep:comma (pair ~sep:(any "->") int int))
    ww;
  Fmt.pr "S1 (Figure 3) legal: %b@."
    (Sequential.legal_and_equivalent h2 Mmc_workload.Figures.figure3_s1_order);
  0

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Print the paper's figures")
    Term.(const figures $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "mmc" ~version:"1.0.0"
       ~doc:"Multi-object consistency conditions: protocols and checkers")
    [
      simulate_cmd;
      soak_cmd;
      faults_cmd;
      recover_cmd;
      chaos_cmd;
      shard_cmd;
      check_cmd;
      generate_cmd;
      experiments_cmd;
      figures_cmd;
      dot_cmd;
      show_cmd;
      stats_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
