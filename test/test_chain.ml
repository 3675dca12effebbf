(* Differential suite for the chain-clock Theorem-7 checker: on random
   histories x {Msc, Mnorm, Mlin} x {WW, OO, WO} x synchronization
   orders, `Check_chain.check` must reach the same verdict shape as the
   bitset oracle `Check_constrained.check_relation` over the same
   relation.  Its witnesses must validate, and its Not_legal triples
   must be genuine violations in the bitset closure.  Pinned real FAIL
   traces (chaos plans, the stitched seg run) close the loop on
   protocol output. *)

open Mmc_core

let same_shape a b =
  match (a, b) with
  | Check_constrained.Admissible _, Check_constrained.Admissible _
  | Check_constrained.Not_legal _, Check_constrained.Not_legal _
  | Check_constrained.Constraint_violated, Check_constrained.Constraint_violated
  | Check_constrained.Cyclic, Check_constrained.Cyclic
  | Check_constrained.Extended_cyclic, Check_constrained.Extended_cyclic ->
    true
  | _ -> false

let shape =
  Alcotest.testable Check_constrained.pp_result same_shape

let link_edges order =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] order

let relation h flavour sync =
  let base = History.base_relation h flavour in
  Relation.add_edges base (List.concat_map link_edges sync);
  base

(* [t] is a genuine D 4.6 violation of [h] under the closure of
   [base]: [a] reads [x] from [b], [c] writes [x], and [b ~H c ~H a]. *)
let genuine h base (t : Legality.triple) =
  let closed = Relation.transitive_closure base in
  List.exists
    (fun (e : History.rf_edge) ->
      e.History.reader = t.Legality.alpha
      && e.History.writer = t.Legality.beta
      && e.History.obj = t.Legality.obj)
    (History.rf h)
  && List.mem t.Legality.obj (Mop.wobjects (History.mop h t.Legality.gamma))
  && t.Legality.gamma <> t.Legality.alpha
  && t.Legality.gamma <> t.Legality.beta
  && Relation.mem closed t.Legality.beta t.Legality.gamma
  && Relation.mem closed t.Legality.gamma t.Legality.alpha

(* The chain verdict agrees in shape with the oracle's, and whatever
   detail it carries checks out against the bitset closure. *)
let agrees h flavour sync kind =
  let base = relation h flavour sync in
  let chain = Check_chain.check h flavour ~sync kind in
  let oracle = Check_constrained.check_relation h base kind in
  same_shape chain oracle
  &&
  match chain with
  | Check_constrained.Admissible w -> Sequential.validate h base w
  | Check_constrained.Not_legal t -> genuine h base t
  | _ -> true

let updates h =
  History.real_mops h
  |> List.filter Mop.is_update
  |> List.map (fun (m : Mop.t) -> m.Mop.id)

(* Synchronization orders of increasing strength: none (constraints
   mostly fail), a shuffled update order (often cyclic against
   reads-from), the updates in id order, and the updates in a linear
   extension of the base relation (constraints hold, legality
   decides). *)
let sync_of ~seed h flavour = function
  | 0 -> []
  | 1 ->
    let rng = Random.State.make [| seed |] in
    let a = Array.of_list (Types.init_mop :: updates h) in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    [ Array.to_list a ]
  | 2 -> [ updates h ]
  | _ -> (
    match Relation.topo_sort (History.base_relation h flavour) with
    | None -> []
    | Some order ->
      [
        Array.to_list order
        |> List.filter (fun id ->
               id <> Types.init_mop && Mop.is_update (History.mop h id));
      ])

let flavours = [ History.Msc; History.Mnorm; History.Mlin ]
let kinds = [ Constraints.WW; Constraints.OO; Constraints.WO ]

let history ~seed =
  match seed mod 3 with
  | 0 ->
    Mmc_workload.Histories.random_multi ~seed ~n_procs:3 ~n_objects:3
      ~n_mops:12 ~max_reads:2 ~max_writes:2 ()
  | 1 ->
    Mmc_workload.Histories.random_register ~seed ~n_procs:4 ~n_objects:2
      ~n_mops:12 ~write_ratio:0.5 ()
  | _ ->
    Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:4
      ~n_mops:14 ~max_len:3 ~read_ratio:0.4 ()

let prop_differential =
  QCheck.Test.make ~name:"chain = bitset oracle (flavour x kind x sync)"
    ~count:150
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let h = history ~seed in
      List.for_all
        (fun flavour ->
          List.for_all
            (fun strength ->
              let sync = sync_of ~seed h flavour strength in
              List.for_all (agrees h flavour sync) kinds)
            [ 0; 1; 2; 3 ])
        flavours)

(* Every verdict shape occurs in the corpus, so the property above is
   not vacuous on any of them. *)
let test_shapes_covered () =
  let seen = Hashtbl.create 5 in
  for seed = 0 to 299 do
    let h = history ~seed in
    List.iter
      (fun strength ->
        let sync = sync_of ~seed h History.Msc strength in
        let tag =
          match Check_chain.check h History.Msc ~sync Constraints.WW with
          | Check_constrained.Admissible _ -> "admissible"
          | Check_constrained.Not_legal _ -> "not-legal"
          | Check_constrained.Constraint_violated -> "constraint"
          | Check_constrained.Cyclic -> "cyclic"
          | Check_constrained.Extended_cyclic -> "extended"
        in
        Hashtbl.replace seen tag ())
      [ 0; 1; 2; 3 ]
  done;
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " occurs") true (Hashtbl.mem seen tag))
    [ "admissible"; "not-legal"; "constraint"; "cyclic" ]

(* WO does not reduce admissibility to legality: the Dekker outcome is
   legal, yet its [~rw] edges close a cycle through process order.
   Both checkers must report the extended cycle under Msc. *)
let dekker =
  Codec.of_string
    "objects 2\n\
     mop 1 0 0 5 w:0:i1\n\
     mop 2 0 10 15 r:1:i0\n\
     mop 3 1 0 5 w:1:i1\n\
     mop 4 1 10 15 r:0:i0\n\
     rf 2 1 0\n\
     rf 4 0 0\n"

let test_wo_extended_cyclic () =
  Alcotest.check shape "verdict" Check_constrained.Extended_cyclic
    (Check_chain.check dekker History.Msc ~sync:[] Constraints.WO);
  Alcotest.(check bool) "oracle agrees" true
    (agrees dekker History.Msc [] Constraints.WO)

(* --- pinned protocol traces --- *)

(* One plan of the chaos loop ([mmc chaos --ops 50]): plan [seed] is
   [Fault.fuzz] of that seed, run with it on rmsc. *)
let chaos_run seed =
  let open Mmc_store in
  let cfg =
    {
      Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = 50;
      kind = Store.Rmsc;
      latency = Mmc_sim.Latency.Uniform (5, 15);
      fault = Mmc_sim.Fault.fuzz ~rng:(Mmc_sim.Rng.create seed) ~n:4;
    }
  in
  Runner.run ~seed cfg
    ~workload:
      (Mmc_workload.Generator.mixed
         { Mmc_workload.Spec.default with n_objects = 8 })

let test_chaos_not_legal seed ?triple () =
  let res = chaos_run seed in
  let h = res.Mmc_store.Runner.history in
  let sync = [ res.Mmc_store.Runner.sync_order ] in
  let chain = Mmc_store.Runner.check_trace res ~flavour:History.Msc in
  Alcotest.(check bool) "chain verdict is Not_legal" true
    (match chain with Check_constrained.Not_legal _ -> true | _ -> false);
  Alcotest.(check bool) "chain = oracle" true
    (agrees h History.Msc sync Constraints.WW);
  Option.iter
    (fun (alpha, beta, gamma, obj) ->
      match chain with
      | Check_constrained.Not_legal t ->
        Alcotest.(check (list int)) "reported triple"
          [ alpha; beta; gamma; obj ]
          Legality.[ t.alpha; t.beta; t.gamma; t.obj ]
      | _ -> ())
    triple

(* [mmc shard --store seg --shards 2 --ops 20 --seed 1]: the stitched
   history violates the WW-constraint (an open seg-store defect, used
   here as a corpus entry).  The stitched and per-shard chain verdicts
   must agree with the oracle. *)
let test_stitched_seg () =
  let open Mmc_shard in
  let n_objects = 16 in
  let placement = Placement.hash ~n_shards:2 ~n_objects in
  let spec = { Mmc_workload.Spec.default with n_objects } in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 4;
      n_objects;
      ops_per_proc = 20;
      kind = Mmc_store.Store.Seg;
    }
  in
  let res =
    Shard_runner.run ~seed:1 ~placement cfg
      ~workload:
        (Mmc_workload.Generator.sharded ~cross_shard_ratio:0.1 placement spec)
  in
  let v = Shard_runner.check res ~flavour:History.Msc in
  Alcotest.check shape "stitched verdict" Check_constrained.Constraint_violated
    v.Check_sharded.stitched;
  Alcotest.(check bool) "batch agrees" true v.Check_sharded.agree;
  let st = res.Shard_runner.stitched in
  Alcotest.(check bool) "chain = oracle on the stitched trace" true
    (agrees st.Shard_recorder.history History.Msc
       (Array.to_list st.Shard_recorder.chains
       @ [ st.Shard_recorder.sync_order ])
       Constraints.WW);
  Array.iteri
    (fun s recorder ->
      let h, _, sync_order = Mmc_store.Recorder.to_history_full recorder in
      Alcotest.(check bool)
        (Fmt.str "shard %d: chain = oracle" s)
        true
        (agrees h History.Msc [ sync_order ] Constraints.WW))
    res.Shard_runner.recorders

(* The stored traces carry no synchronization order: with none, and
   with the updates in id order, both checkers must agree under every
   flavour and constraint. *)
let test_golden_traces () =
  List.iter
    (fun file ->
      let h = Codec.of_file ("data/" ^ file) in
      List.iter
        (fun flavour ->
          List.iter
            (fun kind ->
              Alcotest.(check bool)
                (Fmt.str "%s %a %a" file History.pp_flavour flavour
                   Constraints.pp_kind kind)
                true
                (agrees h flavour [] kind
                && agrees h flavour [ updates h ] kind))
            kinds)
        flavours)
    [ "aw_broken.trace"; "dekker.trace"; "local_bad.trace"; "stale_read.trace";
      "mlin_good.trace" ]

let () =
  Alcotest.run "check-chain"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "every verdict shape occurs" `Quick
            test_shapes_covered;
          Alcotest.test_case "WO extended-cyclic agrees" `Quick
            test_wo_extended_cyclic;
          Alcotest.test_case "golden traces agree" `Quick test_golden_traces;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "chaos plan 100 not legal" `Quick
            (test_chaos_not_legal 100 ~triple:(93, 67, 71, 4));
          Alcotest.test_case "chaos plan 3008 not legal" `Quick
            (test_chaos_not_legal 3008);
          Alcotest.test_case "stitched seg constraint violated" `Quick
            test_stitched_seg;
        ] );
    ]
