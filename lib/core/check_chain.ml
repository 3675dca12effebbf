(** Theorem-7 admissibility checking with chain clocks (see the
    interface for the two facts it rests on).

    Pipeline: Kahn sort of the reduced base edges ([Cyclic] if it
    cannot finish), one topological pass of width-[p] vector clocks,
    the constraint checked on consecutive pairs only, then one
    legality test and at most one [~rw] edge per reads-from edge, and
    a second Kahn sort of the extended edge set for the witness. *)

(* Growable edge list: parallel source/target arrays. *)
type edges = {
  mutable src : int array;
  mutable dst : int array;
  mutable len : int;
}

let edges cap =
  let cap = max cap 16 in
  { src = Array.make cap 0; dst = Array.make cap 0; len = 0 }

let add_edge e i j =
  if e.len = Array.length e.src then begin
    let grow a =
      let b = Array.make (2 * e.len) 0 in
      Array.blit a 0 b 0 e.len;
      b
    in
    e.src <- grow e.src;
    e.dst <- grow e.dst
  end;
  e.src.(e.len) <- i;
  e.dst.(e.len) <- j;
  e.len <- e.len + 1

(* Compressed adjacency: the successors of [v] are
   [adj.(off.(v)) .. adj.(off.(v + 1) - 1)]. *)
type csr = { off : int array; adj : int array }

let csr n e =
  let off = Array.make (n + 1) 0 in
  for k = 0 to e.len - 1 do
    off.(e.src.(k) + 1) <- off.(e.src.(k) + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let fill = Array.sub off 0 n in
  let adj = Array.make e.len 0 in
  for k = 0 to e.len - 1 do
    let s = e.src.(k) in
    adj.(fill.(s)) <- e.dst.(k);
    fill.(s) <- fill.(s) + 1
  done;
  { off; adj }

(* Kahn sort of the union of [gs] with a FIFO frontier; [None] iff
   the union is cyclic. *)
let kahn n gs =
  let indeg = Array.make n 0 in
  List.iter
    (fun g -> Array.iter (fun j -> indeg.(j) <- indeg.(j) + 1) g.adj)
    gs;
  let order = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    List.iter
      (fun g ->
        for k = g.off.(v) to g.off.(v + 1) - 1 do
          let s = g.adj.(k) in
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then begin
            order.(!tail) <- s;
            incr tail
          end
        done)
      gs
  done;
  if !tail = n then Some order else None

(* Process chains: one per process, members in process order.  [idx]
   is 1-based, so a zero clock entry means "nothing of that chain
   precedes".  The initializer precedes everything and belongs to no
   chain ([chain] = -1); its clock stays zero. *)
type chains = {
  width : int;
  chain : int array;
  idx : int array;
  members : int array array;
}

let chains_of (mops : Mop.t array) =
  let n = Array.length mops in
  let slot = Hashtbl.create 16 in
  let chain = Array.make n (-1) in
  Array.iter
    (fun (m : Mop.t) ->
      if m.Mop.id <> Types.init_mop then
        chain.(m.Mop.id) <-
          (match Hashtbl.find_opt slot m.Mop.proc with
          | Some c -> c
          | None ->
            let c = Hashtbl.length slot in
            Hashtbl.add slot m.Mop.proc c;
            c))
    mops;
  let width = Hashtbl.length slot in
  let lists = Array.make width [] in
  for id = n - 1 downto 1 do
    lists.(chain.(id)) <- id :: lists.(chain.(id))
  done;
  (* Identifiers usually follow invocation order already (recorders
     number m-operations that way); sort only when they do not. *)
  let by_inv i j = compare mops.(i).Mop.inv mops.(j).Mop.inv in
  let members =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        let sorted = ref true in
        for k = 1 to Array.length a - 1 do
          if by_inv a.(k - 1) a.(k) > 0 then sorted := false
        done;
        if not !sorted then Array.stable_sort by_inv a;
        a)
      lists
  in
  let idx = Array.make n 0 in
  Array.iter (Array.iteri (fun k id -> idx.(id) <- k + 1)) members;
  { width; chain; idx; members }

(* Largest [k] with [resp ids.(k) < t] ([-1] if none); responses
   increase along a chain because process subhistories are
   sequential. *)
let last_before (mops : Mop.t array) ids t =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if mops.(ids.(mid)).Mop.resp < t then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* The flavour's extra order reduced to at most one predecessor per
   other process (and, for object order, per object): every dropped
   pair is implied through process order, so the closure is that of
   {!History.base_edges}. *)
let extra_edges e (mops : Mop.t array) ch n_objects = function
  | History.Msc -> ()
  | History.Mlin ->
    Array.iter
      (fun (a : Mop.t) ->
        if a.Mop.id <> Types.init_mop then
          for q = 0 to ch.width - 1 do
            if q <> ch.chain.(a.Mop.id) then begin
              let ids = ch.members.(q) in
              let k = last_before mops ids a.Mop.inv in
              if k >= 0 then add_edge e ids.(k) a.Mop.id
            end
          done)
      mops
  | History.Mnorm ->
    let touch = Array.make (ch.width * n_objects) [] in
    for q = ch.width - 1 downto 0 do
      let ids = ch.members.(q) in
      for k = Array.length ids - 1 downto 0 do
        List.iter
          (fun x ->
            let s = (q * n_objects) + x in
            touch.(s) <- ids.(k) :: touch.(s))
          (Mop.objects mops.(ids.(k)))
      done
    done;
    let touch = Array.map Array.of_list touch in
    Array.iter
      (fun (a : Mop.t) ->
        if a.Mop.id <> Types.init_mop then
          List.iter
            (fun x ->
              for q = 0 to ch.width - 1 do
                if q <> ch.chain.(a.Mop.id) then begin
                  let ids = touch.((q * n_objects) + x) in
                  let k = last_before mops ids a.Mop.inv in
                  if k >= 0 then add_edge e ids.(k) a.Mop.id
                end
              done)
            (Mop.objects a))
      mops

let base_edges h flavour ch ~sync =
  let mops = History.mops h in
  let n = Array.length mops in
  (* Exact for Msc: one process-order (or initializer) edge into each
     real m-operation, the reads-from edges and the sync links. *)
  let e =
    edges
      (n - 1
      + List.length (History.rf h)
      + List.fold_left (fun k l -> k + max 0 (List.length l - 1)) 0 sync)
  in
  for q = 0 to ch.width - 1 do
    let ids = ch.members.(q) in
    add_edge e Types.init_mop ids.(0);
    for k = 1 to Array.length ids - 1 do
      add_edge e ids.(k - 1) ids.(k)
    done
  done;
  List.iter
    (fun (r : History.rf_edge) -> add_edge e r.History.writer r.History.reader)
    (History.rf h);
  extra_edges e mops ch (History.n_objects h) flavour;
  let check id =
    if id < 0 || id >= n then
      invalid_arg (Fmt.str "Check_chain.check: sync id %d out of [0,%d)" id n)
  in
  let rec link = function
    | a :: (b :: _ as rest) ->
      check a;
      check b;
      add_edge e a b;
      link rest
    | [ a ] -> check a
    | [] -> ()
  in
  List.iter link sync;
  e

(* Width-[p] vector clocks in one pass over [order]: [V_v] is the
   entrywise maximum over [v]'s direct predecessors, plus [v]'s own
   position.  Pushed forward along each edge, so every clock is final
   when its node is reached. *)
let clocks n ch g order =
  let w = ch.width in
  let vc = Array.make (n * w) 0 in
  Array.iter
    (fun v ->
      let base = v * w in
      if v <> Types.init_mop then vc.(base + ch.chain.(v)) <- ch.idx.(v);
      for k = g.off.(v) to g.off.(v + 1) - 1 do
        let sb = g.adj.(k) * w in
        for q = 0 to w - 1 do
          let x = Array.unsafe_get vc (base + q) in
          if x > Array.unsafe_get vc (sb + q) then
            Array.unsafe_set vc (sb + q) x
        done
      done)
    order;
  vc

exception Fail of Check_constrained.result

(* The constraint on consecutive pairs of one topological pass: a set
   is totally ordered iff each member precedes the next one in any
   linear extension.  OO additionally needs every reader of [x]
   ordered after the last earlier writer of [x] and before the next
   one.  Returns the writers of each object in topological order. *)
let constraint_pass h kind order ~before =
  let mops = History.mops h in
  let n_objects = History.n_objects h in
  let last = Array.make n_objects (-1) in
  let writers = Array.make n_objects [] in
  let pending = Array.make n_objects [] in
  let prev_update = ref (-1) in
  let fail () = raise (Fail Check_constrained.Constraint_violated) in
  Array.iter
    (fun v ->
      let m = mops.(v) in
      let ws = Mop.wobjects m in
      if kind = Constraints.OO then
        List.iter
          (fun x ->
            if not (List.mem x ws) then begin
              if last.(x) >= 0 && not (before last.(x) v) then fail ();
              pending.(x) <- v :: pending.(x)
            end)
          (Mop.objects m);
      List.iter
        (fun x ->
          if kind <> Constraints.WW && last.(x) >= 0 && not (before last.(x) v)
          then fail ();
          if kind = Constraints.OO then begin
            List.iter (fun r -> if not (before r v) then fail ()) pending.(x);
            pending.(x) <- []
          end;
          last.(x) <- v;
          writers.(x) <- v :: writers.(x))
        ws;
      if kind = Constraints.WW && ws <> [] then begin
        if !prev_update >= 0 && not (before !prev_update v) then fail ();
        prev_update := v
      end)
    order;
  Array.map (fun l -> Array.of_list (List.rev l)) writers

(* Index of the first member of [ws] (in topological order) after
   position [p]. *)
let first_after pos ws p =
  let lo = ref 0 and hi = ref (Array.length ws) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pos.(ws.(mid)) <= p then lo := mid + 1 else hi := mid
  done;
  !lo

let check h flavour ~sync kind =
  let mops = History.mops h in
  let n = Array.length mops in
  let ch = chains_of mops in
  let g = csr n (base_edges h flavour ch ~sync) in
  match kahn n [ g ] with
  | None -> Check_constrained.Cyclic
  | Some order -> (
    let vc = clocks n ch g order in
    let w = ch.width in
    let before c a =
      c <> a
      && (c = Types.init_mop || vc.((a * w) + ch.chain.(c)) >= ch.idx.(c))
    in
    let pos = Array.make n 0 in
    Array.iteri (fun k v -> pos.(v) <- k) order;
    match
      let writers = constraint_pass h kind order ~before in
      (* Writers of each object are now totally ordered, so the only
         interferer that matters for [b --x--> a] is [c], the next
         writer of [x] after [b]. *)
      let rw = edges 0 in
      List.iter
        (fun (r : History.rf_edge) ->
          let a = r.History.reader and b = r.History.writer in
          let ws = writers.(r.History.obj) in
          let k = first_after pos ws pos.(b) in
          if k < Array.length ws then begin
            let c = ws.(k) in
            if c <> a then
              if before c a then
                raise
                  (Fail
                     (Check_constrained.Not_legal
                        {
                          Legality.alpha = a;
                          beta = b;
                          gamma = c;
                          obj = r.History.obj;
                        }))
              else if not (before a c) then add_edge rw a c
          end)
        (History.rf h);
      rw
    with
    | exception Fail verdict -> verdict
    | rw -> (
      match kahn n [ g; csr n rw ] with
      | None -> Check_constrained.Extended_cyclic
      | Some witness -> Check_constrained.Admissible witness))
