(* In-memory span recorder for the traced run.

   A span brackets one call into a layer's public function.  Spans
   nest dynamically (an engine event that invokes the store runs inside
   the [Engine.run] span), so each layer's self time is its spans'
   durations minus the time covered by their child spans.  Allocation
   is attributed the same way, from [Gc.counters].  Every span is kept
   in flat arrays and written out only at the end, so recording costs
   two clock reads and two counter reads per span. *)

type layer =
  | Bench  (** the root span: whatever no layer's span covers *)
  | Setup  (** building engine, stores, devices, detector, checker *)
  | Workload  (** the generator drawing a closed-loop client's next program *)
  | Engine  (** [Engine.run]: event dispatch plus every protocol handler *)
  | Store  (** [Store.invoke] and the seg store's [finalize] *)
  | Soak  (** the open-loop harness: dispatch and the reorder buffer *)
  | Recorder  (** [Recorder.drain] *)
  | Window_check  (** [Window_check.feed] / [finish] *)
  | History  (** [Recorder.to_history_full], [Shard_recorder.stitch] *)
  | Check_trace  (** [Runner.check_history] *)
  | Check_sharded  (** per-shard and stitched Theorem-7 checks *)
  | Oracle  (** the batch cross-check of [Check_sharded] *)

let layers =
  [|
    Bench;
    Setup;
    Workload;
    Engine;
    Store;
    Soak;
    Recorder;
    Window_check;
    History;
    Check_trace;
    Check_sharded;
    Oracle;
  |]

let index = function
  | Bench -> 0
  | Setup -> 1
  | Workload -> 2
  | Engine -> 3
  | Store -> 4
  | Soak -> 5
  | Recorder -> 6
  | Window_check -> 7
  | History -> 8
  | Check_trace -> 9
  | Check_sharded -> 10
  | Oracle -> 11

let name = function
  | Bench -> "bench"
  | Setup -> "setup"
  | Workload -> "workload"
  | Engine -> "engine"
  | Store -> "store"
  | Soak -> "soak"
  | Recorder -> "recorder"
  | Window_check -> "window_check"
  | History -> "history"
  | Check_trace -> "check_trace"
  | Check_sharded -> "check_sharded"
  | Oracle -> "oracle"

let n_layers = Array.length layers
let self_s = Array.make n_layers 0.0
let self_words = Array.make n_layers 0.0

(** Seconds on the monotonic clock (nanosecond resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Open spans. *)
let max_depth = 64
let st_layer = Array.make max_depth 0
let st_log = Array.make max_depth 0
let st_t0 = Array.make max_depth 0.0
let st_w0 = Array.make max_depth 0.0
let st_child_t = Array.make max_depth 0.0
let st_child_w = Array.make max_depth 0.0
let depth = ref 0

(* The span log: layer, m-operation id (-1 for spans not tied to one),
   parent log index (-1 at the root), start and end offsets. *)
let log_len = ref 0
let log_layer = ref (Array.make 1024 0)
let log_op = ref (Array.make 1024 0)
let log_parent = ref (Array.make 1024 0)
let log_t0 = ref (Array.make 1024 0.0)
let log_t1 = ref (Array.make 1024 0.0)
let epoch = ref 0.0

let grow () =
  let n = Array.length !log_layer in
  let ext a d =
    let b = Array.make (2 * n) d in
    Array.blit a 0 b 0 n;
    b
  in
  log_layer := ext !log_layer 0;
  log_op := ext !log_op 0;
  log_parent := ext !log_parent 0;
  log_t0 := ext !log_t0 0.0;
  log_t1 := ext !log_t1 0.0

let start ?(op = -1) layer =
  let d = !depth in
  if d >= max_depth then failwith "Trace: spans nested too deep";
  if !log_len >= Array.length !log_layer then grow ();
  let i = !log_len in
  log_len := i + 1;
  let li = index layer in
  !log_layer.(i) <- li;
  !log_op.(i) <- op;
  !log_parent.(i) <- (if d = 0 then -1 else st_log.(d - 1));
  st_layer.(d) <- li;
  st_log.(d) <- i;
  st_child_t.(d) <- 0.0;
  st_child_w.(d) <- 0.0;
  depth := d + 1;
  st_w0.(d) <- allocated ();
  let t = now () in
  st_t0.(d) <- t;
  !log_t0.(i) <- t -. !epoch

let stop () =
  let t = now () in
  let w = allocated () in
  let d = !depth - 1 in
  depth := d;
  let dt = t -. st_t0.(d) and dw = w -. st_w0.(d) in
  let li = st_layer.(d) in
  self_s.(li) <- self_s.(li) +. dt -. st_child_t.(d);
  self_words.(li) <- self_words.(li) +. dw -. st_child_w.(d);
  !log_t1.(st_log.(d)) <- t -. !epoch;
  if d > 0 then begin
    st_child_t.(d - 1) <- st_child_t.(d - 1) +. dt;
    st_child_w.(d - 1) <- st_child_w.(d - 1) +. dw
  end

(** [span ?op layer f] — run [f] inside a span of [layer]. *)
let span ?op layer f =
  start ?op layer;
  match f () with
  | v ->
    stop ();
    v
  | exception e ->
    stop ();
    raise e

let reset () =
  Array.fill self_s 0 n_layers 0.0;
  Array.fill self_words 0 n_layers 0.0;
  depth := 0;
  log_len := 0;
  epoch := now ()

let self layer = self_s.(index layer)
let words layer = self_words.(index layer)

(** Write the span log as tab-separated lines:
    [layer op parent start_s end_s]. *)
let write path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "layer\top\tparent\tstart_s\tend_s\n";
      for i = 0 to !log_len - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%.9f\t%.9f\n"
          (name layers.(!log_layer.(i)))
          !log_op.(i) !log_parent.(i) !log_t0.(i) !log_t1.(i)
      done)

let spans () = !log_len
