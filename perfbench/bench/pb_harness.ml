(* The closed loop around a workload: set-up, timed ops, correctness
   checks, the result guard and the traced breakdown. *)

open Perfbench_core
open Pb_workload

(* Host-speed normalization.  Every timed interval is multiplied by
   [k_ref / k], where [k] is the duration of the speed probe
   ({!Pb_speed}) measured right before and right after the interval, and
   [k_ref] the probe's duration on a quiet host (0.15 ms, the fastest the
   probe ran on the 2-vCPU Xeon host the benchmark was written on).  On
   a quiet host the factor is about 1; when other tenants slow the host
   down, the probe slows with it and the factor takes the slowdown back
   out. *)
let k_ref = 0.15e-3

let setup_reps = 5
let min_ops = 200

(* Wall-clock cap on one timed phase, past which it stops even short of
   [min_ops]. *)
let cap seconds = (3.0 *. seconds) +. 30.0

type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let record tally ~what verdict =
  tally.attempted <- tally.attempted + 1;
  match verdict with
  | None -> ()
  | Some msg ->
      tally.failed <- tally.failed + 1;
      if List.length tally.errors < 5 then tally.errors <- (what ^ ": " ^ msg) :: tally.errors

let guarded f = try f () with e -> Some ("raised " ^ Printexc.to_string e)

(* Run op [i] through [run] (which times it), then check it untimed; an
   op that raises counts as failed. *)
let attempt tally inst ~what i run =
  let ran = guarded (fun () -> run (fun () -> inst.op i); None) in
  record tally ~what:(Printf.sprintf "%s %d" what i)
    (match ran with Some _ -> ran | None -> guarded (fun () -> inst.check i))

(* Normalized duration of a run of segments separated by ticks.  Each
   segment is scaled by the probes at its two ends; probe time itself is
   not counted. *)
type segments = {
  mutable k_prev : float;
  mutable seg_start : float;
  mutable raw : float;
  mutable norm : float;
}

let start_segments () =
  let k = Pb_speed.probe () in
  { k_prev = k; seg_start = Pb_clock.now (); raw = 0.0; norm = 0.0 }

let tick s =
  let dt = Pb_clock.now () -. s.seg_start in
  let k = Pb_speed.probe () in
  s.raw <- s.raw +. dt;
  s.norm <- s.norm +. (dt *. k_ref /. ((s.k_prev +. k) /. 2.0));
  s.k_prev <- k;
  s.seg_start <- Pb_clock.now ()

(* Between segments, time spent on checks is not part of the interval. *)
let resume s =
  s.k_prev <- Pb_speed.probe ();
  s.seg_start <- Pb_clock.now ()

(* One set-up: clear the compiled-artifact caches so every repetition
   compiles what it needs, compact the heap, build the instance and run
   the warm-up ops.  Returns the instance with its raw and normalized
   set-up time. *)
let setup_once w tally ~seed ~spans =
  Program_cache.clear Program_cache.programs;
  Program_cache.clear Stage_latency.plans;
  Gc.compact ();
  let s = start_segments () in
  let inst = w.setup ~seed ~spans ~tick:(fun () -> tick s) in
  tick s;
  for i = 0 to w.warmup - 1 do
    attempt tally inst ~what:"warm-up op" i (fun op ->
        resume s;
        op ();
        tick s)
  done;
  (inst, s.raw, s.norm)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6

type timed = { raw : float array; norm : float array; peak_heap : float }

(* The closed loop: op after op until [seconds] of op time, [min_ops]
   ops and a whole number of input cycles, each op timed on its own and
   normalized by the probes around it.  The heap is compacted first, and
   its size read after every op: the largest reading is the timed
   phase's peak heap. *)
let timed_phase (w : Pb_workload.t) inst tally ~seconds =
  let first = w.warmup in
  Gc.compact ();
  let raw = ref [] and norm = ref [] and peak_heap = ref (heap_mb ()) in
  let busy = ref 0.0 and n = ref 0 and i = ref first in
  let t_start = Pb_clock.now () in
  while
    (!busy < seconds || !n < min_ops || !n mod w.cycle <> 0)
    && Pb_clock.now () -. t_start < cap seconds
  do
    attempt tally inst ~what:"op" !i (fun op ->
        let k0 = Pb_speed.probe () in
        let t0 = Pb_clock.now () in
        Fun.protect op ~finally:(fun () ->
            let dt = Pb_clock.now () -. t0 in
            let k1 = Pb_speed.probe () in
            raw := dt :: !raw;
            norm := (dt *. k_ref /. ((k0 +. k1) /. 2.0)) :: !norm;
            busy := !busy +. dt));
    peak_heap := Float.max !peak_heap (heap_mb ());
    incr n;
    incr i
  done;
  {
    raw = Array.of_list (List.rev !raw);
    norm = Array.of_list (List.rev !norm);
    peak_heap = !peak_heap;
  }

let sum = Array.fold_left ( +. ) 0.0

(* ---- the end-to-end run ---- *)

type e2e = {
  metrics : metric list;
  samples : (string * int) list;  (** sample count behind each metric *)
  raw_notes : string list;  (** the same timings before normalization *)
}

let percentile_or_nan ~p a = Option.value ~default:nan (Quantile.percentile ~p a)

let end_to_end (w : Pb_workload.t) tally ~seed ~seconds ~references =
  let spans = Spans.create ~enabled:false ~clock:Pb_clock.now () in
  let setups = ref [] and inst = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun i -> i.close ()) !inst;
    let i, raw, norm = setup_once w tally ~seed ~spans in
    setups := (raw, norm) :: !setups;
    inst := Some i
  done;
  let inst = Option.get !inst in
  let t = timed_phase w inst tally ~seconds in
  inst.close ();
  let refs = references () in
  let n = Array.length t.norm in
  let setup_norm = Array.of_list (List.map snd !setups)
  and setup_raw = Array.of_list (List.map fst !setups) in
  let metrics =
    [
      metric "ops_per_s" "op/s" (float_of_int n /. sum t.norm);
      metric "op_p50_ms" "ms" (1e3 *. percentile_or_nan ~p:0.5 t.norm);
      metric "op_p90_ms" "ms" (1e3 *. percentile_or_nan ~p:0.9 t.norm);
      metric "setup_s" "s" (Quantile.middle setup_norm);
      metric "peak_heap_mb" "MB" t.peak_heap;
    ]
  in
  let ok_ratio =
    metric "ok_ratio" "ratio"
      (1.0 -. (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)))
  in
  let results = List.map (fun (r : reference) -> r.result) refs in
  {
    metrics = metrics @ (ok_ratio :: results);
    samples =
      [ ("ops_per_s", n); ("op_p50_ms", n); ("op_p90_ms", n); ("setup_s", setup_reps);
        ("peak_heap_mb", n); ("ok_ratio", tally.attempted) ]
      @ List.map (fun (r : reference) -> (r.result.name, r.ops)) refs;
    raw_notes =
      [
        Printf.sprintf "raw ops_per_s %.4f, op_p50_ms %.4f, op_p90_ms %.4f, setup_s %.4f"
          (float_of_int n /. sum t.raw)
          (1e3 *. percentile_or_nan ~p:0.5 t.raw)
          (1e3 *. percentile_or_nan ~p:0.9 t.raw)
          (Quantile.middle setup_raw);
      ];
  }

(* ---- the traced run ---- *)

let count_keys =
  [
    "core.placement_probes"; "core.feasibility_rejections"; "sim.cache.hits";
    "sim.cache.misses"; "sim.events_popped"; "sim.queue.blocked"; "sim.drops";
    "sim.retries";
  ]

(* Every per-layer metric with its unit, in the order they print. *)
let per_layer =
  [
    ("spec.generate_ms", "ms"); ("sched.ltf_ms", "ms"); ("sched.rltf_ms", "ms");
    ("sched.ref_ms", "ms"); ("sched.share", "ratio"); ("sched.probes", "count");
    ("sched.rejections", "count"); ("sched.ns_per_probe", "ns"); ("sched.alloc_kb", "KB");
    ("stage_latency_ms", "ms"); ("cache.hit_ratio", "ratio"); ("arrival.times_ms", "ms");
    ("engine.simulate_ms", "ms"); ("engine.events", "count"); ("engine.ns_per_event", "ns");
    ("engine.alloc_kb", "KB"); ("queue.blocked", "count"); ("queue.drops", "count");
    ("faults.retries", "count"); ("delivered_ratio", "ratio"); ("crash.sampled_ms", "ms");
    ("crash.exact_ms", "ms"); ("engine.draw_us", "us"); ("pool.speedup", "ratio");
    ("arena.reuse_ratio", "ratio"); ("trace.overhead", "ratio");
  ]

let set_tracing spans on =
  Spans.set_enabled spans on;
  Obs.set_enabled on

let sched_spans = [ "sched.ltf"; "sched.rltf"; "sched.ref" ]

(* Per-layer figures from the spans and counter deltas of phase A. *)
let layer_metrics spans ~n_ops ~counts ~count_ops =
  let all = Spans.spans spans in
  let in_count = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace in_count i ()) count_ops;
  let counted i = Hashtbl.mem in_count i in
  let per_op name = 1e3 *. Spans.self_of all name /. float_of_int (max 1 n_ops) in
  let nc = float_of_int (max 1 (List.length count_ops)) in
  let total key =
    List.fold_left
      (fun acc i ->
        acc +. float_of_int (List.assoc key (Hashtbl.find counts i)))
      0.0 count_ops
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let op_time =
    Array.fold_left
      (fun acc (s : Spans.span) -> if s.name = "op" then acc +. (s.stop -. s.start) else acc)
      0.0 all
  in
  let sched_self ?op_filter () =
    List.fold_left (fun acc n -> acc +. Spans.self_of ?op_filter all n) 0.0 sched_spans
  in
  let probes = total "core.placement_probes" in
  let events = total "sim.events_popped" in
  let hits = total "sim.cache.hits" and misses = total "sim.cache.misses" in
  [
    metric "spec.generate_ms" "ms" (per_op "spec.generate");
    metric "sched.ltf_ms" "ms" (per_op "sched.ltf");
    metric "sched.rltf_ms" "ms" (per_op "sched.rltf");
    metric "sched.ref_ms" "ms" (per_op "sched.ref");
    metric "sched.share" "ratio" (ratio (sched_self ()) op_time);
    metric "sched.probes" "count" (probes /. nc);
    metric "sched.rejections" "count" (total "core.feasibility_rejections" /. nc);
    metric "sched.ns_per_probe" "ns"
      (1e9 *. ratio (sched_self ~op_filter:counted ()) probes);
    metric "stage_latency_ms" "ms" (per_op "stage_latency");
    metric "cache.hit_ratio" "ratio" (ratio hits (hits +. misses));
    metric "arrival.times_ms" "ms" (per_op "arrival.times");
    metric "engine.simulate_ms" "ms" (per_op "engine.simulate");
    metric "engine.events" "count" (events /. nc);
    metric "engine.ns_per_event" "ns"
      (1e9 *. ratio (Spans.self_of ~op_filter:counted all "engine.simulate") events);
    metric "queue.blocked" "count" (total "sim.queue.blocked" /. nc);
    metric "queue.drops" "count" (total "sim.drops" /. nc);
    metric "faults.retries" "count" (total "sim.retries" /. nc);
    metric "crash.sampled_ms" "ms" (per_op "crash.sampled");
    metric "crash.exact_ms" "ms" (per_op "crash.exact");
  ]

let traced (w : Pb_workload.t) tally ~seed ~seconds =
  let spans = Spans.create ~enabled:false ~clock:Pb_clock.now () in
  Obs.set_enabled false;
  let inst, _, _ = setup_once w tally ~seed ~spans in
  (* Phase A: every op traced once, spans and Obs counters on. *)
  Obs.reset ();
  set_tracing spans true;
  let counts = Hashtbl.create 256 in
  let busy = ref 0.0 and i = ref w.warmup and ids = ref [] in
  let t_start = Pb_clock.now () in
  while
    (!busy < seconds /. 2.0 || List.length !ids < max w.count_ops 20)
    && Pb_clock.now () -. t_start < cap seconds
  do
    Spans.set_op spans !i;
    let before = List.map Pb_workload.counter count_keys in
    attempt tally inst ~what:"op" !i (fun op ->
        let t0 = Pb_clock.now () in
        Fun.protect (fun () -> Spans.with_span spans "op" op) ~finally:(fun () ->
            busy := !busy +. (Pb_clock.now () -. t0);
            Hashtbl.replace counts !i
              (List.map2 (fun k b -> (k, Pb_workload.counter k - b)) count_keys before)));
    ids := !i :: !ids;
    incr i
  done;
  set_tracing spans false;
  let ids = List.rev !ids in
  let count_ops = List.filteri (fun j _ -> j < w.count_ops) ids in
  let layers = layer_metrics spans ~n_ops:(List.length ids) ~counts ~count_ops in
  Spans.clear spans;
  (* Phase B: the same ops again, each run untraced and traced back to
     back (alternating which goes first), so host drift cancels out of
     the tracing overhead. *)
  let plain = ref 0.0 and with_trace = ref 0.0 in
  let run_once on j =
    attempt tally inst ~what:"repeated op" j (fun op ->
        set_tracing spans on;
        let t0 = Pb_clock.now () in
        Fun.protect op ~finally:(fun () ->
            let dt = Pb_clock.now () -. t0 in
            set_tracing spans false;
            if on then with_trace := !with_trace +. dt else plain := !plain +. dt))
  in
  let ids_arr = Array.of_list ids in
  let k = ref 0 in
  let t_start = Pb_clock.now () in
  while
    (!plain +. !with_trace < seconds /. 2.0 || !k < 20)
    && Pb_clock.now () -. t_start < cap seconds
  do
    let j = ids_arr.(!k mod Array.length ids_arr) in
    if !k mod 2 = 0 then (run_once false j; run_once true j)
    else (run_once true j; run_once false j);
    Spans.clear spans;
    incr k
  done;
  let extras =
    inst.extras ~count_ops ~fail:(fun msg -> record tally ~what:"extras" (Some msg))
  in
  inst.close ();
  let overhead = metric "trace.overhead" "ratio" (!with_trace /. !plain) in
  let found = layers @ extras @ [ overhead ] in
  (* every per-layer metric, 0 where this workload never enters the
     layer; a workload's own figure overrides the generic one *)
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : metric) -> m.name = name) (List.rev found) with
      | Some m -> m
      | None -> metric name unit_ 0.0)
    per_layer
