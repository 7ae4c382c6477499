(* open-traffic: setup schedules R-LTF eps = 1 mappings on paper-traffic
   instances (30-60 tasks, m = 12) and compiles them; each op then
   materializes an arrival process and plays one open-mode
   [Engine.simulate] of [n_items] items through a reused run-state
   arena.  Ops cycle through {Poisson, MMPP} x load {0.7, 1.0, 1.3} x
   {Block unbounded, Drop_newest bound 4}; one op in five arms a
   transient-fault scenario with retries.  No scheduling happens in an
   op, so the op isolates the engine's open path. *)

open Perfbench_core
open Pb_workload

let eps = 1
let mappings_per_run = 97
let n_items = 150
let queue_bound = 4
let loads = [| 0.7; 1.0; 1.3 |]
let throughput = Paper_workload.throughput ~eps

type target = {
  program : Engine.program;
  state : Engine.Run_state.t;
  period : float;
}

let schedule inst =
  let prob =
    Types.problem ~dag:inst.Paper_workload.dag ~platform:inst.Paper_workload.plat
      ~eps ~throughput
  in
  match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
  | Error e -> failwith ("open-traffic setup: " ^ Types.failure_to_string e)
  | Ok mapping ->
      let program = Program_cache.program mapping in
      {
        program;
        state = Engine.Run_state.create program;
        (* the mapping's own service period, so that load 1.3
           saturates every mapping, not only those that just meet the
           target throughput *)
        period = Engine.program_period program;
      }

let targets ~seed ~tick =
  let rng = Rng.create ~seed in
  Array.init mappings_per_run (fun j ->
      let inst_rng = Rng.split rng in
      let spec =
        stratified_size ~count:mappings_per_run ~stride:7 j
          Fig_traffic.default.Fig_traffic.spec
      in
      let t = schedule (Spec.generate spec ~rng:inst_rng ~granularity:1.0 ()) in
      tick ();
      t)

type scenario = {
  target : int;
  arrival : Arrival.t;
  policy : Engine.Run.drop_policy;
  bound : int option;
  faults : Faults.t;
  rng_seed : int;
}

let scenario ~seed ~(targets : target array) i =
  let combo = i mod 12 in
  let target = i mod Array.length targets in
  let t = targets.(target) in
  let rate = loads.(combo / 2 mod 3) /. t.period in
  let arrival =
    if combo < 6 then Arrival.Poisson { rate }
    else
      Arrival.Mmpp
        {
          burst_rate = 1.8 *. rate;
          idle_rate = 0.2 *. rate;
          mean_burst = 20.0 *. t.period;
          mean_idle = 20.0 *. t.period;
        }
  in
  let policy, bound =
    if combo mod 2 = 0 then (Engine.Run.Block, None)
    else (Engine.Run.Drop_newest, Some queue_bound)
  in
  let rng_seed = (seed * 7919) + i in
  let faults =
    if i mod 5 <> 4 then Faults.none
    else
      {
        Faults.none with
        Faults.transient =
          {
            Faults.Transient.none with
            Faults.Transient.exec_rate = 0.02;
            comm_rate = 0.02;
            seed = rng_seed;
          };
        retry = Faults.Backoff.make ~base_delay:(0.25 *. t.period) ~max_retries:2 ();
      }
  in
  { target; arrival; policy; bound; faults; rng_seed }

type run = { result : Engine.result; sc : scenario }

let run_config sc offsets =
  Engine.Run.open_ ?queue_bound:sc.bound ~policy:sc.policy ~n_items
    (Arrival.Trace (Array.to_list offsets))
  |> Engine.Run.without_messages |> Engine.Run.with_faults sc.faults

let simulate ?(spans = Spans.create ~enabled:false ~clock:Pb_clock.now ())
    (targets : target array) sc =
  let t = targets.(sc.target) in
  let offsets =
    Spans.with_span spans "arrival.times" (fun () ->
        Arrival.times ~rng:(Rng.create ~seed:sc.rng_seed) ~n:n_items sc.arrival)
  in
  let config = run_config sc offsets in
  let result =
    Spans.with_span spans "engine.simulate" (fun () ->
        Engine.simulate ~state:t.state ~config t.program)
  in
  { result; sc }

let delivered (r : Engine.result) =
  Array.fold_left (fun n l -> if Option.is_some l then n + 1 else n) 0 r.Engine.item_latency

(* Every arrival is delivered, dropped or abandoned (stalled at the
   source, or admitted and lost to an exhausted retry budget); the three
   are counted from different fields of the result. *)
let check_run { result = r; sc } =
  let n = Array.length r.Engine.arrivals in
  let admitted =
    Array.fold_left (fun k x -> if Float.is_nan x then k else k + 1) 0 r.Engine.injections
  in
  let delivered = delivered r in
  let dropped = r.Engine.dropped and stalled = r.Engine.stalled in
  let lost = admitted - delivered in
  let abandoned = stalled + lost in
  if n <> n_items then Some (Printf.sprintf "%d arrivals, expected %d" n n_items)
  else if n <> delivered + dropped + abandoned then
    Some
      (Printf.sprintf "arrivals %d <> delivered %d + dropped %d + abandoned %d" n
         delivered dropped abandoned)
  else if admitted <> n - dropped - stalled then
    Some (Printf.sprintf "admitted %d, but %d dropped and %d stalled of %d" admitted
            dropped stalled n)
  else if lost < 0 || (lost > 0 && r.Engine.faults.Engine.exhausted = 0) then
    Some (Printf.sprintf "%d admitted items lost without an exhausted retry budget" lost)
  else if sc.policy = Engine.Run.Block && dropped <> 0 then
    Some "items dropped under Block"
  else
    match
      Array.find_opt
        (function Some l -> not (Float.is_finite l) || l < 0.0 | None -> false)
        r.Engine.item_latency
    with
    | Some _ -> Some "a negative or non-finite sojourn"
    | None -> None

let setup ~seed ~spans ~tick =
  let targets = targets ~seed ~tick in
  let last = ref None in
  let delivered_of = Hashtbl.create 64 in
  let op i =
    let run = simulate ~spans targets (scenario ~seed ~targets i) in
    if Spans.enabled spans then Hashtbl.replace delivered_of i (delivered run.result);
    last := Some run
  in
  let extras ~count_ops ~fail:_ =
    let got = List.filter_map (Hashtbl.find_opt delivered_of) count_ops in
    (* allocation of the simulate calls alone, tracing off *)
    let alloc =
      List.map
        (fun i ->
          let sc = scenario ~seed ~targets i in
          let t = targets.(sc.target) in
          let offsets =
            Arrival.times ~rng:(Rng.create ~seed:sc.rng_seed) ~n:n_items sc.arrival
          in
          let config = run_config sc offsets in
          min_alloc (fun () -> ignore (Engine.simulate ~state:t.state ~config t.program)))
        count_ops
    in
    [
      metric "engine.alloc_kb" "KB" (Quantile.middle (Array.of_list alloc) /. 1024.0);
      metric "delivered_ratio" "ratio"
        (float_of_int (List.fold_left ( + ) 0 got)
        /. float_of_int (max 1 (n_items * List.length got)));
    ]
  in
  {
    op;
    check = (fun _ -> Option.bind !last check_run);
    extras;
    close = ignore;
  }

let pinned = "5eab0354376ce25b75db6125ed15b525"
let reference_ops = 48

(* The first [reference_ops] ops of the reference seed: their sojourns,
   pooled and taken in units of each mapping's period, give the p99. *)
let reference () =
  let seed = reference_seed in
  let targets = targets ~seed ~tick:ignore in
  let failures = ref [] and floats = ref [] and periods = ref [] in
  for i = 0 to reference_ops - 1 do
    let run = simulate targets (scenario ~seed ~targets i) in
    let r = run.result in
    Option.iter (fun e -> failures := Printf.sprintf "op %d: %s" i e :: !failures) (check_run run);
    let period = targets.(run.sc.target).period in
    Array.iter
      (function
        | Some l ->
            floats := l :: !floats;
            periods := (l /. period) :: !periods
        | None -> floats := nan :: !floats)
      r.Engine.item_latency;
    floats := float_of_int r.Engine.dropped :: float_of_int r.Engine.stalled :: !floats
  done;
  {
    digest = digest_floats (List.rev !floats);
    pinned;
    result =
      metric "stream_p99_periods" "ratio"
        (Option.value ~default:nan (Quantile.percentile ~p:0.99 (Array.of_list !periods)));
    ops = reference_ops;
    failures = List.rev !failures;
  }

let workload = { name = "open-traffic"; warmup = 12; cycle = 12; count_ops = 48; setup; reference }
