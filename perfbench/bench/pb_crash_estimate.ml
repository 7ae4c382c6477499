(* crash-estimate: setup spawns one domain pool of two workers and
   schedules R-LTF eps = 1 mappings on paper instances.  Each op takes
   two estimates of the same mapping's behaviour under [crashes] random
   processor crashes: a sampled one, [draws] closed replays through the
   engine fanned out on the pool, and the exact one from the
   reliability calculus.  The engine's replays go through the program
   cache's hit path and the run-state arena.

   eps = 1 with two crashes, not eps = 3: a mapping built to survive
   three crashes is never defeated by two, so its defeat probability is
   0 and the sampled-versus-exact comparison would check nothing. *)

open Perfbench_core
open Pb_workload

let eps = 1
let crashes = 2
let draws = 200
let mappings_per_run = 40
let throughput = Paper_workload.throughput ~eps
let granularities = Array.of_list Paper_workload.granularities

let mappings ~seed ~count ~tick =
  let rng = Rng.create ~seed in
  Array.init count (fun j ->
      let inst =
        Spec.generate
          (stratified_size ~count ~stride:7 j Spec.default)
          ~rng:(Rng.split rng)
          ~granularity:granularities.(j mod Array.length granularities) ()
      in
      let prob =
        Types.problem ~dag:inst.Paper_workload.dag ~platform:inst.Paper_workload.plat
          ~eps ~throughput
      in
      match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error e -> failwith ("crash-estimate setup: " ^ Types.failure_to_string e)
      | Ok m ->
          ignore (Program_cache.program m);
          tick ();
          m)

let sampled ?pool ?jobs ~seed m =
  Crash.estimate ?pool ?jobs ~source:(Crash.Of_mapping m)
    ~method_:(Crash.Sampled { crashes; draws; rng = Rng.create ~seed })
    ()

let exact m = Stage_latency.exact_crash_latency_stats ~crashes ~throughput m

(* Binomial tolerance: five standard deviations of the sampled rate
   around the exact probability (a correct estimator fails it about once
   in 3.5 million estimates). *)
let within_tolerance ~exact:p (est : Crash.estimate) =
  let n = float_of_int est.Crash.est_draws in
  let sd = sqrt (p *. (1.0 -. p) /. n) in
  est.Crash.est_draws = draws
  && Float.abs (est.Crash.est_p_defeat -. p) <= (5.0 *. sd) +. 1e-12

(* The engine enumeration of all [choose m crashes] failure sets: the
   oracle the reliability calculus must match to 1e-9. *)
let enumeration_agrees m (ex : Crash.exact) =
  let en =
    Crash.estimate ~source:(Crash.Of_mapping m)
      ~method_:(Crash.Exact { crashes; max_evaluations = None })
      ()
  in
  if Float.abs (en.Crash.est_p_defeat -. ex.Crash.p_defeat) <= 1e-9 then None
  else
    Some
      (Printf.sprintf "exact p_defeat %.12f, engine enumeration %.12f"
         ex.Crash.p_defeat en.Crash.est_p_defeat)

let op_seed ~seed i = (seed * 7919) + i

type op_result = { mapping : int; est : Crash.estimate; ex : Crash.exact }

let bits_of (e : Crash.estimate) (x : Crash.exact) =
  [
    e.Crash.est_p_defeat;
    Option.value ~default:nan e.Crash.est_mean;
    float_of_int e.Crash.est_defeated;
    x.Crash.p_defeat;
    Option.value ~default:nan x.Crash.degraded_mean;
  ]

(* The checks of one op: the sampled rate within tolerance of the exact
   probability; the exact result identical on every visit of a mapping;
   and, on a mapping's first visit, the exact probability equal to the
   engine's enumeration of every failure set. *)
let checker maps =
  let first_exact = Hashtbl.create 8 in
  fun { mapping = j; est; ex } ->
    if not (within_tolerance ~exact:ex.Crash.p_defeat est) then
      Some
        (Printf.sprintf "sampled p_defeat %.4f outside tolerance of exact %.4f"
           est.Crash.est_p_defeat ex.Crash.p_defeat)
    else
      match Hashtbl.find_opt first_exact j with
      | Some (first : Crash.exact) ->
          if Int64.bits_of_float first.Crash.p_defeat <> Int64.bits_of_float ex.Crash.p_defeat
          then Some "exact estimate changed between two visits of a mapping"
          else None
      | None ->
          Hashtbl.replace first_exact j ex;
          enumeration_agrees maps.(j) ex

let setup ~seed ~spans ~tick =
  let pool = Domain_pool.create ~num_domains:2 () in
  tick ();
  let maps = mappings ~seed ~count:mappings_per_run ~tick in
  let check = checker maps in
  let last = ref None in
  let op i =
    let j = i mod Array.length maps in
    let est =
      Spans.with_span spans "crash.sampled" (fun () -> sampled ~pool ~seed:(op_seed ~seed i) maps.(j))
    in
    let ex = Spans.with_span spans "crash.exact" (fun () -> exact maps.(j)) in
    last := Some { mapping = j; est; ex }
  in
  (* The same estimates at -j 1 and on the pool of two, back to back in
     alternating order: their time ratio is the pool's speed-up, and
     their results must be bit-identical. *)
  let extras ~count_ops ~fail =
    let t1 = ref 0.0 and t2 = ref 0.0 in
    List.iteri
      (fun k i ->
        let m = maps.(i mod Array.length maps) and seed = op_seed ~seed i in
        let time f =
          let t0 = Pb_clock.now () in
          let r = f () in
          (r, Pb_clock.now () -. t0)
        in
        let solo () =
          let r, dt = time (fun () -> sampled ~jobs:1 ~seed m) in
          t1 := !t1 +. dt;
          r
        in
        let pooled () =
          let r, dt = time (fun () -> sampled ~pool ~seed m) in
          t2 := !t2 +. dt;
          r
        in
        let a, b =
          if k mod 2 = 0 then
            let a = solo () in
            (a, pooled ())
          else
            let b = pooled () in
            (solo (), b)
        in
        let ex = exact m in
        if List.map Int64.bits_of_float (bits_of a ex) <> List.map Int64.bits_of_float (bits_of b ex)
        then fail (Printf.sprintf "op %d: -j 1 and -j 2 estimates differ" i))
      count_ops;
    let n = float_of_int (max 1 (List.length count_ops)) in
    (* Events and arena reuse of -j 1 estimates, whose replays run on
       this domain, where the counters can be read; the pool's workers
       keep theirs until they exit. *)
    Obs.set_enabled true;
    let keys = [ "sim.arena.creates"; "sim.arena.reuses"; "sim.events_popped" ] in
    let before = List.map counter keys in
    List.iter (fun i -> ignore (sampled ~jobs:1 ~seed:(op_seed ~seed i) maps.(i mod Array.length maps))) count_ops;
    let creates, reuses, events =
      match List.map2 (fun k b -> counter k - b) keys before with
      | [ c; r; e ] -> (float_of_int c, float_of_int r, float_of_int e)
      | _ -> assert false
    in
    Obs.set_enabled false;
    [
      metric "engine.events" "count" (events /. n);
      metric "engine.ns_per_event" "ns" (1e9 *. !t1 /. events);
      metric "pool.speedup" "ratio" (!t1 /. !t2);
      metric "engine.draw_us" "us" (1e6 *. !t2 /. (n *. float_of_int draws));
      metric "engine.alloc_kb" "KB"
        (min_alloc (fun () -> ignore (sampled ~jobs:1 ~seed:(op_seed ~seed 0) maps.(0)))
        /. float_of_int draws /. 1024.0);
      metric "arena.reuse_ratio" "ratio" (reuses /. Float.max 1.0 (creates +. reuses));
    ]
  in
  {
    op;
    check = (fun _ -> Option.bind !last check);
    extras;
    close = (fun () -> Domain_pool.shutdown pool);
  }

let pinned = "10d502f566bb18a6a6ded14b45c8ae9f"

(* Every reference mapping estimated once each way; the error metric is
   the mean distance between the sampled and the exact defeat
   probability. *)
let reference () =
  let seed = reference_seed in
  let maps = mappings ~seed ~count:mappings_per_run ~tick:ignore in
  let check = checker maps in
  let failures = ref [] and floats = ref [] and err = ref 0.0 in
  Array.iteri
    (fun j m ->
      let est = sampled ~jobs:1 ~seed:(op_seed ~seed j) m and ex = exact m in
      Option.iter
        (fun e -> failures := Printf.sprintf "mapping %d: %s" j e :: !failures)
        (check { mapping = j; est; ex });
      floats := !floats @ bits_of est ex;
      err := !err +. Float.abs (est.Crash.est_p_defeat -. ex.Crash.p_defeat))
    maps;
  {
    digest = digest_floats !floats;
    pinned;
    result =
      metric "estimate_abs_err" "ratio" (!err /. float_of_int (Array.length maps));
    ops = Array.length maps;
    failures = List.rev !failures;
  }

let workload = { name = "crash-estimate"; warmup = 1; cycle = 40; count_ops = 40; setup; reference }
