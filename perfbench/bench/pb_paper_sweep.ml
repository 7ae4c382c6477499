(* paper-sweep: one Fig. 4(c) trial per op (eps = 3, c = 2, the paper's
   layered workload), cycling the paper's ten granularities.  The op
   replays the steps of [Fig_common.run_trial] with a span around every
   public call, so the trace splits the trial into generation,
   scheduling (LTF, R-LTF, the eps = 0 reference) and the stage-latency
   measurements. *)

open Perfbench_core

let eps = 3
let crashes = 2

let config ~seed =
  { (Fig_common.default ~eps ~crashes) with Fig_common.seed }

let granularities = Array.of_list Paper_workload.granularities

(* Task counts 50, 60, ..., 150: the paper's range, spread instead of
   drawn (see [Pb_workload.stratified_size]). *)
let sizes = 11

(* Op [i] is the trial of graph [i / 10] at granularity [i mod 10] with
   the [i mod 11]-th task count: every op schedules a new instance, and
   every 110 ops run each (granularity, size) pair once. *)
let trial config i =
  {
    Fig_common.config =
      {
        config with
        Fig_common.spec =
          Pb_workload.stratified_size ~count:sizes ~stride:1 i config.Fig_common.spec;
      };
    granularity = granularities.(i mod Array.length granularities);
    rep = i / Array.length granularities;
  }

type outcome = {
  sample : Fig_common.sample;
  mappings : (string * Mapping.t * float) list;
      (** every mapping the trial produced, with its target throughput *)
}

(* The body of [Fig_common.run_trial], call for call and draw for draw,
   with spans around the layers. *)
let run_trial spans (t : Fig_common.trial) =
  let span name f = Spans.with_span spans name f in
  let config = t.Fig_common.config and granularity = t.Fig_common.granularity in
  let throughput = Spec.throughput config.Fig_common.spec ~eps:config.Fig_common.eps in
  let rng = Rng.create ~seed:(Fig_common.trial_seed t) in
  let inst =
    span "spec.generate" (fun () ->
        Spec.generate config.Fig_common.spec ~rng ~granularity ())
  in
  let ltf_rng = Rng.split rng in
  let rltf_rng = Rng.split rng in
  let prob =
    Types.problem ~dag:inst.Paper_workload.dag ~platform:inst.Paper_workload.plat
      ~eps:config.Fig_common.eps ~throughput
  in
  let opts = config.Fig_common.sched in
  let ltf_out = span "sched.ltf" (fun () -> Ltf.schedule ~opts prob) in
  let ltf =
    span "stage_latency" (fun () ->
        Fig_common.measure_algo config ~throughput ~rng:ltf_rng ltf_out)
  in
  let rltf_out = span "sched.rltf" (fun () -> Rltf.schedule ~opts prob) in
  let rltf =
    span "stage_latency" (fun () ->
        Fig_common.measure_algo config ~throughput ~rng:rltf_rng rltf_out)
  in
  let ff_throughput = Spec.throughput config.Fig_common.spec ~eps:0 in
  let ff_out =
    span "sched.ref" (fun () ->
        Fault_free.run ~opts ~dag:inst.Paper_workload.dag
          ~platform:inst.Paper_workload.plat ~throughput:ff_throughput ())
  in
  let ff_sim =
    match ff_out with
    | Error _ -> nan
    | Ok ff ->
        span "stage_latency" (fun () ->
            Option.value ~default:nan
              (Stage_latency.latency_of_plan (Stage_latency.cached_plan ff)
                 ~throughput:ff_throughput))
  in
  let mappings =
    List.filter_map
      (fun (label, out, tp) ->
        match out with Ok m -> Some (label, m, tp) | Error _ -> None)
      [ ("ltf", ltf_out, throughput); ("rltf", rltf_out, throughput);
        ("ref", ff_out, ff_throughput) ]
  in
  { sample = { Fig_common.granularity; ltf; rltf; ff_sim }; mappings }

(* Every mapping is structurally sound and survives every set of up to
   eps crashes; the throughput check agrees with the trial's [meets]
   flag (best-effort mode may miss the target throughput, and says so);
   and since the crashes never exceed eps, no crash draw defeated
   R-LTF or LTF. *)
let check_outcome o =
  let s = o.sample in
  let verdict (label, m, throughput) =
    match Validate.structure m with
    | e :: _ -> Some (label ^ ": " ^ Validate.error_to_string e)
    | [] -> (
        match Validate.fault_tolerance m with
        | e :: _ -> Some (label ^ ": " ^ Validate.error_to_string e)
        | [] ->
            let meets = Validate.throughput m ~throughput = [] in
            let claimed =
              match label with
              | "ltf" -> Some s.Fig_common.ltf.Fig_common.meets
              | "rltf" -> Some s.Fig_common.rltf.Fig_common.meets
              | _ -> None
            in
            if Option.fold ~none:false ~some:(fun c -> c <> meets) claimed then
              Some (label ^ ": meets flag disagrees with Validate.throughput")
            else None)
  in
  match List.find_map verdict o.mappings with
  | Some _ as bad -> bad
  | None ->
      let defeats r = r.Fig_common.defeat_rate > 0.0 in
      if defeats s.Fig_common.ltf || defeats s.Fig_common.rltf then
        Some "a crash draw defeated an eps-tolerant mapping"
      else None

(* KB the three schedule calls of op [i]'s trial allocate, with tracing
   off. *)
let sched_alloc_kb config i =
  let t = trial config i in
  let c = t.Fig_common.config in
  let inst =
    Spec.generate c.Fig_common.spec ~rng:(Rng.create ~seed:(Fig_common.trial_seed t))
      ~granularity:t.Fig_common.granularity ()
  in
  let dag = inst.Paper_workload.dag and platform = inst.Paper_workload.plat in
  let throughput = Spec.throughput c.Fig_common.spec ~eps in
  let prob = Types.problem ~dag ~platform ~eps ~throughput in
  let opts = c.Fig_common.sched in
  Pb_workload.min_alloc (fun () ->
      ignore (Ltf.schedule ~opts prob);
      ignore (Rltf.schedule ~opts prob);
      ignore
        (Fault_free.run ~opts ~dag ~platform
           ~throughput:(Spec.throughput c.Fig_common.spec ~eps:0) ()))
  /. 1024.0

let setup ~seed ~spans ~tick:_ =
  let config = config ~seed in
  let last = ref None in
  let extras ~count_ops ~fail:_ =
    match count_ops with
    | [] -> []
    | i :: _ -> [ Pb_workload.metric "sched.alloc_kb" "KB" (sched_alloc_kb config i) ]
  in
  {
    Pb_workload.op = (fun i -> last := Some (run_trial spans (trial config i)));
    check = (fun _ -> Option.bind !last check_outcome);
    extras;
    close = ignore;
  }

let float_bits (r : Fig_common.trial_result) =
  [ r.Fig_common.bound; r.sim; r.crash; r.defeat_rate; (if r.meets then 1.0 else 0.0) ]

let sample_floats (s : Fig_common.sample) =
  (s.Fig_common.granularity :: float_bits s.ltf) @ float_bits s.rltf @ [ s.ff_sim ]

let pinned = "ed19e1eb62c4b303e68cd45b52b6e56a"

(* One trial per granularity on the reference seed, each replayed through
   [Fig_common.run_trial] itself as the oracle. *)
let reference () =
  let config = config ~seed:Pb_workload.reference_seed in
  let spans = Spans.create ~enabled:false ~clock:Pb_clock.now () in
  let failures = ref [] and floats = ref [] and ratios = ref [] in
  Array.iteri
    (fun i _ ->
      let t = trial config i in
      let o = run_trial spans t in
      let oracle = Fig_common.run_trial t in
      let bits s = List.map Int64.bits_of_float (sample_floats s) in
      if bits o.sample <> bits oracle then failures := Printf.sprintf "trial %d differs from Fig_common.run_trial" i :: !failures;
      Option.iter (fun e -> failures := e :: !failures) (check_outcome o);
      floats := !floats @ sample_floats o.sample;
      let s = o.sample in
      let r = s.Fig_common.rltf.Fig_common.crash /. s.Fig_common.ff_sim in
      if Float.is_finite r then ratios := r :: !ratios)
    granularities;
  let n = List.length !ratios in
  {
    Pb_workload.digest = Pb_workload.digest_floats !floats;
    pinned;
    result =
      Pb_workload.metric "latency_overhead" "ratio"
        (List.fold_left ( +. ) 0.0 !ratios /. float_of_int (max 1 n));
    ops = Array.length granularities;
    failures = List.rev !failures;
  }

let workload =
  { Pb_workload.name = "paper-sweep"; warmup = 10; cycle = 110; count_ops = 10; setup; reference }
