(* A ranking is a score plus the finish threshold beyond which a trial of
   a given stage loses strictly to an incumbent score.  Soundness: a
   finish above [cutoff ~stage incumbent] scores >lex the incumbent, and
   [cutoff] never rises with the stage, so floors on the stage and the
   finish of a trial decide as the trial itself would. *)
type rank = {
  score : stage:int -> finish:float -> float * float;
  cutoff : stage:int -> float * float -> float;
}

let by_finish_time : rank =
  {
    score = (fun ~stage:_ ~finish -> (finish, 0.0));
    cutoff = (fun ~stage:_ (finish, _) -> finish);
  }

let by_stage_then_finish : rank =
  {
    score = (fun ~stage ~finish -> (float_of_int stage, finish));
    cutoff =
      (fun ~stage (best_stage, finish) ->
        let stage = float_of_int stage in
        if stage > best_stage then neg_infinity
        else if stage = best_stage then finish
        else infinity);
  }

(* Per-chunk-task working data.  [ct_claimed] is the union of the kill
   sets of the already-placed replicas of the task: the locking discipline
   of §4 ("locked" processors) generalized transitively — a new replica may
   neither be placed on, nor sole-source (directly or transitively)
   through, a processor whose failure already kills a sibling replica.
   Keeping the replicas' kill sets pairwise disjoint is what guarantees
   that no ε failures can silence all ε+1 of them. *)
type chunk_task = {
  ct_task : Dag.task;
  mutable ct_z : int;
  ct_theta : int;
  mutable ct_claimed : State.Pset.t;
  ct_heads : (Dag.task * Replica.id list ref) list;
      (* per predecessor: remaining singleton replicas, sorted by the
         one-to-one communication-readiness key *)
}

let record_placement state ct (trial : State.trial) =
  ct.ct_claimed <-
    State.Pset.union ct.ct_claimed
      (State.support_of_sources state ~proc:trial.State.t_proc
         ~sources:trial.State.t_sources)

(* [count] is a caller-owned scratch array of length n_procs, zeroed on
   entry and re-zeroed before returning: at a million tasks the per-task
   O(m) allocation (and clearing) would dominate the whole chunk phase. *)
let singleton_data state count task =
  let prob = State.problem state in
  let dag = prob.Types.dag in
  let mapping = State.mapping state in
  let preds = List.map fst (Dag.preds dag task) in
  List.iter
    (fun pred ->
      List.iter
        (fun (r : Replica.t) -> count.(r.proc) <- count.(r.proc) + 1)
        (Mapping.replicas_of_task mapping pred))
    preds;
  let heads =
    List.map
      (fun pred ->
        let on_singletons =
          Mapping.replicas_of_task mapping pred
          |> List.filter (fun (r : Replica.t) -> count.(r.proc) = 1)
        in
        (* [send_ready] folds over the whole send timeline: compute each
           key once, not twice per comparison. *)
        let sorted =
          List.map
            (fun (r : Replica.t) ->
              let ready =
                Float.max (State.finish state r.id) (State.send_ready state r.proc)
              in
              (ready, r.id))
            on_singletons
          |> List.sort compare |> List.map snd
        in
        (pred, ref sorted))
      preds
  in
  let theta =
    match heads with
    | [] -> prob.Types.eps + 1 (* entry task: no communications to pair up *)
    | _ ->
        List.fold_left
          (fun acc (_, ids) -> min acc (List.length !ids))
          max_int heads
  in
  List.iter
    (fun pred ->
      List.iter
        (fun (r : Replica.t) -> count.(r.proc) <- 0)
        (Mapping.replicas_of_task mapping pred))
    preds;
  { ct_task = task; ct_z = 0; ct_theta = theta; ct_claimed = State.Pset.empty;
    ct_heads = heads }

type incumbent = { penalty : float; score : float * float; trial : State.trial }

(* The one rule behind both the candidate prune and the in-probe cut: the
   finish threshold above which a trial of the given penalty and stage
   loses strictly to the incumbent under (penalty, rank).  Strictly, so
   the processor-index tie-break cannot rescue it; the threshold never
   rises with the penalty or the stage, so floors on both are sound. *)
let cutoff ~(rank : rank) best ~penalty ~stage =
  match best with
  | None -> infinity
  | Some b ->
      if penalty > b.penalty then neg_infinity
      else if penalty < b.penalty then infinity
      else rank.cutoff ~stage b.score

(* A candidate processor can be skipped without probing when the floors
   {!candidate_bound} computes for it already lose: every penalty is ≥ 0,
   and the floors are ≤ the stage and finish of every trial there. *)
let prunable ~rank best ~stage_lb ~finish_lb =
  finish_lb > cutoff ~rank best ~penalty:0.0 ~stage:stage_lb

(* Incremental form of the historical pick-best fold: [offer] feeds
   complete probes in their generation order (ascending processor, then
   variant order), keeping the winner under (penalty, rank) with ties
   broken by processor index — the same winner the materialize-then-fold
   version selected.  Only a probe that takes the lead is kept as a
   trial. *)
let offer ~(rank : rank) state best ~penalty ~proc =
  let r1, r2 =
    rank.score ~stage:(State.probe_stage state) ~finish:(State.probe_finish state)
  in
  (* (penalty, r1, r2, proc) <lex the incumbent's, spelled out instead of
     a polymorphic tuple comparison on every probe *)
  let leads =
    match !best with
    | None -> true
    | Some { penalty = bp; score = b1, b2; trial } ->
        if penalty <> bp then penalty < bp
        else if r1 <> b1 then r1 < b1
        else if r2 <> b2 then r2 < b2
        else proc < trial.State.t_proc
  in
  if leads then
    best := Some { penalty; score = (r1, r2); trial = State.trial state }

(* The per-candidate floors feeding {!prunable}.  [preds] holds, for each
   predecessor, the transfer volume and the admissible source replicas as
   (finish, stage, host) triples: every source set the placement branches
   may try draws at least one of them per predecessor, so data readiness
   is floored by the per-predecessor minimum arrival (finish plus the
   transfer time, zero when co-located) and the stage by the minimum
   stage (+1 when remote).  The execution then starts no earlier than the
   first fit on the candidate's committed compute timeline at that floor
   ([earliest_fit] is monotone in [ready], and probes never write the
   compute timeline). *)
let candidate_bound state ~preds ~work proc =
  let plat = (State.problem state).Types.platform in
  let fin = ref 0.0 and stg = ref 1 in
  List.iter
    (fun (vol, reps) ->
      let f = ref infinity and s = ref max_int in
      List.iter
        (fun (rf, rs, rp) ->
          if rp = proc then begin
            if rf < !f then f := rf;
            if rs < !s then s := rs
          end
          else begin
            let arr = rf +. Platform.comm_time plat rp proc vol in
            if arr < !f then f := arr;
            if rs + 1 < !s then s := rs + 1
          end)
        reps;
      if reps <> [] then begin
        if !f > !fin then fin := !f;
        if !s > !stg then stg := !s
      end)
    preds;
  let exec = Platform.exec_time plat proc work in
  (!stg, State.earliest_start state proc ~ready:!fin ~duration:exec +. exec)

(* Hosts of the admissible sources, probed ahead of the main sweep: a
   co-located placement pays no transfer, so it usually sets a strong
   zero-penalty incumbent that lets the bound discard most of the
   remaining sweep.  The selected trial is order-independent — the winner
   is the minimum under ((penalty, rank), processor index), which no
   traversal permutation changes. *)
let source_hosts preds =
  List.sort_uniq compare
    (List.concat_map (fun (_, reps) -> List.map (fun (_, _, p) -> p) reps) preds)

(* Condition-(1) admission of the current probe, shared by both placement
   branches: in strict mode an infeasible probe is rejected, in
   best-effort mode it survives (ranked by overload) but still counts as
   a rejection for the profile. *)
let admit ~(mode : Sched_api.mode) state =
  match mode with
  | Strict ->
      State.feasible state
      || begin
           Obs.incr "core.feasibility_rejections";
           false
         end
  | Best_effort ->
      if Obs.enabled () && not (State.feasible state) then
        Obs.incr "core.feasibility_rejections";
      true

type outcome = Rejected | Cut | Offered

(* Branch and bound on one probe whose sources are collected: admission
   and the penalty need no start time, so a probe that already loses on
   penalty or stage is cut before any timeline work, and one whose
   transfers push its finish past the incumbent's cutoff is cut midway.
   A cut probe would have scored strictly worse than the incumbent, which
   only improves, so the winner is the one every probe run to the end
   would select. *)
let contest ~(mode : Sched_api.mode) ~rank state best ~proc =
  if not (admit ~mode state) then Rejected
  else begin
    let penalty =
      match mode with Strict -> 0.0 | Best_effort -> State.overload state
    in
    let stage = State.probe_stage state in
    let cutoff = cutoff ~rank !best ~penalty ~stage in
    if State.complete state ~cutoff then begin
      offer ~rank state best ~penalty ~proc;
      Offered
    end
    else begin
      Obs.incr "core.probe_cutoffs";
      Cut
    end
  end

(* Each replica may sole-source (transitively) through at most a "lane" of
   [m / (ε+1)] processors: the kill sets of the ε+1 replicas of a task must
   be pairwise disjoint subsets of the m processors, so unbounded chains
   leave no room for the remaining siblings.  When the budget runs out, the
   full-replica-group fallback resets the chain (no single failure can
   silence a full group). *)
let lane_budget ~(opts : Sched_api.options) prob =
  let m = Platform.size prob.Types.platform in
  max 1
    (int_of_float
       (Float.round
          (opts.lane_budget_factor *. float_of_int m
          /. float_of_int (prob.Types.eps + 1))))

(* Algorithm 4.2: map one replica so that each head replica of every
   predecessor feeds exactly this replica.  A head is only usable while its
   kill set stays disjoint from the processors already claimed by sibling
   replicas and small enough to fit the lane budget; stale heads are
   dropped lazily. *)
let one_to_one ~(opts : Sched_api.options) ~(rank : rank) ~procs state ct
    ~copy =
  Obs.incr "core.one_to_one_calls";
  let mode = opts.mode in
  let prob = State.problem state in
  let budget = lane_budget ~opts prob in
  let usable (id : Replica.id) =
    let s = State.support state id in
    State.Pset.disjoint s ct.ct_claimed && State.Pset.cardinal s < budget
  in
  List.iter (fun (_, ids) -> ids := List.filter usable !ids) ct.ct_heads;
  if List.exists (fun (_, ids) -> !ids = []) ct.ct_heads then None
  else begin
    let sources =
      List.map (fun (pred, ids) -> (pred, [ List.hd !ids ])) ct.ct_heads
    in
    let dag = prob.Types.dag in
    let work = Dag.exec dag ct.ct_task in
    (* The bound data for this fixed source set: exactly one admissible
       replica per predecessor. *)
    let preds =
      List.map
        (fun (pred, ids) ->
          let src = List.hd ids in
          ( Dag.volume dag pred ct.ct_task,
            [
              ( State.finish state src,
                State.stage state src,
                (Mapping.replica_exn (State.mapping state) src.Replica.task
                   src.Replica.copy)
                  .Replica.proc );
            ] ))
        sources
    in
    let best = ref None in
    let consider proc =
      if not (State.Pset.mem proc ct.ct_claimed) then begin
        let stage_lb, finish_lb = candidate_bound state ~preds ~work proc in
        if prunable ~rank !best ~stage_lb ~finish_lb then
          Obs.incr "core.probe_prunes"
        else begin
          let kill = State.support_of_sources state ~proc ~sources in
          if State.Pset.cardinal kill <= budget then begin
            State.probe state ~task:ct.ct_task ~copy ~proc ~sources;
            ignore (contest ~mode ~rank state best ~proc)
          end
        end
      end
    in
    let hosts = source_hosts preds in
    List.iter consider hosts;
    List.iter (fun p -> if not (List.mem p hosts) then consider p) procs;
    match Option.map (fun b -> b.trial) !best with
    | None -> None
    | Some trial ->
        State.commit state trial;
        record_placement state ct trial;
        List.iter (fun (_, ids) -> ids := List.tl !ids) ct.ct_heads;
        Some trial
  end

(* General branch: the replica receives, for each predecessor, either from
   a co-located predecessor replica whose kill set is still unclaimed (a
   single comm-free source), or from the cheapest remote replica with an
   unclaimed kill set (a single message), or from all replicas of the
   predecessor (heavy on communication, but immune to single failures).
   Two source-set variants are tried per candidate processor — the greedy
   single-source one and the conservative local-or-full one — because
   claiming long kill chains can paint later siblings into a corner while
   full groups keep them free.  A kill chain through the candidate
   processor itself is harmless (the replica dies with its host anyway)
   and is exempt from the disjointness requirement. *)
let general ~(opts : Sched_api.options) ~(rank : rank) ~procs state ct ~copy =
  Obs.incr "core.general_calls";
  let mode = opts.mode in
  let prob = State.problem state in
  let mapping = State.mapping state in
  let plat = prob.Types.platform in
  let pred_replicas =
    List.map
      (fun (pred, vol) -> (pred, vol, Mapping.replicas_of_task mapping pred))
      (Dag.preds prob.Types.dag ct.ct_task)
  in
  let budget = lane_budget ~opts prob in
  let variants_on proc =
    let others = State.Pset.remove proc ct.ct_claimed in
    let disjoint (r : Replica.t) =
      State.Pset.disjoint (State.support state r.id) others
    in
    (* Greedy variant: fold over the predecessors accumulating the kill
       set, sole-sourcing only while the lane budget allows and preferring
       the source that grows the chain least, then the cheapest transfer. *)
    let greedy =
      let acc = ref (State.Pset.singleton proc) in
      List.map
        (fun (pred, vol, replicas) ->
          let full =
            (pred, List.map (fun (r : Replica.t) -> r.Replica.id) replicas)
          in
          let fits (r : Replica.t) =
            State.Pset.cardinal
              (State.Pset.union !acc (State.support state r.id))
            <= budget
          in
          let candidates =
            List.filter (fun r -> disjoint r && fits r) replicas
            |> List.map (fun (r : Replica.t) ->
                   let growth =
                     State.Pset.cardinal
                       (State.Pset.diff (State.support state r.id) !acc)
                   in
                   let comm =
                     if r.proc = proc then 0.0
                     else Platform.comm_time plat r.proc proc vol
                   in
                   ((growth, comm), r))
            |> List.sort (fun (ka, (ra : Replica.t)) (kb, rb) ->
                   match compare ka kb with
                   | 0 -> Replica.compare_id ra.id rb.Replica.id
                   | c -> c)
          in
          match candidates with
          | (_, r) :: _ ->
              acc := State.Pset.union !acc (State.support state r.id);
              (pred, [ r.Replica.id ])
          | [] -> full)
        pred_replicas
    in
    (* Conservative variant: local sole source when free, else the full
       group; keeps the claim small for later siblings. *)
    let conservative =
      let acc = ref (State.Pset.singleton proc) in
      List.map
        (fun (pred, _, replicas) ->
          let local =
            List.find_opt
              (fun (r : Replica.t) ->
                r.proc = proc && disjoint r
                && State.Pset.cardinal
                     (State.Pset.union !acc (State.support state r.id))
                   <= budget)
              replicas
          in
          match local with
          | Some r ->
              acc := State.Pset.union !acc (State.support state r.id);
              (pred, [ r.Replica.id ])
          | None ->
              (pred, List.map (fun (r : Replica.t) -> r.Replica.id) replicas))
        pred_replicas
    in
    match opts.source_policy with
    | Greedy_only -> [ greedy ]
    | Conservative_only -> [ conservative ]
    | Both_variants ->
        if greedy = conservative then [ greedy ] else [ greedy; conservative ]
  in
  (* Bound data valid for every source-set variant: each predecessor must
     deliver from at least one of its replicas. *)
  let preds =
    List.map
      (fun (_, vol, replicas) ->
        ( vol,
          List.map
            (fun (r : Replica.t) ->
              (State.finish state r.id, State.stage state r.id, r.proc))
            replicas ))
      pred_replicas
  in
  let work = Dag.exec prob.Types.dag ct.ct_task in
  let best = ref None in
  let consider proc =
    if not (State.Pset.mem proc ct.ct_claimed) then begin
      let stage_lb, finish_lb = candidate_bound state ~preds ~work proc in
      if prunable ~rank !best ~stage_lb ~finish_lb then
        Obs.incr "core.probe_prunes"
      else
        List.iter
          (fun sources ->
            let kill_set = State.support_of_sources state ~proc ~sources in
            if
              State.Pset.disjoint
                (State.Pset.remove proc kill_set)
                ct.ct_claimed
            then begin
              State.probe state ~task:ct.ct_task ~copy ~proc ~sources;
              ignore (contest ~mode ~rank state best ~proc)
            end)
          (variants_on proc)
    end
  in
  let hosts = source_hosts preds in
  List.iter consider hosts;
  List.iter (fun p -> if not (List.mem p hosts) then consider p) procs;
  match Option.map (fun b -> b.trial) !best with
  | None -> None
  | Some trial ->
      State.commit state trial;
      record_placement state ct trial;
      Some trial

let schedule ?(opts = Sched_api.default) ~rank (prob : Types.problem) =
  Obs.touch "core.placement_probes";
  Obs.touch "core.probe_prunes";
  Obs.touch "core.probe_cutoffs";
  Obs.touch "core.feasibility_rejections";
  Obs.touch "core.one_to_one_calls";
  Obs.touch "core.general_calls";
  Obs.touch "core.commits";
  Obs.touch "core.chunks";
  let dag = prob.Types.dag and plat = prob.Types.platform in
  let state = State.create prob in
  let priority = Levels.priority dag (Levels.averaged_weights dag plat) in
  let procs = Platform.procs plat in
  let count_scratch = Array.make (Platform.size plat) 0 in
  let higher a b =
    if priority.(a) <> priority.(b) then compare priority.(b) priority.(a)
    else compare a b
  in
  let module Tset = Set.Make (struct
    type t = Dag.task

    let compare = higher
  end) in
  let ready = ref Tset.empty in
  List.iter (fun t -> ready := Tset.add t !ready) (Dag.entries dag);
  let n_pending_preds = Array.init (Dag.size dag) (Dag.in_degree dag) in
  let chunk_bound = Platform.size plat in
  let failure = ref None in
  let unscheduled = ref (Dag.size dag) in
  while !failure = None && not (Tset.is_empty !ready) do
    Obs.with_span "core.scheduler.chunk" (fun () ->
        (* Select the chunk β of highest-priority ready tasks. *)
        let rec take k acc =
          if k = 0 || Tset.is_empty !ready then List.rev acc
          else begin
            let t = Tset.min_elt !ready in
            ready := Tset.remove t !ready;
            take (k - 1) (t :: acc)
          end
        in
        let beta =
          take chunk_bound [] |> List.map (singleton_data state count_scratch)
        in
        Obs.incr "core.chunks";
        Obs.observe "core.chunk_size" (float_of_int (List.length beta));
        (* Copy-major placement, as in Algorithm 4.1. *)
        let rec copies n =
          if n <= prob.Types.eps && !failure = None then begin
            List.iter
              (fun ct ->
                if !failure = None then begin
                  let placed =
                    if opts.use_one_to_one && ct.ct_z < ct.ct_theta then begin
                      match one_to_one ~opts ~rank ~procs state ct ~copy:n with
                      | Some _ ->
                          ct.ct_z <- ct.ct_z + 1;
                          true
                      | None ->
                          Option.is_some
                            (general ~opts ~rank ~procs state ct ~copy:n)
                    end
                    else
                      Option.is_some
                        (general ~opts ~rank ~procs state ct ~copy:n)
                  in
                  if not placed then
                    failure := Some (Types.No_feasible_processor (ct.ct_task, n))
                end)
              beta;
            copies (n + 1)
          end
        in
        copies 0;
        if !failure = None then
          List.iter
            (fun ct ->
              unscheduled := !unscheduled - 1;
              List.iter
                (fun (succ, _) ->
                  n_pending_preds.(succ) <- n_pending_preds.(succ) - 1;
                  if n_pending_preds.(succ) = 0 then ready := Tset.add succ !ready)
                (Dag.succs dag ct.ct_task))
            beta)
  done;
  match !failure with
  | Some f -> Error f
  | None ->
      assert (!unscheduled = 0);
      Ok state
