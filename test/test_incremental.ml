open Test_support

(* The incremental scheduling-state engine: Loads add/remove/tentative
   equivalence with the from-scratch recompute, the cached max-cycle-time
   invariant, Bitset agreement with the Set.Make(Int) reference, and the
   pinned figure/schedule regression guaranteeing the engine produces
   bit-identical results. *)

let to_alcotest = QCheck_alcotest.to_alcotest

let case = Fixtures.case
let slow_case = Fixtures.slow_case
let check_true = Fixtures.check_true

let seed_arb = QCheck.int_range 0 100_000

(* ------------------------------------------------------------------ *)
(* Incremental Loads vs of_mapping                                     *)
(* ------------------------------------------------------------------ *)

(* A complete mapping to replay replica-by-replica: LTF best-effort on a
   random layered graph (best-effort only fails on replication-rule dead
   ends, which a 6-processor platform avoids at these sizes). *)
let mapping_of_seed seed =
  let rng = Rng.create ~seed in
  let tasks = 2 + Rng.int rng 19 in
  let dag = Random_dag.layered ~rng ~tasks () in
  let prob =
    Types.problem ~dag ~platform:(Fixtures.uniform 6) ~eps:1 ~throughput:0.01
  in
  match
    Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob
  with
  | Ok m -> Some m
  | Error _ -> None

let replicas_of m =
  let acc = ref [] in
  Mapping.iter m (fun r -> acc := r :: !acc);
  List.rev !acc

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let agrees (l : Loads.t) (ref_l : Loads.t) =
  let arrays_close x y =
    Array.for_all2 (fun a b -> close a b) x y
  in
  arrays_close l.Loads.sigma ref_l.Loads.sigma
  && arrays_close l.Loads.c_in ref_l.Loads.c_in
  && arrays_close l.Loads.c_out ref_l.Loads.c_out

let recomputed_max (l : Loads.t) =
  let best = ref 0.0 in
  Array.iteri (fun u _ -> best := Float.max !best (Loads.cycle_time l u)) l.Loads.sigma;
  !best

let prop_incremental_equals_scratch =
  QCheck.Test.make
    ~name:"random add/remove/tentative sequence matches of_mapping" ~count:60
    seed_arb (fun seed ->
      match mapping_of_seed seed with
      | None -> true
      | Some m ->
          let rng = Rng.create ~seed:(seed + 7919) in
          let l =
            Loads.create ~n_procs:(Platform.size (Mapping.platform m))
          in
          (* Replay every replica into [l]; along the way, churn with
             remove/re-add pairs and bitwise-neutral tentative probes. *)
          let rebounds = ref 0 in
          let ok = ref true in
          let check_cache () =
            if l.Loads.max_valid then
              ok :=
                !ok && Loads.max_cycle_time l = recomputed_max l
          in
          let rec drain = function
            | [] -> ()
            | r :: rest -> (
                match Rng.int rng 4 with
                | 0 ->
                    (* Tentative probe first: must leave every entry
                       bitwise unchanged. *)
                    let snap_sigma = Array.copy l.Loads.sigma
                    and snap_in = Array.copy l.Loads.c_in
                    and snap_out = Array.copy l.Loads.c_out in
                    let probed =
                      Loads.with_tentative l m r (fun l' ->
                          Loads.max_cycle_time l')
                    in
                    ok :=
                      !ok && probed >= 0.0
                      && l.Loads.sigma = snap_sigma
                      && l.Loads.c_in = snap_in
                      && l.Loads.c_out = snap_out;
                    Loads.add_replica l m r;
                    check_cache ();
                    drain rest
                | 1 when !rebounds < 40 ->
                    (* Add, remove again, and retry later. *)
                    incr rebounds;
                    Loads.add_replica l m r;
                    Loads.remove_replica l m r;
                    check_cache ();
                    drain (rest @ [ r ])
                | _ ->
                    Loads.add_replica l m r;
                    check_cache ();
                    drain rest)
          in
          drain (replicas_of m);
          let scratch = Loads.of_mapping m in
          !ok && agrees l scratch
          && close (Loads.max_cycle_time l) (Loads.max_cycle_time scratch))

let prop_tentative_matches_committed =
  QCheck.Test.make
    ~name:"with_tentative sees the same loads as a committed add" ~count:60
    seed_arb (fun seed ->
      match mapping_of_seed seed with
      | None -> true
      | Some m -> (
          match List.rev (replicas_of m) with
          | [] -> true
          | last :: _ ->
              let n_procs = Platform.size (Mapping.platform m) in
              let build skip_last =
                let l = Loads.create ~n_procs in
                List.iter
                  (fun (r : Replica.t) ->
                    if not (skip_last && r == last) then Loads.add_replica l m r)
                  (replicas_of m);
                l
              in
              let committed = build false in
              let l = build true in
              Loads.with_tentative l m last (fun l' ->
                  agrees l' committed
                  && Loads.max_cycle_time l'
                     = Loads.max_cycle_time committed)))

(* ------------------------------------------------------------------ *)
(* Flat State arrays vs a from-mapping reference                       *)
(* ------------------------------------------------------------------ *)

module Rset = Set.Make (Int)

(* The committed stage/support values live in flat arrays indexed by
   [task * copies + copy]; recompute both from the mapping's source lists
   alone (memoized recursion over Set.Make(Int) for the kill sets) and
   check the arrays agree replica by replica. *)
let prop_flat_state_matches_reference =
  QCheck.Test.make
    ~name:"flat stage/support arrays match a from-mapping reference"
    ~count:40 seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let tasks = 2 + Rng.int rng 19 in
      let dag = Random_dag.layered ~rng ~tasks () in
      let prob =
        Types.problem ~dag ~platform:(Fixtures.uniform 6) ~eps:1
          ~throughput:0.01
      in
      match
        Ltf.schedule_state
          ~opts:Scheduler.(default |> with_mode Best_effort)
          prob
      with
      | Error _ -> true
      | Ok st ->
          let m = State.mapping st in
          let proc_of (id : Replica.id) =
            (Mapping.replica_exn m id.Replica.task id.Replica.copy).Replica.proc
          in
          let stage_memo = Hashtbl.create 64 in
          let supp_memo = Hashtbl.create 64 in
          let rec ref_stage (id : Replica.id) =
            match Hashtbl.find_opt stage_memo id with
            | Some v -> v
            | None ->
                let r = Mapping.replica_exn m id.Replica.task id.Replica.copy in
                let v =
                  List.fold_left
                    (fun acc (_, ids) ->
                      List.fold_left
                        (fun acc (src : Replica.id) ->
                          let eta =
                            if proc_of src = r.Replica.proc then 0 else 1
                          in
                          max acc (ref_stage src + eta))
                        acc ids)
                    1 r.Replica.sources
                in
                Hashtbl.add stage_memo id v;
                v
          in
          let rec ref_supp (id : Replica.id) =
            match Hashtbl.find_opt supp_memo id with
            | Some v -> v
            | None ->
                let r = Mapping.replica_exn m id.Replica.task id.Replica.copy in
                let v =
                  List.fold_left
                    (fun acc (_, ids) ->
                      match ids with
                      | [] -> acc
                      | [ src ] -> Rset.union acc (ref_supp src)
                      | first :: rest ->
                          if List.length ids = Mapping.n_copies m then acc
                          else
                            Rset.union acc
                              (List.fold_left
                                 (fun i src -> Rset.inter i (ref_supp src))
                                 (ref_supp first) rest))
                    (Rset.singleton r.Replica.proc)
                    r.Replica.sources
                in
                Hashtbl.add supp_memo id v;
                v
          in
          let ok = ref true in
          Mapping.iter m (fun r ->
              let id = r.Replica.id in
              if State.stage st id <> ref_stage id then ok := false;
              if Rset.elements (ref_supp id)
                 <> Bitset.elements (State.support st id)
              then ok := false;
              if Float.is_nan (State.finish st id) then ok := false);
          !ok)

(* ------------------------------------------------------------------ *)
(* The probe arena vs the list-based reference probe                   *)
(* ------------------------------------------------------------------ *)

(* A random problem with a period tight enough that probes overload
   resources, so the best-effort overload sums have many non-zero terms.
   The platform is heterogeneous, or homogeneous in about a third of the
   cases, where sibling replicas finish together and transfers tie on
   readiness.  One case in three is a wide fan-in:
   [k] entry tasks on [k] distinct processors feeding one sink, so a probe
   of the sink has up to 40 senders and the reference's hashtable resizes
   past its 32-key threshold. *)
let probe_problem_of_seed seed =
  let rng = Rng.create ~seed in
  let fan_in = Rng.int rng 3 = 0 in
  let dag, m, eps =
    if fan_in then begin
      let k = 20 + Rng.int rng 21 in
      let b = Dag.Builder.create ~name:"fan-in" (k + 1) in
      for t = 0 to k do
        Dag.Builder.set_exec b t (1.0 +. Rng.float rng 9.0)
      done;
      for t = 0 to k - 1 do
        Dag.Builder.add_edge b ~volume:(1.0 +. Rng.float rng 9.0) t k
      done;
      (Dag.Builder.build b, k + 2, 0)
    end
    else begin
      let tasks = 2 + Rng.int rng 24 in
      let m = 2 + Rng.int rng 8 in
      (Random_dag.layered ~rng ~tasks (), m, Rng.int rng (min 3 (m - 1) + 1))
    end
  in
  let platform =
    if Rng.bool rng 0.3 then Platform.homogeneous ~m ~speed:1.0 ~bandwidth:1.0 ()
    else begin
      let speeds = Array.init m (fun _ -> 0.5 +. Rng.float rng 2.0) in
      let bandwidth = Array.make_matrix m m 0.0 in
      for u = 0 to m - 1 do
        for v = u + 1 to m - 1 do
          let bw = 0.5 +. Rng.float rng 4.0 in
          bandwidth.(u).(v) <- bw;
          bandwidth.(v).(u) <- bw
        done
      done;
      Platform.create ~speeds ~bandwidth ()
    end
  in
  let work = ref 0.0 in
  Dag.iter_tasks dag (fun t -> work := !work +. Dag.exec dag t);
  let period = !work /. float_of_int m *. (0.05 +. Rng.float rng 1.5) in
  (rng, fan_in, Types.problem ~dag ~platform ~eps ~throughput:(1.0 /. period))

(* Random source sets: per predecessor, a non-empty random subset of its
   replicas, in predecessor order. *)
let random_sources rng (prob : Types.problem) task =
  List.map
    (fun (pred, _) ->
      let all = List.init (prob.eps + 1) (fun copy -> { Replica.task = pred; copy }) in
      match List.filter (fun _ -> Rng.bool rng 0.5) all with
      | [] -> (pred, [ List.nth all (Rng.int rng (prob.eps + 1)) ])
      | some -> (pred, some))
    (Dag.preds prob.dag task)

(* Both phases of a probe, run to the end. *)
let full_probe st ~task ~copy ~proc ~sources =
  State.probe st ~task ~copy ~proc ~sources;
  if not (State.complete st ~cutoff:infinity) then
    failwith "State.complete cut a probe at an infinite cutoff"

(* Walk a random problem in topological order, placing every replica of
   a random prefix of the tasks on random processors with random source
   sets.  Before each commit, [check] sees the state and the (task, copy)
   about to be placed; the walk returns whether every check held. *)
let walk_partial_schedule seed ~check ~commit =
  let rng, fan_in, prob = probe_problem_of_seed seed in
  let m = Platform.size prob.platform in
  let st = State.create prob in
  let order = Topo.order prob.dag in
  let n = Array.length order in
  let placed = if fan_in then n else Rng.int rng (n + 1) in
  let ok = ref true in
  for i = 0 to placed - 1 do
    let task = order.(i) in
    let used = ref [] in
    for copy = 0 to prob.eps do
      if not (check st rng ~task ~copy) then ok := false;
      let rec free () =
        let p = if fan_in && task < m - 2 then task else Rng.int rng m in
        if List.mem p !used then free () else p
      in
      let proc = free () in
      used := proc :: !used;
      full_probe st ~task ~copy ~proc ~sources:(random_sources rng prob task);
      let trial = State.trial st in
      State.commit st trial;
      commit trial
    done
  done;
  !ok

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_trial (a : State.trial) (b : State.trial) =
  a.t_task = b.t_task && a.t_copy = b.t_copy && a.t_proc = b.t_proc
  && a.t_sources = b.t_sources
  && same_float a.t_start b.t_start
  && same_float a.t_finish b.t_finish
  && a.t_stage = b.t_stage
  && List.length a.t_comms = List.length b.t_comms
  && List.for_all2
       (fun (i, s, d, r) (i', s', d', r') ->
         Replica.compare_id i i' = 0 && same_float s s' && same_float d d'
         && same_float r r')
       a.t_comms b.t_comms

let prop_probe_matches_reference =
  QCheck.Test.make
    ~name:"arena probe is bit-identical to the list-based reference" ~count:60
    seed_arb (fun seed ->
      let rf = ref None in
      let check st rng ~task ~copy =
        let prob = State.problem st in
        let r =
          match !rf with
          | Some r -> r
          | None ->
              let r = Ref_probe.create prob in
              rf := Some r;
              r
        in
        List.for_all
          (fun proc ->
            let sources = random_sources rng prob task in
            full_probe st ~task ~copy ~proc ~sources;
            let expected = Ref_probe.evaluate r ~task ~copy ~proc ~sources in
            same_trial (State.trial st) expected
            && State.feasible st = Ref_probe.feasible r expected
            && same_float (State.overload st) (Ref_probe.overload r expected))
          (Platform.procs prob.platform)
      in
      let commit trial = Option.iter (fun r -> Ref_probe.commit r trial) !rf in
      walk_partial_schedule seed ~check ~commit)

let ranks = [ Chunk_scheduler.by_finish_time; Chunk_scheduler.by_stage_then_finish ]

(* Incumbent scores at and around a given (stage, finish): equal, one ulp
   either side in finish, one stage either side. *)
let scores_around (rank : Chunk_scheduler.rank) ~stage ~finish =
  List.concat_map
    (fun stage ->
      List.map
        (fun finish -> rank.score ~stage ~finish)
        [ Float.pred finish; finish; Float.succ finish ])
    [ stage - 1; stage; stage + 1 ]

(* Every probe's stage and finish are at least the floors the pruning step
   computes for its processor, both for the floors over all replicas of
   every predecessor (the general branch) and over exactly the chosen
   single sources (the one-to-one branch); so, under both ranks, it scores
   at least the score at the floors, and the pruning rule never drops a
   candidate whose probe would not lose strictly to the incumbent.  The
   rule is checked against zero-penalty incumbents at and one step around
   both the probe's score and the floors' score. *)
let prop_prune_bound_sound =
  QCheck.Test.make ~name:"every probe scores at least its candidate bound"
    ~count:60 seed_arb (fun seed ->
      let check st rng ~task ~copy =
        let prob = State.problem st in
        let mapping = State.mapping st in
        let entry (id : Replica.id) =
          ( State.finish st id,
            State.stage st id,
            (Mapping.replica_exn mapping id.task id.copy).Replica.proc )
        in
        let work = Dag.exec prob.dag task in
        let all_preds =
          List.map
            (fun (pred, vol) ->
              ( vol,
                List.init (prob.eps + 1) (fun copy ->
                    entry { Replica.task = pred; copy }) ))
            (Dag.preds prob.dag task)
        in
        List.for_all
          (fun proc ->
            let sources = random_sources rng prob task in
            let singles =
              List.map (fun (pred, ids) -> (pred, [ List.hd ids ])) sources
            in
            let exact_preds =
              List.map2
                (fun (_, vol) (_, ids) -> (vol, [ entry (List.hd ids) ]))
                (Dag.preds prob.dag task) singles
            in
            List.for_all
              (fun (sources, preds) ->
                full_probe st ~task ~copy ~proc ~sources;
                let stage = State.probe_stage st and finish = State.probe_finish st in
                let stage_lb, finish_lb =
                  Chunk_scheduler.candidate_bound st ~preds ~work proc
                in
                stage_lb <= stage && finish_lb <= finish
                && List.for_all
                     (fun (rank : Chunk_scheduler.rank) ->
                       let score = rank.score ~stage ~finish in
                       compare score (rank.score ~stage:stage_lb ~finish:finish_lb)
                       >= 0
                       && List.for_all
                            (fun best ->
                              let incumbent =
                                Some
                                  {
                                    Chunk_scheduler.penalty = 0.0;
                                    score = best;
                                    trial = State.trial st;
                                  }
                              in
                              (not
                                 (Chunk_scheduler.prunable ~rank incumbent
                                    ~stage_lb ~finish_lb))
                              || compare score best > 0)
                            (scores_around rank ~stage ~finish
                            @ scores_around rank ~stage:stage_lb ~finish:finish_lb))
                     ranks)
              [ (sources, all_preds); (singles, exact_preds) ])
          (Platform.procs prob.platform)
      in
      walk_partial_schedule seed ~check ~commit:ignore)

(* Cutting probes against the incumbent changes no decision.  A random
   sequence of probes of the next replica — every processor in a random
   order, one to three random source sets each, one of them probed twice
   so that exact ties with the incumbent occur — is decided by
   [Chunk_scheduler.contest] under both ranks and both modes, and by a
   plain fold that runs every probe to the end and keeps the minimum
   under (penalty, rank, processor index).  The winners must be the same
   trial, and every probe [contest] cut must, run to the end, score
   strictly worse than the incumbent it was cut against. *)
let prop_cutoff_keeps_winner =
  QCheck.Test.make ~name:"cut-off probes never change the winner" ~count:60
    seed_arb (fun seed ->
      let check st rng ~task ~copy =
        let prob = State.problem st in
        let procs = Array.of_list (Platform.procs prob.platform) in
        Rng.shuffle rng procs;
        let probes =
          List.concat_map
            (fun proc ->
              let sets =
                List.init (1 + Rng.int rng 3) (fun _ -> random_sources rng prob task)
              in
              List.map (fun sources -> (proc, sources)) (sets @ [ List.hd sets ]))
            (Array.to_list procs)
        in
        let score_of (mode : Sched_api.mode) (rank : Chunk_scheduler.rank) =
          ( (match mode with Strict -> 0.0 | Best_effort -> State.overload st),
            rank.score ~stage:(State.probe_stage st) ~finish:(State.probe_finish st) )
        in
        List.for_all
          (fun ((mode : Sched_api.mode), rank) ->
            let best = ref None and sound = ref true in
            List.iter
              (fun (proc, sources) ->
                State.probe st ~task ~copy ~proc ~sources;
                let before = !best in
                match Chunk_scheduler.contest ~mode ~rank st best ~proc with
                | Cut -> (
                    full_probe st ~task ~copy ~proc ~sources;
                    match before with
                    | Some (b : Chunk_scheduler.incumbent) ->
                        if compare (score_of mode rank) (b.penalty, b.score) <= 0 then
                          sound := false
                    | None -> sound := false)
                | Rejected | Offered -> ())
              probes;
            let reference = ref None in
            List.iter
              (fun (proc, sources) ->
                full_probe st ~task ~copy ~proc ~sources;
                if mode = Best_effort || State.feasible st then begin
                  let key = (score_of mode rank, proc) in
                  match !reference with
                  | Some (k, _) when compare k key <= 0 -> ()
                  | _ -> reference := Some (key, State.trial st)
                end)
              probes;
            !sound
            &&
            match (!best, !reference) with
            | None, None -> true
            | Some (b : Chunk_scheduler.incumbent), Some (((penalty, score), _), trial) ->
                same_float b.penalty penalty && compare b.score score = 0
                && same_trial b.trial trial
            | _ -> false)
          [ (Strict, Chunk_scheduler.by_finish_time);
            (Strict, Chunk_scheduler.by_stage_then_finish);
            (Best_effort, Chunk_scheduler.by_finish_time);
            (Best_effort, Chunk_scheduler.by_stage_then_finish) ]
      in
      walk_partial_schedule seed ~check ~commit:ignore)

(* ------------------------------------------------------------------ *)
(* Bitset vs Set.Make (Int)                                            *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

let sets_of_seed seed =
  let rng = Rng.create ~seed in
  let random_list () =
    List.init (Rng.int rng 40) (fun _ -> Rng.int rng 200)
  in
  let la = random_list () and lb = random_list () in
  ((Bitset.of_list la, Iset.of_list la), (Bitset.of_list lb, Iset.of_list lb))

let mirrors b s = Bitset.elements b = Iset.elements s

let prop_bitset_matches_set =
  QCheck.Test.make ~name:"bitset ops agree with the Set.Make(Int) reference"
    ~count:200 seed_arb (fun seed ->
      let (ba, sa), (bb, sb) = sets_of_seed seed in
      mirrors ba sa && mirrors bb sb
      && mirrors (Bitset.union ba bb) (Iset.union sa sb)
      && mirrors (Bitset.inter ba bb) (Iset.inter sa sb)
      && mirrors (Bitset.diff ba bb) (Iset.diff sa sb)
      && Bitset.disjoint ba bb = Iset.disjoint sa sb
      && Bitset.subset ba bb = Iset.subset sa sb
      && Bitset.cardinal ba = Iset.cardinal sa
      && Bitset.is_empty ba = Iset.is_empty sa
      && List.for_all
           (fun x -> Bitset.mem x ba = Iset.mem x sa)
           (List.init 210 Fun.id)
      && Bitset.equal (Bitset.inter ba ba) ba
      && Bitset.fold (fun x acc -> x :: acc) ba []
         = Iset.fold (fun x acc -> x :: acc) sa [])

let prop_bitset_add_remove =
  QCheck.Test.make ~name:"bitset add/remove round-trips like the reference"
    ~count:200 seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let steps = List.init 60 (fun _ -> (Rng.int rng 2 = 0, Rng.int rng 300)) in
      let b, s =
        List.fold_left
          (fun (b, s) (add, x) ->
            if add then (Bitset.add x b, Iset.add x s)
            else (Bitset.remove x b, Iset.remove x s))
          (Bitset.empty, Iset.empty) steps
      in
      mirrors b s
      (* normalization: equal contents imply structural equality *)
      && Bitset.equal b (Bitset.of_list (Iset.elements s))
      && Bitset.compare b (Bitset.of_list (Iset.elements s)) = 0)

let bitset_tests =
  [
    case "singleton and negative elements" (fun () ->
        check_true "mem" (Bitset.mem 63 (Bitset.singleton 63));
        check_true "not mem" (not (Bitset.mem 62 (Bitset.singleton 63)));
        check_true "mem negative is false" (not (Bitset.mem (-1) Bitset.empty));
        Alcotest.check_raises "singleton -1"
          (Invalid_argument "Bitset.singleton: negative element") (fun () ->
            ignore (Bitset.singleton (-1))));
    case "empty removal keeps the representation canonical" (fun () ->
        let s = Bitset.remove 100 (Bitset.add 100 Bitset.empty) in
        check_true "is_empty" (Bitset.is_empty s);
        check_true "equal empty" (Bitset.equal s Bitset.empty));
  ]

(* ------------------------------------------------------------------ *)
(* Pinned regression: figure samples and schedule fingerprints         *)
(* ------------------------------------------------------------------ *)

(* These values were captured on the pre-incremental engine (PR 2); the
   incremental state, bitset kill sets and restriction fast path must
   reproduce them bit for bit. *)
let pinned_samples =
  [
    "g=0.6 ltf=(420,380,380,false) rltf=(420,300,353.33333333333331,false) \
     ff=170";
    "g=0.6 ltf=(380,300,340,false) rltf=(380,300,300,false) ff=150";
    "g=1.0 ltf=(380,300,326.66666666666669,true) \
     rltf=(300,220,233.33333333333334,true) ff=110";
    "g=1.0 ltf=(380,340,353.33333333333331,true) rltf=(260,220,220,false) \
     ff=130";
  ]

let pinned_ltf_digest = "3451d182152d61149471dcfa142c5e32"
let pinned_rltf_digest = "3444c193041d492b90169cd79973f9e8"

(* The registry's [huge-small] point (v=2000, m=50); guards the whole
   scaling path — Huge generation through Spec, flat placement, and the
   clustered C-LTF expansion — against silent drift. *)
let pinned_huge_ltf_digest = "a2bdbcb8820260d28eaabcc3086b5a4f"
let pinned_huge_cltf_digest = "42a874c0cd0230bdc50bbd5eab61c27c"

let fingerprint mapping =
  let parts = ref [] in
  Mapping.iter mapping (fun r ->
      parts :=
        Printf.sprintf "%s@%d" (Replica.id_to_string r.Replica.id) r.Replica.proc
        :: !parts);
  String.concat ";" (List.rev !parts)

let regression_tests =
  [
    slow_case "figure samples are bit-identical to the pinned run" (fun () ->
        let config =
          {
            (Fig_common.quick ~eps:1 ~crashes:1) with
            Fig_common.graphs_per_point = 2;
            granularities = [ 0.6; 1.0 ];
          }
        in
        let lines =
          Fig_common.collect config
          |> List.map (fun (s : Fig_common.sample) ->
                 Printf.sprintf
                   "g=%.1f ltf=(%.17g,%.17g,%.17g,%b) \
                    rltf=(%.17g,%.17g,%.17g,%b) ff=%.17g"
                   s.Fig_common.granularity s.ltf.Fig_common.bound s.ltf.sim
                   s.ltf.crash s.ltf.meets s.rltf.Fig_common.bound s.rltf.sim
                   s.rltf.crash s.rltf.meets s.ff_sim)
        in
        Alcotest.(check (list string)) "samples" pinned_samples lines);
    case "paper-instance schedules are bit-identical to the pinned run"
      (fun () ->
        let inst =
          let rng = Rng.create ~seed:11 in
          Spec.generate Spec.default ~rng ~granularity:1.0 ()
        in
        let prob =
          Types.problem ~dag:inst.Paper_workload.dag
            ~platform:inst.Paper_workload.plat ~eps:1
            ~throughput:(Paper_workload.throughput ~eps:1)
        in
        let opts = Scheduler.(default |> with_mode Best_effort) in
        (match Ltf.schedule ~opts prob with
        | Ok m ->
            Alcotest.(check string)
              "LTF" pinned_ltf_digest
              (Digest.to_hex (Digest.string (fingerprint m)))
        | Error f -> Alcotest.failf "LTF failed: %s" (Types.failure_to_string f));
        match Rltf.schedule ~opts prob with
        | Ok m ->
            Alcotest.(check string)
              "R-LTF" pinned_rltf_digest
              (Digest.to_hex (Digest.string (fingerprint m)))
        | Error f ->
            Alcotest.failf "R-LTF failed: %s" (Types.failure_to_string f));
    case "huge-small schedules are bit-identical to the pinned run" (fun () ->
        let spec =
          match Spec.find "huge-small" with
          | Some s -> s
          | None -> Alcotest.fail "huge-small not registered"
        in
        let opts = Scheduler.(default |> with_mode Best_effort) in
        let schedule_with (module A : Sched_api.Algo) =
          let rng = Rng.create ~seed:42 in
          let inst = Spec.generate spec ~rng ~granularity:1.0 () in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps:1
              ~throughput:(Spec.throughput spec ~eps:1)
          in
          match A.run ~opts prob with
          | Ok m -> Digest.to_hex (Digest.string (fingerprint m))
          | Error f ->
              Alcotest.failf "%s failed: %s" A.name (Types.failure_to_string f)
        in
        Alcotest.(check string) "LTF" pinned_huge_ltf_digest
          (schedule_with Ltf.algo);
        match Baseline_registry.find "C-LTF" with
        | None -> Alcotest.fail "C-LTF not registered"
        | Some a ->
            Alcotest.(check string) "C-LTF" pinned_huge_cltf_digest
              (schedule_with a));
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incremental"
    [
      ( "loads",
        [
          to_alcotest prop_incremental_equals_scratch;
          to_alcotest prop_tentative_matches_committed;
        ] );
      ("state", [ to_alcotest prop_flat_state_matches_reference ]);
      ( "probe",
        [
          to_alcotest prop_probe_matches_reference;
          to_alcotest prop_prune_bound_sound;
          to_alcotest prop_cutoff_keeps_winner;
        ] );
      ( "bitset",
        bitset_tests
        @ [ to_alcotest prop_bitset_matches_set;
            to_alcotest prop_bitset_add_remove;
          ] );
      ("regression", regression_tests);
    ]
