module Pset = Bitset

(* The probe arena: the current probe's remote transfers as a structure
   of arrays sorted by (source finish, source slot), its tentative port
   intervals, and its outcome.  One arena per state, reused by every
   probe: once the arrays have grown to the largest fan-in, a probe
   builds no list, closure, timeline version or table. *)
type arena = {
  mutable a_slot : int array;    (* source replica slot *)
  mutable a_sp : int array;      (* sender processor *)
  mutable a_ready : float array; (* source finish *)
  mutable a_dur : float array;
  mutable a_start : float array;
  mutable a_n : int;
  recv : Timeline.scratch;       (* the target's receive port *)
  send : Timeline.scratch array; (* per sender processor *)
  mutable p_task : Dag.task;
  mutable p_copy : int;
  mutable p_proc : Platform.proc;
  mutable p_sources : (Dag.task * Replica.id list) list;
  mutable p_stage : int;
  p_times : float array;
      (* [| start; finish; data readiness |]; start and finish are nan
         until the probe is complete *)
  p_loads : float array;         (* [| exec; incoming |], for condition (1) *)
  (* Per-sender outgoing time of the probe, for the throughput check:
     [out_pos.(p)] is p's index in [out_procs] (first-touch order), -1
     when untouched; both are reset after every use. *)
  out : float array;
  out_pos : int array;
  out_procs : int array;
  out_order : int array;
  proc_hash : int array;         (* [Hashtbl.hash p] *)
}

(* Per-replica attributes live in flat arrays indexed [task * (eps+1) +
   copy] so a million-task schedule is a handful of contiguous slabs
   rather than a forest of per-task records. *)
type t = {
  prob : Types.problem;
  mapping : Mapping.t;
  delta : float;
  copies : int;
  loads : Loads.t;
  proc_tl : Timeline.t array;
  send_tl : Timeline.t array;
  recv_tl : Timeline.t array;
  finish_arr : float array; (* [task * copies + copy]; nan = unplaced *)
  stage_arr : int array;    (* [task * copies + copy]; 0 = unplaced *)
  support_arr : Pset.t array; (* [task * copies + copy]; kill sets *)
  proc_arr : int array;       (* [task * copies + copy]; -1 = unplaced *)
  arena : arena;
}

let create (prob : Types.problem) =
  let n_procs = Platform.size prob.platform in
  let copies = prob.eps + 1 in
  let slots = Dag.size prob.dag * copies in
  {
    prob;
    mapping = Mapping.create ~dag:prob.dag ~platform:prob.platform ~eps:prob.eps;
    delta = Types.period prob;
    copies;
    loads = Loads.create ~n_procs;
    proc_tl = Array.make n_procs Timeline.empty;
    send_tl = Array.make n_procs Timeline.empty;
    recv_tl = Array.make n_procs Timeline.empty;
    finish_arr = Array.make slots nan;
    stage_arr = Array.make slots 0;
    support_arr = Array.make slots Pset.empty;
    proc_arr = Array.make slots (-1);
    arena =
      {
        a_slot = [||];
        a_sp = [||];
        a_ready = [||];
        a_dur = [||];
        a_start = [||];
        a_n = 0;
        recv = Timeline.scratch ();
        send = Array.init n_procs (fun _ -> Timeline.scratch ());
        p_task = 0;
        p_copy = 0;
        p_proc = 0;
        p_sources = [];
        p_stage = 0;
        p_times = [| nan; nan; nan |];
        p_loads = [| 0.0; 0.0 |];
        out = Array.make n_procs 0.0;
        out_pos = Array.make n_procs (-1);
        out_procs = Array.make n_procs 0;
        out_order = Array.make n_procs 0;
        proc_hash = Array.init n_procs Hashtbl.hash;
      };
  }

let problem s = s.prob
let mapping s = s.mapping

let slot s (id : Replica.id) = (id.task * s.copies) + id.copy

let finish s (id : Replica.id) =
  let f = s.finish_arr.(slot s id) in
  if Float.is_nan f then
    invalid_arg
      (Printf.sprintf "State.finish: %s not placed" (Replica.id_to_string id));
  f

let stage s (id : Replica.id) =
  let st = s.stage_arr.(slot s id) in
  if st = 0 then
    invalid_arg
      (Printf.sprintf "State.stage: %s not placed" (Replica.id_to_string id));
  st

let loads s = s.loads
let sigma s u = s.loads.Loads.sigma.(u)
let c_in s u = s.loads.Loads.c_in.(u)
let c_out s u = s.loads.Loads.c_out.(u)

let support s (id : Replica.id) = s.support_arr.(slot s id)

(* The kill set of a replica given its placement and sources: the
   processors whose individual failure makes it unable to run.  A
   predecessor covered by a single source replica inherits that source's
   kill set; a predecessor covered by all eps+1 replicas contributes
   nothing when their kill sets are pairwise disjoint (no single failure
   can starve it) — for any other source-set shape we fall back to the
   intersection of the sources' kill sets, which is the exact single-proc
   starvation channel. *)
let support_of_sources s ~proc ~sources =
  List.fold_left
    (fun acc (pred, ids) ->
      match ids with
      | [] -> acc
      | [ (src : Replica.id) ] -> Pset.union acc (support s src)
      | first :: rest ->
          let full = List.length ids = Mapping.n_copies s.mapping in
          ignore pred;
          if full then acc
          else
            Pset.union acc
              (List.fold_left
                 (fun inter (src : Replica.id) -> Pset.inter inter (support s src))
                 (support s first) rest))
    (Pset.singleton proc) sources

let send_ready s u = Timeline.busy_until s.send_tl.(u)

type trial = {
  t_task : Dag.task;
  t_copy : int;
  t_proc : Platform.proc;
  t_sources : (Dag.task * Replica.id list) list;
  t_start : float;
  t_finish : float;
  t_stage : int;
  t_comms : (Replica.id * float * float * float) list;
}

let proc_of_slot s k =
  let p = s.proc_arr.(k) in
  if p < 0 then
    invalid_arg
      (Printf.sprintf "State.probe: t%d(%d) not placed" (k / s.copies)
         (k mod s.copies));
  p

(* Earliest start >= ready fitting simultaneously in two port timelines
   (each with the probe's own reservations): alternate the two
   earliest-fit maps until they agree.  Both are monotone, so this
   terminates at their least common fixpoint; both are idempotent
   (a fit is its own fit), so each round costs one query per port. *)
let joint_fit a sa b sb ~ready ~duration =
  let c = ref (Timeline.earliest_fit_with a sa ~ready ~duration) in
  let settled = ref false in
  while not !settled do
    let cb = Timeline.earliest_fit_with b sb ~ready:!c ~duration in
    if cb = !c then settled := true
    else c := Timeline.earliest_fit_with a sa ~ready:cb ~duration
  done;
  !c

let grow_arena a =
  let cap = max 8 (2 * a.a_n) in
  let ints src = Array.append src (Array.make (cap - Array.length src) 0) in
  let floats src = Array.append src (Array.make (cap - Array.length src) 0.0) in
  a.a_slot <- ints a.a_slot;
  a.a_sp <- ints a.a_sp;
  a.a_ready <- floats a.a_ready;
  a.a_dur <- floats a.a_dur;
  a.a_start <- floats a.a_start

(* Insert one remote transfer into the arena, keeping it sorted by (source
   finish, source slot).  Slots order replicas as (task, copy) does, so
   this is the (finish, replica id) order the pinned schedules use:
   transfers go in order of data readiness, deterministically. *)
let add_transfer a ~slot ~sp ~ready ~dur =
  if a.a_n = Array.length a.a_slot then grow_arena a;
  let i = ref a.a_n in
  while
    !i > 0
    && (a.a_ready.(!i - 1) > ready
       || (a.a_ready.(!i - 1) = ready && a.a_slot.(!i - 1) > slot))
  do
    let j = !i - 1 in
    a.a_slot.(!i) <- a.a_slot.(j);
    a.a_sp.(!i) <- a.a_sp.(j);
    a.a_ready.(!i) <- a.a_ready.(j);
    a.a_dur.(!i) <- a.a_dur.(j);
    decr i
  done;
  a.a_slot.(!i) <- slot;
  a.a_sp.(!i) <- sp;
  a.a_ready.(!i) <- ready;
  a.a_dur.(!i) <- dur;
  a.a_n <- a.a_n + 1

(* [Dag.volume] without the hash lookup: the edge volumes of a task's
   predecessors are already listed with them. *)
let rec pred_volume pred = function
  | (p, vol) :: rest -> if p = pred then vol else pred_volume pred rest
  | [] -> raise Not_found

(* One pass over the source sets: every remote source becomes a transfer
   in the arena; co-located sources floor the data readiness at their
   finish time and remote ones at their finish plus the transfer time
   ([p_times.(2)], in source order); every source floors the pipeline
   stage at its own stage, +1 when remote. *)
let rec collect_sources s ~plat ~proc ~vol = function
  | [] -> ()
  | (src : Replica.id) :: rest ->
      let a = s.arena in
      let k = slot s src in
      let sp = proc_of_slot s k in
      let ready = s.finish_arr.(k) in
      if sp = proc then begin
        a.p_times.(2) <- Float.max a.p_times.(2) ready;
        a.p_stage <- max a.p_stage s.stage_arr.(k)
      end
      else begin
        let dur = Platform.comm_time plat sp proc vol in
        add_transfer a ~slot:k ~sp ~ready ~dur;
        a.p_times.(2) <- Float.max a.p_times.(2) (ready +. dur);
        a.p_stage <- max a.p_stage (s.stage_arr.(k) + 1)
      end;
      collect_sources s ~plat ~proc ~vol rest

let rec collect_transfers s ~plat ~proc ~preds = function
  | [] -> ()
  | (pred, ids) :: rest ->
      collect_sources s ~plat ~proc ~vol:(pred_volume pred preds) ids;
      collect_transfers s ~plat ~proc ~preds rest

let probe s ~task ~copy ~proc ~sources =
  Obs.incr "core.placement_probes";
  let a = s.arena in
  a.a_n <- 0;
  a.p_times.(0) <- nan;
  a.p_times.(1) <- nan;
  a.p_times.(2) <- 0.0;
  a.p_stage <- 1;
  collect_transfers s ~plat:s.prob.platform ~proc
    ~preds:(Dag.preds s.prob.dag task) sources;
  a.p_task <- task;
  a.p_copy <- copy;
  a.p_proc <- proc;
  a.p_sources <- sources

(* Schedule the transfers in order on the target's receive port and the
   send ports of their sources, each read through the probe's own
   reservations so far; the committed timelines are never written.  A
   transfer starts no earlier than its source's finish, so it arrives no
   earlier than the floor [collect_sources] put into [p_times.(2)]: the
   running maximum of that floor and the arrivals so far is a floor on the
   data readiness that only rises, and ends exactly at the data readiness.
   The execution starts no earlier than that, so once the floor plus the
   execution time exceeds [cutoff] the probe stops. *)
let complete s ~cutoff =
  let a = s.arena in
  let exec =
    Platform.exec_time s.prob.platform a.p_proc (Dag.exec s.prob.dag a.p_task)
  in
  let recv_tl = s.recv_tl.(a.p_proc) in
  let rec transfers i =
    if a.p_times.(2) +. exec > cutoff then false
    else if i = a.a_n then true
    else begin
      let sp = a.a_sp.(i) and duration = a.a_dur.(i) in
      let start =
        joint_fit s.send_tl.(sp) a.send.(sp) recv_tl a.recv ~ready:a.a_ready.(i)
          ~duration
      in
      Timeline.reserve recv_tl a.recv ~start ~duration;
      Timeline.reserve s.send_tl.(sp) a.send.(sp) ~start ~duration;
      a.a_start.(i) <- start;
      a.p_times.(2) <- Float.max a.p_times.(2) (start +. duration);
      transfers (i + 1)
    end
  in
  Timeline.clear a.recv;
  for i = 0 to a.a_n - 1 do
    Timeline.clear a.send.(a.a_sp.(i))
  done;
  transfers 0
  && begin
       let start =
         Timeline.earliest_fit s.proc_tl.(a.p_proc) ~ready:a.p_times.(2)
           ~duration:exec
       in
       a.p_times.(0) <- start;
       a.p_times.(1) <- start +. exec;
       true
     end

let probe_finish s = s.arena.p_times.(1)
let probe_stage s = s.arena.p_stage

let trial s =
  let a = s.arena in
  if Float.is_nan a.p_times.(1) then invalid_arg "State.trial: probe not complete";
  let rec comms i =
    if i = a.a_n then []
    else
      let k = a.a_slot.(i) and start = a.a_start.(i) and dur = a.a_dur.(i) in
      ( { Replica.task = k / s.copies; copy = k mod s.copies },
        start,
        dur,
        start +. dur )
      :: comms (i + 1)
  in
  {
    t_task = a.p_task;
    t_copy = a.p_copy;
    t_proc = a.p_proc;
    t_sources = a.p_sources;
    t_start = a.p_times.(0);
    t_finish = a.p_times.(1);
    t_stage = a.p_stage;
    t_comms = comms 0;
  }

let earliest_start s proc ~ready ~duration =
  Timeline.earliest_fit s.proc_tl.(proc) ~ready ~duration

(* The probe's load increments: execution time on the target and
   incoming time on its receive port (summed in transfer order) into
   [p_loads], and per-sender outgoing time accumulated into [out] with the
   senders listed in first-touch order in [out_procs].  Returns the number
   of senders; callers must {!release_loads} before the next probe. *)
let trial_loads s =
  let a = s.arena in
  a.p_loads.(0) <-
    Platform.exec_time s.prob.platform a.p_proc (Dag.exec s.prob.dag a.p_task);
  a.p_loads.(1) <- 0.0;
  let n = ref 0 in
  for i = 0 to a.a_n - 1 do
    let sp = a.a_sp.(i) and dur = a.a_dur.(i) in
    a.p_loads.(1) <- a.p_loads.(1) +. dur;
    if a.out_pos.(sp) < 0 then begin
      a.out_pos.(sp) <- !n;
      a.out_procs.(!n) <- sp;
      incr n
    end;
    a.out.(sp) <- a.out.(sp) +. dur
  done;
  !n

let release_loads a n =
  for i = 0 to n - 1 do
    let sp = a.out_procs.(i) in
    a.out.(sp) <- 0.0;
    a.out_pos.(sp) <- -1
  done

let feasible s =
  let a = s.arena and l = s.loads in
  let slack = s.delta *. (1.0 +. 1e-9) in
  let n = trial_loads s in
  let ok = ref true in
  for i = 0 to n - 1 do
    let sp = a.out_procs.(i) in
    if not (l.Loads.c_out.(sp) +. a.out.(sp) <= slack) then ok := false
  done;
  release_loads a n;
  l.Loads.sigma.(a.p_proc) +. a.p_loads.(0) <= slack
  && l.Loads.c_in.(a.p_proc) +. a.p_loads.(1) <= slack
  && !ok

let[@inline] over ~delta current extra =
  Float.max 0.0 (current +. extra -. delta)

(* The senders' overloads are summed in the order a [Hashtbl] keyed by
   processor folds them — ascending bucket [Hashtbl.hash p land (B - 1)],
   newest first within a bucket, where B starts at 16 and doubles each
   time the key count passes 2B — because the best-effort ranking was
   pinned with that order and float addition is order-sensitive. *)
let overload s =
  let a = s.arena and l = s.loads and delta = s.delta in
  let n = trial_loads s in
  let buckets = ref 16 in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  for i = 0 to n - 1 do
    (* insertion sort of first-touch indices by (bucket, newest first) *)
    let b = a.proc_hash.(a.out_procs.(i)) land mask and j = ref i in
    while
      !j > 0 && a.proc_hash.(a.out_procs.(a.out_order.(!j - 1))) land mask >= b
    do
      a.out_order.(!j) <- a.out_order.(!j - 1);
      decr j
    done;
    a.out_order.(!j) <- i
  done;
  let senders = ref 0.0 in
  for i = 0 to n - 1 do
    let sp = a.out_procs.(a.out_order.(i)) in
    senders := !senders +. over ~delta l.Loads.c_out.(sp) a.out.(sp)
  done;
  release_loads a n;
  over ~delta l.Loads.sigma.(a.p_proc) a.p_loads.(0)
  +. over ~delta l.Loads.c_in.(a.p_proc) a.p_loads.(1)
  +. !senders

let commit s trial =
  Obs.incr "core.commits";
  let plat = s.prob.platform and dag = s.prob.dag in
  Mapping.assign s.mapping
    {
      Replica.id = { Replica.task = trial.t_task; copy = trial.t_copy };
      proc = trial.t_proc;
      sources = trial.t_sources;
    };
  let exec = Platform.exec_time plat trial.t_proc (Dag.exec dag trial.t_task) in
  (* Charge through the Loads primitives in exactly the historical float
     order (Σ, then per transfer Cᴵ before Cᴼ): schedules are pinned
     bit-identical and float addition is order-sensitive. *)
  Loads.add_exec s.loads trial.t_proc exec;
  List.iter
    (fun ((src : Replica.id), start, dur, _) ->
      let sp = s.proc_arr.(slot s src) in
      Loads.add_comm s.loads ~src:sp ~dst:trial.t_proc dur;
      s.recv_tl.(trial.t_proc) <-
        Timeline.insert s.recv_tl.(trial.t_proc) ~start ~duration:dur;
      s.send_tl.(sp) <- Timeline.insert s.send_tl.(sp) ~start ~duration:dur)
    trial.t_comms;
  s.proc_tl.(trial.t_proc) <-
    Timeline.insert s.proc_tl.(trial.t_proc) ~start:trial.t_start
      ~duration:(trial.t_finish -. trial.t_start);
  let k = (trial.t_task * s.copies) + trial.t_copy in
  s.finish_arr.(k) <- trial.t_finish;
  s.stage_arr.(k) <- trial.t_stage;
  s.proc_arr.(k) <- trial.t_proc;
  s.support_arr.(k) <-
    support_of_sources s ~proc:trial.t_proc ~sources:trial.t_sources
