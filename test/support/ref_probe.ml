(* Reference placement probe: the list-based probe the scheduler used
   before its probe arena, kept as a test oracle.  Every probe branches
   persistent [Timeline] versions off the committed port timelines, and
   the per-sender loads of the throughput check ride in a real [Hashtbl],
   so the best-effort overload sum follows the hashtable's fold order.
   The oracle keeps its own committed timelines, finish times, stages,
   hosts and loads by replaying the commits it is shown, and shares
   nothing with [State] but the trial record. *)

type t = {
  prob : Types.problem;
  copies : int;
  delta : float;
  loads : Loads.t;
  proc_tl : Timeline.t array;
  send_tl : Timeline.t array;
  recv_tl : Timeline.t array;
  finish_arr : float array;
  stage_arr : int array;
  host_arr : int array;
  scratch_out : (int, float) Hashtbl.t;
}

let create (prob : Types.problem) =
  let n_procs = Platform.size prob.platform in
  let copies = prob.eps + 1 in
  let slots = Dag.size prob.dag * copies in
  {
    prob;
    copies;
    delta = Types.period prob;
    loads = Loads.create ~n_procs;
    proc_tl = Array.make n_procs Timeline.empty;
    send_tl = Array.make n_procs Timeline.empty;
    recv_tl = Array.make n_procs Timeline.empty;
    finish_arr = Array.make slots nan;
    stage_arr = Array.make slots 0;
    host_arr = Array.make slots (-1);
    scratch_out = Hashtbl.create 8;
  }

let slot r (id : Replica.id) = (id.task * r.copies) + id.copy

let finish r id =
  let f = r.finish_arr.(slot r id) in
  if Float.is_nan f then invalid_arg "Ref_probe.finish: not placed";
  f

let host r id =
  let p = r.host_arr.(slot r id) in
  if p < 0 then invalid_arg "Ref_probe.host: not placed";
  p

let joint_fit a b ~ready ~duration =
  let rec settle candidate =
    let ca = Timeline.earliest_fit a ~ready:candidate ~duration in
    let cb = Timeline.earliest_fit b ~ready:ca ~duration in
    if cb = candidate then candidate else settle cb
  in
  settle (Timeline.earliest_fit a ~ready ~duration)

let evaluate r ~task ~copy ~proc ~sources : State.trial =
  let plat = r.prob.platform and dag = r.prob.dag in
  let remote =
    List.concat_map
      (fun (pred, ids) ->
        let vol = Dag.volume dag pred task in
        List.filter_map
          (fun (src : Replica.id) ->
            let sp = host r src in
            if sp = proc then None
            else Some (src, sp, Platform.comm_time plat sp proc vol))
          ids)
      sources
    |> List.sort (fun (a, _, _) (b, _, _) ->
           match compare (finish r a) (finish r b) with
           | 0 -> Replica.compare_id a b
           | c -> c)
  in
  let recv = ref r.recv_tl.(proc) in
  let sends = ref [] in
  let send_of p =
    match List.assq_opt p !sends with Some tl -> tl | None -> r.send_tl.(p)
  in
  let comms =
    List.map
      (fun (src, sp, dur) ->
        let ready = finish r src in
        let start = joint_fit (send_of sp) !recv ~ready ~duration:dur in
        recv := Timeline.insert !recv ~start ~duration:dur;
        sends :=
          (sp, Timeline.insert (send_of sp) ~start ~duration:dur)
          :: List.remove_assq sp !sends;
        (src, start, dur, start +. dur))
      remote
  in
  let local_ready =
    List.fold_left
      (fun acc (_, ids) ->
        List.fold_left
          (fun acc (src : Replica.id) ->
            if host r src = proc then Float.max acc (finish r src) else acc)
          acc ids)
      0.0 sources
  in
  let data_ready =
    List.fold_left (fun acc (_, _, _, arrival) -> Float.max acc arrival)
      local_ready comms
  in
  let exec = Platform.exec_time plat proc (Dag.exec dag task) in
  let start = Timeline.earliest_fit r.proc_tl.(proc) ~ready:data_ready ~duration:exec in
  let t_stage =
    List.fold_left
      (fun acc (_, ids) ->
        List.fold_left
          (fun acc (src : Replica.id) ->
            let eta = if host r src = proc then 0 else 1 in
            max acc (r.stage_arr.(slot r src) + eta))
          acc ids)
      1 sources
  in
  {
    State.t_task = task;
    t_copy = copy;
    t_proc = proc;
    t_sources = sources;
    t_start = start;
    t_finish = start +. exec;
    t_stage;
    t_comms = comms;
  }

let trial_loads r (trial : State.trial) =
  let plat = r.prob.platform and dag = r.prob.dag in
  let exec = Platform.exec_time plat trial.t_proc (Dag.exec dag trial.t_task) in
  let incoming =
    List.fold_left (fun acc (_, _, dur, _) -> acc +. dur) 0.0 trial.t_comms
  in
  let outgoing = r.scratch_out in
  Hashtbl.reset outgoing;
  List.iter
    (fun (src, _, dur, _) ->
      let sp = host r src in
      let prev = try Hashtbl.find outgoing sp with Not_found -> 0.0 in
      Hashtbl.replace outgoing sp (prev +. dur))
    trial.t_comms;
  (exec, incoming, outgoing)

let feasible r (trial : State.trial) =
  let slack = r.delta *. (1.0 +. 1e-9) in
  let exec, incoming, outgoing = trial_loads r trial in
  r.loads.Loads.sigma.(trial.t_proc) +. exec <= slack
  && r.loads.Loads.c_in.(trial.t_proc) +. incoming <= slack
  && Hashtbl.fold
       (fun sp extra ok -> ok && r.loads.Loads.c_out.(sp) +. extra <= slack)
       outgoing true

let overload r (trial : State.trial) =
  let exec, incoming, outgoing = trial_loads r trial in
  let over current extra = Float.max 0.0 (current +. extra -. r.delta) in
  over r.loads.Loads.sigma.(trial.t_proc) exec
  +. over r.loads.Loads.c_in.(trial.t_proc) incoming
  +. Hashtbl.fold
       (fun sp extra acc -> acc +. over r.loads.Loads.c_out.(sp) extra)
       outgoing 0.0

let commit r (trial : State.trial) =
  let plat = r.prob.platform and dag = r.prob.dag in
  let exec = Platform.exec_time plat trial.t_proc (Dag.exec dag trial.t_task) in
  Loads.add_exec r.loads trial.t_proc exec;
  List.iter
    (fun (src, start, dur, _) ->
      let sp = host r src in
      Loads.add_comm r.loads ~src:sp ~dst:trial.t_proc dur;
      r.recv_tl.(trial.t_proc) <-
        Timeline.insert r.recv_tl.(trial.t_proc) ~start ~duration:dur;
      r.send_tl.(sp) <- Timeline.insert r.send_tl.(sp) ~start ~duration:dur)
    trial.t_comms;
  r.proc_tl.(trial.t_proc) <-
    Timeline.insert r.proc_tl.(trial.t_proc) ~start:trial.t_start
      ~duration:(trial.t_finish -. trial.t_start);
  let k = (trial.t_task * r.copies) + trial.t_copy in
  r.finish_arr.(k) <- trial.t_finish;
  r.stage_arr.(k) <- trial.t_stage;
  r.host_arr.(k) <- trial.t_proc
