(** Incremental scheduling state shared by LTF and R-LTF.

    Wraps a partial {!Mapping.t} together with everything the algorithms
    probe at each placement step: per-processor computing loads [Σ_u],
    communication cycle loads [Cᴵ_u]/[Cᴼ_u], one-port timelines for
    contention-aware finish-time estimation, committed replica finish
    times, and incremental pipeline stages.

    A placement is first {!probe}d (no change to the committed state) and
    the chosen one is then {!commit}ted.  A probe runs in two phases.
    {!probe} collects the sources: the remote transfers, the pipeline
    stage and a floor on the data readiness; {!probe_stage}, {!feasible}
    and {!overload} can be read from then on, since they need no start
    time.  {!complete} then schedules each incoming transfer earliest-fit
    on the pair (sender send port, receiver receive port) and the
    execution earliest-fit on the target processor, on top of the
    committed timelines, and stops early once the finish is proven to
    exceed a threshold.  The outcome lives in an arena owned by the state
    and reused by the next probe: read a complete probe's finish with
    {!probe_finish}, and keep it with {!trial}. *)

type t

val create : Types.problem -> t
(** Fresh state over the problem's DAG (which may be a reversed graph for
    the bottom-up traversal; the state is direction-agnostic). *)

val problem : t -> Types.problem
val mapping : t -> Mapping.t

val finish : t -> Replica.id -> float
(** Committed finish time of a placed replica.
    @raise Invalid_argument if not placed. *)

val stage : t -> Replica.id -> int
(** Incrementally maintained pipeline stage of a placed replica. *)

val sigma : t -> Platform.proc -> float
val c_in : t -> Platform.proc -> float
val c_out : t -> Platform.proc -> float

val loads : t -> Loads.t
(** The incrementally maintained per-processor loads (Σ/Cᴵ/Cᴼ and the
    cached max cycle time).  {!commit} charges them through the [Loads]
    primitives, so readers never pay a full [Loads.of_mapping] rewalk. *)

module Pset = Bitset
(** Kill sets are packed bitsets over the processor indices: [disjoint] /
    [union] / [cardinal] — the operations on the placement hot path — run
    in O(m/word_size) word steps instead of walking a balanced tree. *)

val support : t -> Replica.id -> Pset.t
(** The {e kill set} of a placed replica: the processors whose individual
    failure prevents it from producing its output — its own processor,
    plus (transitively) the kill set of every sole-source predecessor
    replica.  A predecessor fed by all [ε+1] replicas contributes nothing:
    no single failure can silence a full replica group whose kill sets are
    pairwise disjoint, and the scheduler maintains exactly that
    disjointness invariant per task (this is the locking discipline that
    makes the active replication scheme ε-fault-tolerant). *)

val support_of_sources :
  t ->
  proc:Platform.proc ->
  sources:(Dag.task * Replica.id list) list ->
  Pset.t
(** The kill set a replica would have if placed on [proc] with the given
    sources (all of which must be placed). *)

val send_ready : t -> Platform.proc -> float
(** Earliest instant the send port of the processor is free forever after —
    the key used to sort predecessor replicas in the one-to-one procedure. *)

(** A placement of one replica, kept from a probe. *)
type trial = {
  t_task : Dag.task;
  t_copy : int;
  t_proc : Platform.proc;
  t_sources : (Dag.task * Replica.id list) list;
  t_start : float;
  t_finish : float;
  t_stage : int;
  t_comms : (Replica.id * float * float * float) list;
      (** incoming transfers in scheduling order: source replica, start,
          duration, arrival *)
}

val probe :
  t ->
  task:Dag.task ->
  copy:int ->
  proc:Platform.proc ->
  sources:(Dag.task * Replica.id list) list ->
  unit
(** First phase of a probe: collect the sources of placing the replica on
    the processor with the given source sets (one entry per predecessor,
    each source already placed), replacing the previous probe.  Schedules
    nothing — see {!complete} — and does not check the throughput
    condition — see {!feasible}.  Once the arena has grown to the largest
    fan-in, a probe builds no list, timeline version or table.
    @raise Invalid_argument if a source is not placed. *)

val complete : t -> cutoff:float -> bool
(** Second phase of the current probe: schedule its transfers and its
    execution.  Returns [false], leaving the probe incomplete, as soon as
    a floor on its finish time exceeds [cutoff] — a floor that only rises
    and is at most the finish the full schedule would give, so a probe
    stopped here would have finished strictly after [cutoff].  With
    [cutoff = infinity] it always runs to the end. *)

val probe_finish : t -> float
(** Estimated finish time of the current probe; [nan] unless {!complete}
    returned [true] for it. *)

val probe_stage : t -> int
(** Pipeline stage of the current probe. *)

val trial : t -> trial
(** The current probe as a value that survives later probes.
    @raise Invalid_argument unless the probe is complete. *)

val feasible : t -> bool
(** Condition (1) of §4 for the current probe: with the replica added, the
    target processor's computing load and input-communication load, and
    every source processor's output-communication load, all fit within
    the period [Δ = 1/T]. *)

val overload : t -> float
(** Total amount by which the current probe would push the affected
    resource loads beyond the period; [0] iff {!feasible}.  Used by the
    best-effort scheduling mode to pick the least-overloaded placement
    when condition (1) cannot be met anywhere (the paper's "we use other
    processors, at the risk of increasing the communication overhead"). *)

val earliest_start : t -> Platform.proc -> ready:float -> duration:float -> float
(** Earliest start [≥ ready] of an execution of the given duration on the
    processor's committed compute timeline.  Probes never write that
    timeline, so this floors the start of any probe on the processor
    whose data is ready no earlier than [ready]. *)

val commit : t -> trial -> unit
(** Apply a trial: place the replica in the mapping, charge loads, reserve
    the timeline intervals, record finish time and stage.
    @raise Invalid_argument on mapping inconsistencies. *)
