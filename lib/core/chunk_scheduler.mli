(** The chunked list-scheduling skeleton shared by LTF and R-LTF
    (Algorithm 4.1 of the paper, with Algorithm 4.2 as its inner
    procedure).

    At each step the scheduler selects a chunk [β] of up to [B = m] ready
    tasks of highest priority ([tℓ + bℓ] on platform-averaged weights) and
    places the [ε + 1] replicas of each, iterating copy-major as in the
    paper (copy [N] of every chunk task, then copy [N+1], ...).  While a
    task still has singleton predecessor replicas available ([Z_k < θ_k]),
    replicas are placed by the one-to-one mapping procedure — each selected
    head replica feeds exactly this replica — otherwise by the general rule
    where the replica receives from all [ε + 1] replicas of every
    predecessor.

    Processor eligibility follows §4: a candidate must not be locked for
    the task (hosting one of its replicas, or involved in a communication
    with one) and must satisfy the throughput condition (1).  When no
    unlocked processor is feasible, the general branch may fall back to
    communication-locked processors that are provably safe for the
    ε-failure guarantee (never those hosting a replica of the task, nor
    those that are the sole source of a placed replica); this implements
    the paper's "we use other processors" escape hatch without
    compromising fault tolerance.  If even the fallback finds no
    processor, the algorithm fails, as LTF does in the worked example of
    §4.3.

    Candidate ranking is a parameter: LTF minimizes the estimated finish
    time [F]; R-LTF minimizes the pipeline stage first (Rule 1) and the
    finish time second.

    Configuration lives in the one canonical {!Sched_api.options} record
    (re-exported by [Scheduler]); this module defines only the engine.

    When {!Obs.enabled} is on, a run records the counters
    [core.placement_probes] (probes started), [core.probe_prunes]
    (candidates skipped unprobed), [core.probe_cutoffs] (probes cut by
    {!contest}), [core.feasibility_rejections],
    [core.one_to_one_calls], [core.general_calls], [core.commits] and
    [core.chunks], the histogram [core.chunk_size], and the per-chunk span
    [core.scheduler.chunk] into the calling domain's registry.  The
    instrumentation is purely observational: results are bit-identical
    whether it is on or off. *)

type rank = {
  score : stage:int -> finish:float -> float * float;
      (** Smaller is better, compared lexicographically; ties broken by
          processor index.  Monotone component-wise in the trial's
          pipeline stage and estimated finish time. *)
  cutoff : stage:int -> float * float -> float;
      (** [cutoff ~stage incumbent] is a finish threshold: a trial of
          that stage finishing strictly later scores strictly worse
          ([>lex]) than the [incumbent] score.  It never rises with the
          stage.  Candidates whose {!candidate_bound} floors already
          exceed it, and probes whose finish floor exceeds it midway
          through their transfers, are dropped — the selected trial is
          identical, only the work changes. *)
}

val by_finish_time : rank
(** LTF's policy: score [(F, 0)]; cutoff the incumbent's finish. *)

val by_stage_then_finish : rank
(** R-LTF's Rule 1 policy: score [(stage, F)]; cutoff [-∞] above the
    incumbent's stage, its finish at that stage, [+∞] below it. *)

type incumbent = {
  penalty : float;  (** overload, 0 in strict mode *)
  score : float * float;
  trial : State.trial;
}
(** The best placement of a replica so far. *)

val prunable :
  rank:rank -> incumbent option -> stage_lb:int -> finish_lb:float -> bool
(** Whether a candidate processor with the {!candidate_bound} floors
    [(stage_lb, finish_lb)] can be skipped unprobed: [finish_lb] exceeds
    the finish threshold above which a trial of penalty 0 (every penalty
    is ≥ 0) and stage [stage_lb] loses strictly to the incumbent under
    (penalty, rank) — [rank.cutoff] for a zero-penalty incumbent, [+∞]
    for a penalized one or none.  Strictly, so that the processor-index
    tie-break cannot rescue it. *)

type outcome =
  | Rejected  (** fails condition (1) in strict mode *)
  | Cut  (** proven to lose to the incumbent, stopped early *)
  | Offered  (** complete, and compared with the incumbent *)

val contest :
  mode:Sched_api.mode ->
  rank:rank ->
  State.t ->
  incumbent option ref ->
  proc:Platform.proc ->
  outcome
(** Decide the current probe (first phase done with {!State.probe} on
    [proc]) against the incumbent: admit it, compute its penalty, and
    complete it with {!State.complete} under the same threshold as
    {!prunable} at the probe's own penalty and stage ([-∞] when its
    penalty is higher than the incumbent's, [+∞] when lower); a complete
    probe replaces the incumbent when it is smaller under (penalty, rank,
    processor index).  A probe it cuts would have scored strictly worse
    than the incumbent. *)

val candidate_bound :
  State.t ->
  preds:(float * (float * int * Platform.proc) list) list ->
  work:float ->
  Platform.proc ->
  int * float
(** [candidate_bound state ~preds ~work proc] floors the pipeline stage
    and the finish time of any trial of a task of execution weight [work]
    on [proc] whose source set takes at least one replica from each
    [preds] entry, given as (transfer volume, admissible sources as
    (finish, stage, host) triples).  The finish floor is the earliest fit
    of the execution on [proc]'s committed compute timeline at the
    earliest instant every predecessor can deliver, plus the execution
    time. *)

val schedule :
  ?opts:Sched_api.options ->
  rank:rank ->
  Types.problem ->
  (State.t, Types.failure) result
(** Schedule every task of the problem's DAG.  On success the returned
    state holds a complete mapping. *)
