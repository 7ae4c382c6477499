(** Order statistics for per-op timings.

    Percentiles use the nearest-rank definition on the sorted sample:
    the [p]-th percentile of [n] values is the value of rank
    [ceil (p · n)] (1-based).  A percentile is {e reportable} only when
    at least {!min_beyond} samples lie strictly beyond that rank, so a
    tail figure always rests on a tail of real observations. *)

val min_beyond : int
(** [10]. *)

val rank : p:float -> n:int -> int
(** The 1-based nearest rank [max 1 (ceil (p · n))].
    @raise Invalid_argument unless [0 < p <= 1] and [n >= 1]. *)

val beyond : p:float -> n:int -> int
(** Samples ranked after {!rank}: [n - rank ~p ~n]. *)

val percentile : p:float -> float array -> float option
(** The nearest-rank percentile of the (unsorted) sample, or [None] when
    fewer than {!min_beyond} samples lie beyond it — including the empty
    sample.  The input array is not modified. *)

val median : float array -> float option
(** {!percentile} at [p = 0.5]. *)

val middle : float array -> float
(** The plain median (mean of the two middle values for an even count),
    with no tail rule: for a handful of repeated set-ups, not for per-op
    tails.  [nan] on the empty array. *)
