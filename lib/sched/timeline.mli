(** Busy-interval timelines for one-port finish-time estimation.

    A timeline records disjoint half-open busy intervals on a resource (a
    compute core, a send port, a receive port).  Timelines are persistent:
    inserting returns a new version and leaves the old one valid.
    Placement probes, which ask "where would this fit" millions of times
    and keep nothing, hold their tentative intervals in a reusable
    {!scratch} instead of branching versions. *)

type t

val empty : t

val earliest_fit : t -> ready:float -> duration:float -> float
(** The earliest start [s ≥ ready] such that [[s, s + duration)] does not
    intersect any busy interval.  A zero-duration request returns the
    earliest instant not interior to a busy interval. *)

val insert : t -> start:float -> duration:float -> t
(** Mark [[start, start + duration)] busy.
    @raise Invalid_argument if it overlaps an existing interval (callers
    must reserve via {!earliest_fit}) or if [duration < 0]. *)

val busy_until : t -> float
(** End of the last busy interval; [0] for an empty timeline. *)

val total_busy : t -> float
(** Sum of busy durations. *)

type scratch
(** A mutable, reusable set of probe-private busy intervals, read together
    with a committed timeline by {!earliest_fit_with} and {!reserve}. *)

val scratch : unit -> scratch
(** An empty scratch. *)

val clear : scratch -> unit
(** Forget every interval; keeps the storage for reuse. *)

val earliest_fit_with : t -> scratch -> ready:float -> duration:float -> float
(** {!earliest_fit} over the union of the timeline's intervals and the
    scratch's.  Reads both, writes neither. *)

val reserve : t -> scratch -> start:float -> duration:float -> unit
(** Mark [[start, start + duration)] busy in the scratch; the timeline is
    left untouched.  A zero duration is a no-op.
    @raise Invalid_argument if the interval overlaps one of the timeline
    or of the scratch, or if [duration < 0]. *)

val intervals : t -> (float * float) list
(** Busy intervals in increasing order (for tests and rendering). *)
