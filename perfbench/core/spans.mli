(** In-memory span recorder.

    A span is one timed call into a layer of the program: its name, its
    start and end on a monotonic clock, the span that was open when it
    began (its parent) and the op it belongs to.  Spans are appended to
    a growable buffer and read back when the run ends; nothing is
    written while ops are being timed. *)

type span = {
  name : string;
  start : float;  (** seconds, monotonic *)
  stop : float;
  parent : int;  (** index of the enclosing span, [-1] at top level *)
  op : int;  (** the op id current when the span began *)
}

type t

val create : ?enabled:bool -> clock:(unit -> float) -> unit -> t
(** A recorder reading [clock] at both ends of each span.  With [~enabled:false] (the default is
    [true]) {!with_span} runs its thunk and records nothing. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_op : t -> int -> unit
(** Tag spans begun from now on with this op id. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Time the thunk as a span nested under the currently open one.  The
    span is recorded also when the thunk raises. *)

val spans : t -> span array
(** Every recorded span, in the order they began. *)

val clear : t -> unit

val self_times : span array -> float array
(** Per span, its duration minus the part of its interval covered by its
    direct children (the union of their intervals, clipped to the
    parent's).  Negative or empty intervals count as zero. *)

val self_of : ?op_filter:(int -> bool) -> span array -> string -> float
(** Total self time of the spans with this name whose op satisfies
    [op_filter] (default: all). *)
