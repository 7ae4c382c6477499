(* What the harness needs from a workload.  A workload builds an
   [instance] in its set-up; the harness then drives [op] in a closed
   loop, one caller, timing each call from outside. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type instance = {
  op : int -> unit;
      (** run op [i]; ids start at 0 and the first [warmup] ops run
          inside the set-up *)
  check : int -> string option;
      (** verdict on the op just run, untimed: [None] when its output is
          correct *)
  extras : count_ops:int list -> fail:(string -> unit) -> metric list;
      (** traced run only: per-layer figures the harness cannot take from
          spans and counters of the main domain — data the workload kept
          about the [count_ops], and back-to-back measurements, whose
          mismatches it reports through [fail] *)
  close : unit -> unit;
}

(** The result guard: the workload's outputs on fixed inputs, checked
    against a digest pinned in the benchmark. *)
type reference = {
  digest : string;
  pinned : string;
  result : metric;
      (** the deterministic result metric the fixed inputs give *)
  ops : int;  (** outputs checked *)
  failures : string list;  (** what did not match, if anything *)
}

type t = {
  name : string;
  warmup : int;  (** ops run and discarded at the end of set-up *)
  cycle : int;
      (** ops after which the inputs repeat their mix: the timed phase
          runs whole cycles, so every run times the same mix *)
  count_ops : int;
      (** traced ops the per-op counts are taken over: a fixed set, so
          counts repeat exactly for a given seed *)
  setup :
    seed:int -> spans:Perfbench_core.Spans.t -> tick:(unit -> unit) -> instance;
      (** [tick] is called between units of set-up work, so the harness
          can follow the host's speed through a long set-up *)
  reference : unit -> reference;
}

(* Hex of a digest over the IEEE bits of floats and plain ints: a
   result digest that a one-ulp change moves. *)
let digest_floats floats =
  let b = Buffer.create 1024 in
  List.iter (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f)) floats;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Bytes the calling domain allocates in [f], least of [reps] runs:
   [Gc.allocated_bytes] over-reports now and then on OCaml 5.1. *)
let min_alloc ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let a0 = Gc.allocated_bytes () in
    f ();
    best := Float.min !best (Gc.allocated_bytes () -. a0)
  done;
  !best

(* The seed of the result guard's fixed inputs. *)
let reference_seed = 2009

(* The [count] task counts of a run's set-up mappings: spread evenly over
   the spec's [lo, hi] range instead of drawn, so every seed runs the same
   mix of sizes and the seed only picks the graphs, weights and platforms.
   Drawn sizes made a run's mean op time move by a quarter from seed to
   seed with a handful of mappings.  [stride] (coprime with [count])
   shuffles the sizes against the other cycles of the workload. *)
let stratified_size ~count ~stride j (spec : Spec.t) =
  match spec.Spec.impl with
  | Spec.Paper p ->
      let lo, hi = p.Paper_workload.tasks_range in
      let k = j * stride mod count in
      let v = lo + ((hi - lo) * k / max 1 (count - 1)) in
      Spec.paper ~name:spec.Spec.name { p with Paper_workload.tasks_range = (v, v) }
  | _ -> invalid_arg "stratified_size: not a paper-style spec"

(* Counter of the main domain's registry. *)
let counter name = Obs.Registry.counter (Obs.current ()) name
