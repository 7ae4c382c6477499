(* Busy intervals on a resource, stored flat for million-task schedules.

   The committed intervals of a timeline live in a shared growable pair of
   sorted float arrays (starts, finishes); a timeline value is a *version*:
   a prefix length into that buffer plus a small persistent overlay of
   recent inserts.  Queries run a binary search over the flat prefix
   instead of a head-to-tail scan.

   In-place buffer appends are only permitted for the *tip* version (the
   one whose prefix length equals the committed buffer length); every
   other version sees an unchanged prefix.  Out-of-order inserts (gap
   filling) go through the overlay and are packed into a fresh buffer once
   the overlay reaches a small bound, keeping every operation amortized
   O(log n + overlay).

   Placement probes do not branch versions: they keep their tentative
   intervals in a caller-owned {!scratch} and query the committed version
   and the scratch together. *)

type buf = {
  mutable bs : float array; (* starts,   sorted, prefix [0, bn) committed *)
  mutable bf : float array; (* finishes, same indexing *)
  mutable bn : int;
}

type t = {
  buf : buf;
  n : int; (* this version's valid prefix of [buf] *)
  ov : (float * float) list; (* sorted by start; small *)
  ov_n : int;
}

let eps = 1e-12

(* Out-of-order inserts ride in the overlay until it holds this many
   entries; the next one packs the merged view into a fresh buffer.  Every
   query scans the overlay, so the bound trades query cost against the
   O(n) pack. *)
let max_overlay = 8

(* Probe-private intervals: a standalone sorted buffer, stable after equal
   starts. *)
type scratch = buf

let scratch () = { bs = [||]; bf = [||]; bn = 0 }
let clear sc = sc.bn <- 0

(* Never written: the scratch of the plain (committed-only) queries. *)
let no_scratch = scratch ()

let empty =
  { buf = { bs = [||]; bf = [||]; bn = 0 }; n = 0; ov = []; ov_n = 0 }

(* First index in [0, n) with bs.(i) >= ready -. eps.  Every interval
   strictly before the returned index satisfies s + eps < ready and (by
   disjointness, up to the eps slack) f <= s_next + eps < ready + 2eps; the
   one interval stepped back to below may span [ready], so scans start at
   [lower_bound - 1]. *)
let lower_bound buf n ~ready =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if buf.bs.(mid) < ready -. eps then lo := mid + 1 else hi := mid
  done;
  !lo

let start_index buf n ~ready =
  if n = 0 then 0
  else
    let lb = lower_bound buf n ~ready in
    if lb = 0 then 0 else lb - 1

(* Merge-scan the buffer prefix, the overlay and the scratch in start order
   (buffer, then overlay, then scratch on equal starts), skipping a busy
   interval by advancing past its finish and stopping at the first gap
   wide enough.  A while loop over local refs, which the compiler keeps
   unboxed: probes call this millions of times. *)
let earliest_fit_with t sc ~ready ~duration =
  if duration < 0.0 then invalid_arg "Timeline.earliest_fit: negative duration";
  let buf = t.buf and n = t.n and sn = sc.bn in
  let i = ref (start_index buf n ~ready) and ov = ref t.ov and j = ref 0 in
  let candidate = ref ready and s = ref 0.0 and f = ref 0.0 in
  let searching = ref true in
  while !searching do
    let take_buf =
      !i < n
      && (match !ov with [] -> true | (os, _) :: _ -> buf.bs.(!i) <= os)
      && (!j >= sn || buf.bs.(!i) <= sc.bs.(!j))
    in
    let next =
      if take_buf then begin
        s := buf.bs.(!i);
        f := buf.bf.(!i);
        incr i;
        true
      end
      else
        match !ov with
        | (os, ofin) :: rest when !j >= sn || os <= sc.bs.(!j) ->
            s := os;
            f := ofin;
            ov := rest;
            true
        | _ ->
            !j < sn
            && begin
                 s := sc.bs.(!j);
                 f := sc.bf.(!j);
                 incr j;
                 true
               end
    in
    if (not next) || !candidate +. duration <= !s +. eps then searching := false
    else candidate := Float.max !candidate !f
  done;
  !candidate

let earliest_fit t ~ready ~duration = earliest_fit_with t no_scratch ~ready ~duration

let overlap_error () = invalid_arg "Timeline.insert: overlapping interval"

(* Intervals skipped by the lower-bound jump end before [start]; checking
   the immediate predecessor and every interval from there on, plus the
   whole overlay and scratch, reproduces a full-scan overlap validation.
   Closure-free and inlined so a probe's reservations do not allocate. *)
let[@inline] check_no_overlap t sc ~start ~finish =
  let buf = t.buf in
  let i = ref (start_index buf t.n ~ready:start) in
  while !i < t.n && buf.bs.(!i) < finish do
    if finish > buf.bs.(!i) +. eps && buf.bf.(!i) > start +. eps then
      overlap_error ();
    incr i
  done;
  let ov = ref t.ov in
  while
    match !ov with
    | [] -> false
    | (s, f) :: rest ->
        if finish > s +. eps && f > start +. eps then overlap_error ();
        ov := rest;
        true
  do
    ()
  done;
  for j = 0 to sc.bn - 1 do
    if finish > sc.bs.(j) +. eps && sc.bf.(j) > start +. eps then
      overlap_error ()
  done

(* Fold the merged (prefix, overlay) view left to right in start order,
   buffer entries first on ties — the order the old sorted list presented. *)
let fold_merged t ~init ~f =
  let buf = t.buf and n = t.n in
  let rec go acc i ov =
    let take_buf =
      i < n
      && match ov with [] -> true | (os, _) :: _ -> buf.bs.(i) <= os
    in
    if take_buf then go (f acc buf.bs.(i) buf.bf.(i)) (i + 1) ov
    else
      match ov with
      | [] -> acc
      | (s, fi) :: rest -> go (f acc s fi) i rest
  in
  go init 0 t.ov

let pack t ~start ~finish =
  Obs.incr "sched.timeline.packs";
  let total = t.n + t.ov_n + 1 in
  let bs = Array.make (max 8 (2 * total)) 0.0 in
  let bf = Array.make (Array.length bs) 0.0 in
  let idx = ref 0 in
  let push s f =
    bs.(!idx) <- s;
    bf.(!idx) <- f;
    incr idx
  in
  (* Merge the new interval into the merged view in one pass (new interval
     goes after existing entries with the same start, matching the sorted
     overlay insertion below). *)
  let placed = ref false in
  fold_merged t ~init:() ~f:(fun () s f ->
      if (not !placed) && start < s then begin
        push start finish;
        placed := true
      end;
      push s f);
  if not !placed then push start finish;
  { buf = { bs; bf; bn = !idx }; n = !idx; ov = []; ov_n = 0 }

let grow buf =
  let cap = max 8 (2 * Array.length buf.bs) in
  let bs = Array.make cap 0.0 and bf = Array.make cap 0.0 in
  Array.blit buf.bs 0 bs 0 buf.bn;
  Array.blit buf.bf 0 bf 0 buf.bn;
  buf.bs <- bs;
  buf.bf <- bf

let insert t ~start ~duration =
  if duration < 0.0 then invalid_arg "Timeline.insert: negative duration";
  if duration = 0.0 then t
  else begin
    let finish = start +. duration in
    check_no_overlap t no_scratch ~start ~finish;
    if t.n = 0 && t.ov_n = 0 then begin
      (* First interval: claim a fresh private buffer (never extend the
         shared [empty] buffer). *)
      let bs = Array.make 8 0.0 and bf = Array.make 8 0.0 in
      bs.(0) <- start;
      bf.(0) <- finish;
      { buf = { bs; bf; bn = 1 }; n = 1; ov = []; ov_n = 0 }
    end
    else if
      t.ov_n = 0 && t.n = t.buf.bn (* tip version: may extend in place *)
      && t.buf.bs.(t.n - 1) <= start
      && t.buf.bf.(t.n - 1) <= start +. eps
    then begin
      let buf = t.buf in
      if buf.bn = Array.length buf.bs then grow buf;
      buf.bs.(buf.bn) <- start;
      buf.bf.(buf.bn) <- finish;
      buf.bn <- buf.bn + 1;
      { t with n = buf.bn }
    end
    else if t.ov_n >= max_overlay then pack t ~start ~finish
    else begin
      (* Sorted persistent overlay insert; stable after equal starts. *)
      let rec place = function
        | [] -> [ (start, finish) ]
        | (s, f) :: rest when s <= start -> (s, f) :: place rest
        | later -> (start, finish) :: later
      in
      { t with ov = place t.ov; ov_n = t.ov_n + 1 }
    end
  end

let reserve t sc ~start ~duration =
  if duration < 0.0 then invalid_arg "Timeline.reserve: negative duration";
  if duration > 0.0 then begin
    let finish = start +. duration in
    check_no_overlap t sc ~start ~finish;
    if sc.bn = Array.length sc.bs then grow sc;
    (* sorted insert, after any entry with the same start *)
    let k = ref sc.bn in
    while !k > 0 && sc.bs.(!k - 1) > start do
      sc.bs.(!k) <- sc.bs.(!k - 1);
      sc.bf.(!k) <- sc.bf.(!k - 1);
      decr k
    done;
    sc.bs.(!k) <- start;
    sc.bf.(!k) <- finish;
    sc.bn <- sc.bn + 1
  end

(* End of the interval with the greatest start (the last one in the merged
   order), not the max finish: intervals may overlap by [eps], and the old
   list fold returned the final element's finish. *)
let busy_until t =
  fold_merged t ~init:0.0 ~f:(fun _ _ f -> f)

let total_busy t = fold_merged t ~init:0.0 ~f:(fun acc s f -> acc +. (f -. s))

let intervals t =
  List.rev (fold_merged t ~init:[] ~f:(fun acc s f -> (s, f) :: acc))
