type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;
  op : int;
}

type t = {
  clock : unit -> float;
  mutable on : bool;
  mutable buf : span array;
  mutable len : int;
  mutable current : int;
  mutable op_id : int;
}

let dummy = { name = ""; start = 0.0; stop = 0.0; parent = -1; op = -1 }

let create ?(enabled = true) ~clock () =
  {
    clock;
    on = enabled;
    buf = Array.make 1024 dummy;
    len = 0;
    current = -1;
    op_id = -1;
  }

let enabled t = t.on
let set_enabled t b = t.on <- b
let set_op t op = t.op_id <- op

let push t s =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

(* The slot is reserved when the span opens, so spans stay in start
   order and children can name their parent by index. *)
let with_span t name f =
  if not t.on then f ()
  else begin
    let parent = t.current in
    let start = t.clock () in
    let idx = push t { name; start; stop = start; parent; op = t.op_id } in
    t.current <- idx;
    let finish () =
      t.buf.(idx) <- { (t.buf.(idx)) with stop = t.clock () };
      t.current <- parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans t = Array.sub t.buf 0 t.len

let clear t =
  t.len <- 0;
  t.current <- -1

let duration s = Float.max 0.0 (s.stop -. s.start)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec sweep acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then sweep acc (Some (ca, Float.max cb b)) rest
            else sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0.0 None clipped

let self_times spans =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 && s.parent < n then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      if s.stop <= s.start then 0.0
      else duration s -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans

let self_of ?(op_filter = fun _ -> true) spans name =
  let self = self_times spans in
  let total = ref 0.0 in
  Array.iteri (fun i s -> if s.name = name && op_filter s.op then total := !total +. self.(i)) spans;
  !total
