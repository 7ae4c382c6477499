(* A fixed probe of the host's current speed.

   The host's effective speed drifts by tens of percent over seconds, as
   other tenants come and go.  The probe is a fixed piece of work that
   does not call the program under test: branchy integer code over small
   arrays — an open-addressing hash table, a heap sort, a float square
   root here and there — the instruction mix of the scheduler and the
   engine.  It allocates nothing, so it never waits on the garbage
   collector or on other domains.  Its duration tracks the host, never
   the program.  The harness runs it around every timed interval. *)

let slots = 1024
let keys = Array.make slots (-1)
let vals = Array.make slots 0
let heap = Array.make 512 0
let sink = ref 0

let insert k v =
  let i = ref ((k * 0x9E3779B1) land (slots - 1)) in
  while keys.(!i) <> -1 && keys.(!i) <> k do
    i := (!i + 1) land (slots - 1)
  done;
  keys.(!i) <- k;
  vals.(!i) <- vals.(!i) + v

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let heap_sort a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do sift a i n done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

let kernel () =
  Array.fill keys 0 slots (-1);
  let h = ref 0x2545F491 and f = ref 1.0 in
  for i = 0 to 767 do
    h := (!h * 1103515245) + 12345;
    insert ((!h lsr 8) land 4095) i;
    if i land 3 = 0 then f := sqrt (!f +. float_of_int (!h land 0xFFFF))
  done;
  for i = 0 to Array.length heap - 1 do
    h := (!h * 1103515245) + 12345;
    heap.(i) <- (!h lsr 8) land 0xFFFFF
  done;
  heap_sort heap;
  sink := !sink + heap.(0) + int_of_float !f

(* Seconds one kernel takes right now. *)
let probe () =
  let t0 = Pb_clock.now () in
  kernel ();
  Pb_clock.now () -. t0
