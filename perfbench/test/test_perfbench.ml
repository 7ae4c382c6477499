(* Span self time and percentile arithmetic of the benchmark. *)

open Perfbench_core

let span ?(parent = -1) ?(op = 0) name start stop =
  { Spans.name; start; stop; parent; op }

let close = Alcotest.(check (float 1e-12))

let test_nested () =
  (* op [0, 10] > a [1, 3] > a1 [1.5, 2]; b [2, 5] overlaps a; c [6, 8] *)
  let spans =
    [|
      span "op" 0.0 10.0;
      span ~parent:0 "a" 1.0 3.0;
      span ~parent:1 "a1" 1.5 2.0;
      span ~parent:0 "b" 2.0 5.0;
      span ~parent:0 "c" 6.0 8.0;
    |]
  in
  let self = Spans.self_times spans in
  close "op: 10 minus the union [1,5] u [6,8]" 4.0 self.(0);
  close "a: 2 minus its child" 1.5 self.(1);
  close "a1: a leaf" 0.5 self.(2);
  close "b: a leaf, whatever its siblings" 3.0 self.(3);
  close "c" 2.0 self.(4)

let test_clipped_child () =
  (* a child that outlives its parent only covers the parent's part *)
  let self = Spans.self_times [| span "p" 0.0 4.0; span ~parent:0 "k" 3.0 9.0 |] in
  close "parent keeps [0,3]" 3.0 self.(0)

let test_empty () =
  Alcotest.(check int) "no spans" 0 (Array.length (Spans.self_times [||]));
  let self =
    Spans.self_times
      [| span "zero" 2.0 2.0; span "backwards" 5.0 4.0; span ~parent:0 "inside" 2.0 2.0 |]
  in
  close "zero-length span" 0.0 self.(0);
  close "reversed span" 0.0 self.(1);
  close "zero-length child" 0.0 self.(2);
  close "self_of nothing" 0.0 (Spans.self_of [||] "op")

let test_recorder () =
  let now = ref 0.0 in
  let clock () = now := !now +. 1.0; !now in
  let r = Spans.create ~clock () in
  Spans.set_op r 7;
  Spans.with_span r "outer" (fun () ->
      Spans.with_span r "inner" (fun () -> ());
      try Spans.with_span r "raises" (fun () -> failwith "x") with Failure _ -> ());
  let s = Spans.spans r in
  Alcotest.(check (list string)) "start order" [ "outer"; "inner"; "raises" ]
    (Array.to_list (Array.map (fun (x : Spans.span) -> x.name) s));
  Alcotest.(check (list int)) "parents" [ -1; 0; 0 ]
    (Array.to_list (Array.map (fun (x : Spans.span) -> x.parent) s));
  Alcotest.(check bool) "op ids" true (Array.for_all (fun (x : Spans.span) -> x.op = 7) s);
  Alcotest.(check bool) "a raising span is closed" true (s.(2).stop > s.(2).start);
  close "outer self: 5 ticks minus two 1-tick children" 3.0 (Spans.self_of s "outer");
  close "filtered out by op" 0.0 (Spans.self_of ~op_filter:(fun op -> op <> 7) s "outer");
  let off = Spans.create ~enabled:false ~clock () in
  Alcotest.(check int) "disabled records nothing" 42 (Spans.with_span off "x" (fun () -> 42));
  Alcotest.(check int) "nothing" 0 (Array.length (Spans.spans off))

let sample n = Array.init n (fun i -> float_of_int (n - i))

let test_ten_beyond () =
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "empty" None (Quantile.percentile ~p:0.5 [||]);
  Alcotest.check opt "p90 of 99: nine beyond" None (Quantile.percentile ~p:0.9 (sample 99));
  Alcotest.check opt "p90 of 100: ten beyond" (Some 90.0) (Quantile.percentile ~p:0.9 (sample 100));
  Alcotest.check opt "median of 19" None (Quantile.median (sample 19));
  Alcotest.check opt "median of 20" (Some 10.0) (Quantile.median (sample 20));
  Alcotest.check opt "p99 of 999" None (Quantile.percentile ~p:0.99 (sample 999));
  Alcotest.check opt "p99 of 1000" (Some 990.0) (Quantile.percentile ~p:0.99 (sample 1000));
  Alcotest.(check int) "beyond p90 of 100" 10 (Quantile.beyond ~p:0.9 ~n:100);
  let a = sample 30 in
  ignore (Quantile.median a);
  Alcotest.(check (float 0.0)) "input left unsorted" 30.0 a.(0)

let test_middle () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Quantile.middle [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Quantile.middle [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Quantile.middle [||]))

let () =
  Alcotest.run "perfbench"
    [
      ( "span-self-time",
        [
          Alcotest.test_case "nested and overlapping children" `Quick test_nested;
          Alcotest.test_case "child clipped to its parent" `Quick test_clipped_child;
          Alcotest.test_case "empty and zero-length spans" `Quick test_empty;
          Alcotest.test_case "recorder nesting, ops and raises" `Quick test_recorder;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "ten samples beyond the rank" `Quick test_ten_beyond;
          Alcotest.test_case "plain median" `Quick test_middle;
        ] );
    ]
