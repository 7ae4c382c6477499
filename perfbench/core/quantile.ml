let min_beyond = 10

let rank ~p ~n =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Quantile.rank: p outside (0, 1]";
  if n < 1 then invalid_arg "Quantile.rank: empty sample";
  max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let beyond ~p ~n = n - rank ~p ~n

let percentile ~p values =
  let n = Array.length values in
  if n = 0 || beyond ~p ~n < min_beyond then None
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    Some sorted.(rank ~p ~n - 1)
  end

let median values = percentile ~p:0.5 values

let middle values =
  let n = Array.length values in
  if n = 0 then nan
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
  end
