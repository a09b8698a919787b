(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, q in [0, 1]. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5
let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
