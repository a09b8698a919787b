(* The recursive Euclidean Jacobi symbol that [Bigint.jacobi] used before
   the binary limb-buffer version: a reduction per step, factors of two
   pulled out one bit at a time, reciprocity on every swap.  Kept here
   only as the differential oracle for the library kernel. *)

open Ppgr_bigint

let jacobi a n =
  if Bigint.sign n <= 0 || Bigint.is_even n then
    invalid_arg "Jacobi_ref.jacobi: n must be odd positive";
  let low n k = Bigint.to_int_exn (Bigint.logand n (Bigint.of_int k)) in
  let rec go a n acc =
    let a = Bigint.erem a n in
    if Bigint.is_zero a then if Bigint.equal n Bigint.one then acc else 0
    else begin
      let rec twos a acc =
        if Bigint.is_even a then begin
          let nmod8 = low n 7 in
          let acc = if nmod8 = 3 || nmod8 = 5 then -acc else acc in
          twos (Bigint.shift_right a 1) acc
        end
        else (a, acc)
      in
      let a, acc = twos a acc in
      if Bigint.equal a Bigint.one then acc
      else begin
        let acc = if low a 3 = 3 && low n 3 = 3 then -acc else acc in
        go n a acc
      end
    end
  in
  go a n 1
