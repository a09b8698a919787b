(** The secure two-party dot-product protocol of Ioannidis, Grama and
    Atallah (§IV-A of the paper), over a prime field {!Zfield.t}.

    Bob holds a weight vector [w]; Alice holds a vector [v] and a random
    mask [alpha].  At the end Bob learns [w·v + alpha] and nothing else;
    Alice learns nothing.  Security rests on the received linear system
    being underdetermined (more unknowns than equations).

    Protocol (with [d = dim w + 1]):
    + Bob picks a random [s×s] matrix [Q], hides [w' = [w; 1]] as row [r]
      of a random [s×d] matrix [X], and sends [QX] together with blinded
      helper vectors [c' = c + R1 R2 f] and [g = R1 R3 f].
    + Alice extends her input to [v' = [v; alpha]], returns
      [a = Σ(QX v') - c'·v'] and [h = g·v'].
    + Bob computes [beta = (a + h R2/R3) / b = w·v + alpha] where
      [b] is the [r]-th column sum of [Q].

    Messages are explicit records so the network simulator can account
    for their size. *)

open Ppgr_rng

type round1 = {
  qx : Zfield.mat; (* s × d *)
  c' : Zfield.elt array; (* d *)
  g : Zfield.elt array; (* d *)
}

type round2 = { a : Zfield.elt; h : Zfield.elt }

type bob_state = {
  b : Zfield.elt; (* r-th column sum of Q (non-zero) *)
  r2 : Zfield.elt;
  r3 : Zfield.elt;
}

(* Field elements carried by each message (for bandwidth accounting). *)
let round1_elements ~s ~dim = (s * (dim + 1)) + (2 * (dim + 1))
let round2_elements = 2

let bob_round1 rng f ~w ~s =
  if s < 2 then invalid_arg "Dot_product.bob_round1: s must be >= 2";
  let d = Array.length w + 1 in
  let w' = Array.append w [| Zfield.one f |] in
  let r = Rng.int_below rng s in
  (* Retry until the r-th column sum of Q is invertible (it almost
     always is; a zero would make Bob's final division impossible). *)
  let rec pick_q () =
    let q = Zfield.mat_random rng f ~rows:s ~cols:s in
    let sums = Zfield.col_sums f q in
    if Zfield.is_zero f sums.(r) then pick_q () else (q, sums)
  in
  let q, sums = pick_q () in
  let x =
    Array.init s (fun i ->
        if i = r then w' else Zfield.random_vec rng f d)
  in
  let qx = Zfield.mat_mul f q x in
  (* c = Σ_{i≠r} (column-sum_i of Q) · x_i *)
  let c = Array.make d (Zfield.zero f) in
  for i = 0 to s - 1 do
    if i <> r then begin
      for j = 0 to d - 1 do
        c.(j) <- Zfield.add f c.(j) (Zfield.mul f sums.(i) x.(i).(j))
      done
    end
  done;
  let fv = Zfield.random_vec rng f d in
  let r1 = Zfield.random_nonzero rng f in
  let r2 = Zfield.random_nonzero rng f in
  let r3 = Zfield.random_nonzero rng f in
  let r1r2 = Zfield.mul f r1 r2 in
  let r1r3 = Zfield.mul f r1 r3 in
  let c' = Array.mapi (fun j cj -> Zfield.add f cj (Zfield.mul f r1r2 fv.(j))) c in
  let g = Array.map (Zfield.mul f r1r3) fv in
  ({ b = sums.(r); r2; r3 }, { qx; c'; g })

let alice_round2 rng f ~v ~alpha (m : round1) =
  ignore rng;
  let v' = Array.append v [| alpha |] in
  let y = Zfield.mat_vec f m.qx v' in
  let z = Array.fold_left (Zfield.add f) (Zfield.zero f) y in
  let a = Zfield.sub f z (Zfield.dot f m.c' v') in
  let h = Zfield.dot f m.g v' in
  { a; h }

let bob_finish f (st : bob_state) (m : round2) =
  let ratio = Zfield.div f st.r2 st.r3 in
  Zfield.div f (Zfield.add f m.a (Zfield.mul f m.h ratio)) st.b

(** Reference plaintext computation for tests: [w·v + alpha] in the
    field. *)
let plain f ~w ~v ~alpha =
  Zfield.add f (Zfield.dot f w v) alpha
