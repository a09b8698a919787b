(** (t, n) Shamir secret sharing over a prime field.

    A secret [s] is hidden as the constant term of a random degree-[t]
    polynomial; party [i] (1-indexed) holds the evaluation at [x = i].
    Any [t+1] shares reconstruct [s] by Lagrange interpolation at 0; [t]
    shares reveal nothing.  The multiplication protocol of the MPC engine
    needs [n >= 2t + 1].  Shares are Montgomery-resident field elements
    ({!Zfield.elt}) throughout. *)

open Ppgr_dotprod

(** [share rng f ~t ~n s] returns [n] shares of the field element [s],
    index [i] belonging to party [i+1] (evaluation point [i+1]).  Each
    share is a Horner evaluation from the top coefficient, one field
    multiplication per coefficient (the first multiplies the zero
    accumulator). *)
let share (rng : Ppgr_rng.Rng.t) f ~t ~n secret =
  if t < 0 || n < t + 1 then invalid_arg "Shamir.share: need n >= t + 1";
  let coeffs = Array.init (t + 1) (fun i -> if i = 0 then secret else Zfield.random rng f) in
  let one = Zfield.one f and x = Zfield.alloc f in
  Array.init n (fun _ ->
      Zfield.add_into f x x one;
      let acc = Zfield.alloc f in
      for k = t downto 0 do
        Zfield.mul_into f acc x acc;
        Zfield.add_into f acc acc coeffs.(k)
      done;
      acc)

(** Lagrange weights at 0 for evaluation points [ids] (1-indexed party
    numbers): [w_i = Π_{j≠i} x_j / (x_j - x_i)].  The [n] divisions
    share one batch inversion of the denominators; each still counts one
    field multiplication, as {!Zfield.div} does. *)
let lagrange_weights_at_zero f ids =
  let xs = Array.map (fun id -> Zfield.of_int f id) ids in
  let n = Array.length xs in
  let nums = Array.make n (Zfield.one f) and dens = Array.make n (Zfield.one f) in
  Array.iteri
    (fun i xi ->
      Array.iteri
        (fun j xj ->
          if j <> i then begin
            nums.(i) <- Zfield.mul f nums.(i) xj;
            dens.(i) <- Zfield.mul f dens.(i) (Zfield.sub f xj xi)
          end)
        xs)
    xs;
  Array.map2 (Zfield.mul f) nums (Zfield.inv_all f dens)

(** Reconstruct from (party-id, share) pairs; needs at least [t+1] of
    them and interpolates through all provided points. *)
let reconstruct f points =
  let ids = Array.map fst points in
  let ws = lagrange_weights_at_zero f ids in
  let acc = Zfield.alloc f and term = Zfield.alloc f in
  Array.iteri
    (fun i (_, s) ->
      Zfield.mul_into f term ws.(i) s;
      Zfield.add_into f acc acc term)
    points;
  acc

(** Reconstruct taking the first [t+1] of a full share vector. *)
let reconstruct_first f ~t shares =
  reconstruct f (Array.init (t + 1) (fun i -> (i + 1, shares.(i))))
