(** A prime field [Z_P] with convenience vector/matrix operations, used
    by the secure dot-product protocol and the Shamir substrate.

    Elements live in Montgomery form on the limb engine
    ({!Bigint.Modring}) from the moment they enter the field until a
    protocol boundary reads them out: add and sub are a limb pass plus
    one conditional subtraction, mul is one Montgomery product.  Signed
    quantities map out through a centered representation
    ([rep > P/2] reads as [rep - P]).  A field-multiplication counter
    backs the SS cost model. *)

open Ppgr_bigint
module M = Bigint.Modring

type t = {
  p : Bigint.t;
  p_minus_1 : Bigint.t; (* sampling bound of [random_nonzero] *)
  ring : M.ctx;
  half : Bigint.t; (* floor(P/2), the signed-decoding threshold *)
  mults : Ppgr_exec.Meter.t; (* per-domain lanes, merged on read *)
}

type elt = M.elt

let create p =
  if Bigint.sign p <= 0 || Bigint.is_even p || Bigint.compare p Bigint.two <= 0 then
    invalid_arg "Zfield.create: modulus must be an odd prime";
  {
    p;
    p_minus_1 = Bigint.pred p;
    ring = M.ctx ~modulus:p;
    half = Bigint.shift_right p 1;
    mults = Ppgr_exec.Meter.create ();
  }

(* A fixed 192-bit prime (2^192 - 237): the default field, large enough
   for every masked gain in the evaluation settings. *)
let default () = create (Bigint.sub (Bigint.nth_bit_weight 192) (Bigint.of_int 237))

let modulus f = f.p
let mult_count f = Ppgr_exec.Meter.read f.mults
let reset_mult_count f = Ppgr_exec.Meter.reset f.mults

(** {1 Conversions} *)

let of_bigint f v = M.enter f.ring v
let to_bigint f e = M.leave f.ring e

(* Signed decoding: representative in (-P/2, P/2]. *)
let to_signed f e =
  let v = to_bigint f e in
  if Bigint.compare v f.half > 0 then Bigint.sub v f.p else v

let of_int f v = M.of_int f.ring v
let zero f = M.zero f.ring
let one f = M.one f.ring

(** {1 Scalar operations} *)

let add f a b = M.add f.ring a b
let sub f a b = M.sub f.ring a b
let neg f a = M.neg f.ring a

let mul f a b =
  Ppgr_exec.Meter.incr f.mults;
  M.mul f.ring a b

let inv f a = M.inv f.ring a

(* Montgomery's batch-inversion trick: prefix products, one inversion,
   then unwind — one [inv] plus 3(k-1) ring products, which count as
   part of the inversion (no field multiplications). *)
let inv_all f (xs : elt array) =
  let k = Array.length xs in
  if k = 0 then [||]
  else begin
    let prefix = Array.copy xs in
    for i = 1 to k - 1 do
      prefix.(i) <- M.mul f.ring prefix.(i - 1) xs.(i)
    done;
    let acc = ref (inv f prefix.(k - 1)) in
    let out = Array.make k !acc in
    for i = k - 1 downto 1 do
      out.(i) <- M.mul f.ring !acc prefix.(i - 1);
      acc := M.mul f.ring !acc xs.(i)
    done;
    out.(0) <- !acc;
    out
  end

let div f a b = mul f a (inv f b)
let pow f a e = M.pow f.ring a e
let equal f a b = M.equal f.ring a b
let is_zero f a = M.is_zero f.ring a

(** {1 In-place operations} *)

let alloc f = M.alloc f.ring

let mul_into f dst a b =
  Ppgr_exec.Meter.incr f.mults;
  M.mul_into f.ring dst a b

let add_into f dst a b = M.add_into f.ring dst a b
let sub_into f dst a b = M.sub_into f.ring dst a b
let neg_into f dst a = M.neg_into f.ring dst a

(** {1 Randomness} *)

(* Rejection sampling on canonical integers, then one conversion: the
   byte stream and accept/reject decisions are those of
   [Rng.bigint_below]. *)
let random rng f = of_bigint f (Ppgr_rng.Rng.bigint_below rng f.p)

let random_nonzero rng f =
  of_bigint f (Bigint.succ (Ppgr_rng.Rng.bigint_below rng f.p_minus_1))

(** {1 Vectors} *)

let dot f a b =
  if Array.length a <> Array.length b then invalid_arg "Zfield.dot: dimension mismatch";
  let acc = ref (zero f) in
  for i = 0 to Array.length a - 1 do
    acc := add f !acc (mul f a.(i) b.(i))
  done;
  !acc

let random_vec rng f n = Array.init n (fun _ -> random rng f)

(** {1 Matrices} (dense, row-major [m.(row).(col)]) *)

type mat = elt array array

let mat_random rng f ~rows ~cols : mat =
  Array.init rows (fun _ -> random_vec rng f cols)

let mat_vec f (m : mat) v =
  Array.map (fun row -> dot f row v) m

let mat_mul f (a : mat) (b : mat) : mat =
  let rows = Array.length a and inner = Array.length b in
  if inner = 0 then invalid_arg "Zfield.mat_mul: empty";
  let cols = Array.length b.(0) in
  Array.init rows (fun i ->
      Array.init cols (fun j ->
          let acc = ref (zero f) in
          for k = 0 to inner - 1 do
            acc := add f !acc (mul f a.(i).(k) b.(k).(j))
          done;
          !acc))

let col_sums f (m : mat) =
  if Array.length m = 0 then [||]
  else begin
    let cols = Array.length m.(0) in
    Array.init cols (fun j ->
        let acc = ref (zero f) in
        for i = 0 to Array.length m - 1 do
          acc := add f !acc m.(i).(j)
        done;
        !acc)
  end
