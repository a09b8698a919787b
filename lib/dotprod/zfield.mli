(** A prime field [Z_P] with vector/matrix helpers, used by the secure
    dot-product protocol and the Shamir substrate.

    Elements are Montgomery-resident: an {!elt} is the limb engine's
    Montgomery element ({!Ppgr_bigint.Bigint.Modring.elt}), and every
    field operation is the corresponding {!Ppgr_bigint.Bigint.Modring}
    operation — no division on the add/sub path, no conversion on the
    multiply path.  Integers cross into and out of the field only at
    protocol boundaries, through {!of_bigint}, {!to_bigint} and
    {!to_signed} (signed quantities use the centered representation:
    representatives above [P/2] read as negative).

    A multiplication counter backs the SS cost model: {!mul}, {!mul_into}
    and {!div} each count one field multiplication; conversions,
    inversion and the linear operations count nothing. *)

open Ppgr_bigint

type t

type elt
(** A field element in Montgomery form.  Values returned by the
    allocating operations are never mutated afterwards; only a
    destination obtained from {!alloc} is written by the [_into]
    operations. *)

val create : Bigint.t -> t
(** @raise Invalid_argument unless the modulus is odd and > 2 (primality
    is the caller's responsibility; the test suite checks the vendored
    ones). *)

val default : unit -> t
(** The 192-bit prime field over [2^192 - 237]. *)

val modulus : t -> Bigint.t

(** {1 Cost accounting} *)

val mult_count : t -> int
val reset_mult_count : t -> unit

(** {1 Conversions} *)

val of_bigint : t -> Bigint.t -> elt
(** Euclidean reduction of any integer, negative ones included. *)

val to_bigint : t -> elt -> Bigint.t
(** The canonical representative in [[0, P)]. *)

val to_signed : t -> elt -> Bigint.t
(** Centered representative in [(-P/2, P/2]]. *)

val of_int : t -> int -> elt
val zero : t -> elt
val one : t -> elt

(** {1 Scalar operations} *)

val add : t -> elt -> elt -> elt
val sub : t -> elt -> elt -> elt
val neg : t -> elt -> elt
val mul : t -> elt -> elt -> elt

val inv : t -> elt -> elt
(** @raise Division_by_zero on 0. *)

val inv_all : t -> elt array -> elt array
(** Inverses of every element with a single {!inv} (Montgomery's
    batch trick); counts no field multiplications, like {!inv}.
    @raise Division_by_zero if any element is 0. *)

val div : t -> elt -> elt -> elt
(** [mul a (inv b)]: one field multiplication. *)

val pow : t -> elt -> Bigint.t -> elt
val equal : t -> elt -> elt -> bool
val is_zero : t -> elt -> bool

(** {1 In-place operations}

    Allocation-free forms for hot loops: each writes its result into a
    destination from {!alloc}, which may alias any operand. *)

val alloc : t -> elt
(** A fresh mutable element, initially zero. *)

val mul_into : t -> elt -> elt -> elt -> unit
val add_into : t -> elt -> elt -> elt -> unit
val sub_into : t -> elt -> elt -> elt -> unit
val neg_into : t -> elt -> elt -> unit

(** {1 Randomness} *)

val random : Ppgr_rng.Rng.t -> t -> elt
val random_nonzero : Ppgr_rng.Rng.t -> t -> elt

(** {1 Vectors} *)

val dot : t -> elt array -> elt array -> elt
(** @raise Invalid_argument on dimension mismatch. *)

val random_vec : Ppgr_rng.Rng.t -> t -> int -> elt array

(** {1 Matrices} (dense, row-major [m.(row).(col)]) *)

type mat = elt array array

val mat_random : Ppgr_rng.Rng.t -> t -> rows:int -> cols:int -> mat
val mat_vec : t -> mat -> elt array -> elt array
val mat_mul : t -> mat -> mat -> mat
val col_sums : t -> mat -> elt array
