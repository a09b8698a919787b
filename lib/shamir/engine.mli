(** A synchronous-lockstep simulator of [n]-party Shamir-based MPC.

    A {!shared} value is the vector of all parties' shares (index [i] =
    party [i+1]'s share); the engine executes each sub-protocol for
    every party and keeps the cost ledger the evaluation reads.  Degree
    reduction after multiplication follows Gennaro–Rabin–Rabin, so the
    engine requires [n >= 2t + 1].

    Shares are Montgomery-resident field elements ({!Zfield.elt}) from
    sharing to opening.  Integers cross into the engine only through
    {!of_public} and {!input} and out of it only through {!open_} and
    {!open_batch}; public constants for {!add_public} and {!scale} are
    field elements already. *)

open Ppgr_bigint
open Ppgr_dotprod

type t

type shared = Zfield.elt array

val create :
  ?threshold:[ `Max_colluders | `Fixed of int ] ->
  Ppgr_rng.Rng.t ->
  Zfield.t ->
  n:int ->
  t
(** [`Max_colluders] (default) picks the largest [t] with [n >= 2t+1].
    @raise Invalid_argument if the threshold is unusable. *)

val field : t -> Zfield.t
val parties : t -> int
val threshold : t -> int

(** {1 Cost ledger} *)

type costs = {
  c_mults : int; (* multiplication-protocol invocations *)
  c_rounds : int; (* communication rounds (batches count once) *)
  c_elements : int; (* field elements on the wire, all parties *)
  c_opens : int;
  c_randoms : int;
  c_field_mults : int; (* local field mults, whole simulation *)
}

val costs : t -> costs
val reset_costs : t -> unit

val fork : t -> label:string -> t
(** A child engine for one independent task of a parallel batch: same
    field, randomness split off the parent's stream under [label],
    ledger zeroed.  The field-multiplication meter is shared (it is
    per-domain-mergeable), so only the protocol counters fork. *)

val absorb : ?rounds:int -> t -> t -> unit
(** [absorb e child] folds a {!fork}ed child's counters back into [e].
    [?rounds] overrides the round contribution — pass the batch-wide
    maximum for children that ran in lockstep. *)

(** {1 Linear (communication-free) operations} *)

val of_public : t -> Bigint.t -> shared
(** Shares of a public integer (reduced into the field). *)

val add : t -> shared -> shared -> shared
val sub : t -> shared -> shared -> shared
val add_public : t -> shared -> Zfield.elt -> shared

val scale : t -> Zfield.elt -> shared -> shared
(** One field multiplication per party. *)

val neg : t -> shared -> shared

(** {1 Interactive operations} *)

val input : t -> Bigint.t -> shared
(** A party shares a private input (1 round). *)

val input_batch : t -> Bigint.t list -> shared list
(** Many parties share private inputs in one simultaneous round —
    the sharded-ranking merge fan-in. *)

val open_ : t -> shared -> Bigint.t
(** Reveal a shared value to everyone (1 round). *)

val open_batch : t -> shared list -> Bigint.t list
(** Many openings in a single round. *)

val mul : t -> shared -> shared -> shared
(** One multiplication with GRR degree reduction (1 round). *)

val mul_batch : t -> (shared * shared) list -> shared list
(** Parallel multiplications sharing one round. *)

val random : t -> shared
(** Jointly generated uniform shared value (1 round). *)

val random_batch : t -> int -> shared array

val random_bit : t -> shared
(** One jointly random shared bit (Damgård et al. square-root trick). *)

val random_bit_batch : t -> int -> shared array
(** [k] random bits with batched rounds (3 rounds plus rare retries). *)

val random_bits : t -> int -> shared array * shared
(** [nbits] bits plus their weighted value [Σ 2^i b_i]. *)
