(** A synchronous-lockstep simulator of [n]-party Shamir-based MPC.

    A {!shared} value is the vector of all parties' shares (index [i] =
    party [i+1]'s share); the engine executes each sub-protocol for every
    party and keeps the cost ledger the evaluation reads:

    - [mults]: invocations of the multiplication protocol (the unit of
      the paper's SS cost analysis);
    - [rounds]: communication rounds, counting parallel multiplications
      batched by {!mul_batch} as one round;
    - [field_elements_sent]: total field elements put on the wire;
    - the underlying field's own multiplication counter gives per-run
      local computation (divide by [n] for a per-party figure).

    Degree reduction after multiplication follows Gennaro–Rabin–Rabin:
    each party reshares its local product with a fresh degree-[t]
    polynomial and the new share is the Lagrange-weighted sum of the
    subshares, so the engine requires [n >= 2t + 1].

    Shares are Montgomery-resident {!Zfield.elt}s from sharing to
    opening: integers enter only through {!of_public} and {!input} and
    leave only through {!open_}; every step in between is limb-engine
    arithmetic. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_dotprod

type t = {
  f : Zfield.t;
  n : int;
  th : int; (* polynomial degree t; tolerates t colluders *)
  rng : Rng.t;
  lagrange_all : Zfield.elt array; (* weights at 0 for points 1..n *)
  one : Zfield.elt;
  two : Zfield.elt;
  inv_two : Zfield.elt;
  sqrt_exp : Bigint.t option; (* (p+1)/4 when p = 3 mod 4 *)
  mutable mults : int;
  mutable rounds : int;
  mutable field_elements_sent : int;
  mutable opens : int;
  mutable randoms : int;
}

type shared = Zfield.elt array (* length n *)

let create ?(threshold = `Max_colluders) rng f ~n =
  let th =
    match threshold with
    | `Max_colluders -> (n - 1) / 2 (* largest t with n >= 2t + 1 *)
    | `Fixed t -> t
  in
  if n < (2 * th) + 1 then invalid_arg "Engine.create: need n >= 2t + 1";
  let p = Zfield.modulus f in
  let two = Zfield.of_int f 2 in
  {
    f;
    n;
    th;
    rng;
    lagrange_all = Shamir.lagrange_weights_at_zero f (Array.init n (fun i -> i + 1));
    one = Zfield.one f;
    two;
    inv_two = Zfield.inv f two;
    sqrt_exp =
      (if Bigint.testbit p 1 then Some (Bigint.shift_right (Bigint.succ p) 2) else None);
    mults = 0;
    rounds = 0;
    field_elements_sent = 0;
    opens = 0;
    randoms = 0;
  }

let field e = e.f
let parties e = e.n
let threshold e = e.th

type costs = {
  c_mults : int;
  c_rounds : int;
  c_elements : int;
  c_opens : int;
  c_randoms : int;
  c_field_mults : int;
}

let costs e =
  {
    c_mults = e.mults;
    c_rounds = e.rounds;
    c_elements = e.field_elements_sent;
    c_opens = e.opens;
    c_randoms = e.randoms;
    c_field_mults = Zfield.mult_count e.f;
  }

let reset_costs e =
  e.mults <- 0;
  e.rounds <- 0;
  e.field_elements_sent <- 0;
  e.opens <- 0;
  e.randoms <- 0;
  Zfield.reset_mult_count e.f

(** A child engine for one independent task of a parallel batch: its
    randomness is a split of the parent's stream under [label] (so the
    transcript does not depend on how tasks interleave) and its ledger
    starts at zero over the same field; {!absorb} folds the counters
    back in.  Round counting becomes the caller's business: a batch of
    forked comparators that would run in lockstep should be absorbed as
    the {e maximum} of the children's rounds, which is what the sorting
    layer does. *)
let fork e ~label =
  {
    e with
    rng = Rng.split e.rng ~label;
    mults = 0;
    rounds = 0;
    field_elements_sent = 0;
    opens = 0;
    randoms = 0;
  }

(** Fold a {!fork}ed child's additive counters into the parent.
    [rounds] defaults to the child's own count (sequential composition);
    pass the batch-wide maximum when the children ran in lockstep. *)
let absorb ?rounds e child =
  e.mults <- e.mults + child.mults;
  e.rounds <- e.rounds + Option.value rounds ~default:child.rounds;
  e.field_elements_sent <- e.field_elements_sent + child.field_elements_sent;
  e.opens <- e.opens + child.opens;
  e.randoms <- e.randoms + child.randoms

(** {1 Linear (communication-free) operations} *)

let of_public e v : shared =
  (* Shares of a public constant: the constant polynomial. *)
  Array.make e.n (Zfield.of_bigint e.f v)

let add e (a : shared) b : shared = Array.map2 (Zfield.add e.f) a b
let sub e (a : shared) b : shared = Array.map2 (Zfield.sub e.f) a b
let add_public e (a : shared) v = Array.map (fun s -> Zfield.add e.f s v) a
let scale e k (a : shared) : shared = Array.map (Zfield.mul e.f k) a
let neg e (a : shared) : shared = Array.map (Zfield.neg e.f) a

(** {1 Interactive operations} *)

(** A party shares a private input with the others (1 round, n-1
    elements). *)
let input e v : shared =
  e.rounds <- e.rounds + 1;
  e.field_elements_sent <- e.field_elements_sent + (e.n - 1);
  Shamir.share e.rng e.f ~t:e.th ~n:e.n (Zfield.of_bigint e.f v)

(** Many parties share their private inputs simultaneously (1 round,
    n-1 elements each) — the merge-stage fan-in, where every shard
    representative feeds its masked gain to the committee at once. *)
let input_batch e vs : shared list =
  e.rounds <- e.rounds + 1;
  List.map
    (fun v ->
      e.field_elements_sent <- e.field_elements_sent + (e.n - 1);
      Shamir.share e.rng e.f ~t:e.th ~n:e.n (Zfield.of_bigint e.f v))
    vs

(* Every party's share, interpolated at 0. *)
let reveal e (a : shared) = Shamir.reconstruct e.f (Array.init e.n (fun i -> (i + 1, a.(i))))

(* Column sums of [n] share vectors, one fresh element per party; with
   [weights], party [j] gets [Σ_i w_i * rows_i.(j)] (one metered field
   multiplication per term). *)
let combine ?weights e (rows : shared array) : shared =
  let term = Zfield.alloc e.f in
  Array.init e.n (fun j ->
      let acc = Zfield.alloc e.f in
      for i = 0 to e.n - 1 do
        match weights with
        | None -> Zfield.add_into e.f acc acc rows.(i).(j)
        | Some w ->
            Zfield.mul_into e.f term w.(i) rows.(i).(j);
            Zfield.add_into e.f acc acc term
      done;
      acc)

(* Open a shared value to all parties (1 round; every party broadcasts
   its share), keeping the result in the field. *)
let open_elt e (a : shared) =
  e.rounds <- e.rounds + 1;
  e.opens <- e.opens + 1;
  e.field_elements_sent <- e.field_elements_sent + (e.n * (e.n - 1));
  reveal e a

let open_ e a = Zfield.to_bigint e.f (open_elt e a)

(* GRR degree reduction for a batch of products computed in lockstep:
   counting the batch as a single communication round models parallel
   multiplication, which the sorting network exploits. *)
let mul_batch e (pairs : (shared * shared) list) : shared list =
  match pairs with
  | [] -> []
  | _ ->
      e.rounds <- e.rounds + 1;
      List.map
        (fun (a, b) ->
          e.mults <- e.mults + 1;
          e.field_elements_sent <- e.field_elements_sent + (e.n * (e.n - 1));
          (* Party i reshares its local product a_i * b_i. *)
          let subshares =
            Array.init e.n (fun i ->
                Shamir.share e.rng e.f ~t:e.th ~n:e.n
                  (Zfield.mul e.f a.(i) b.(i)))
          in
          (* New share of party j: sum_i lambda_i * subshare_{i->j}. *)
          combine ~weights:e.lagrange_all e subshares)
        pairs

let mul e a b =
  match mul_batch e [ (a, b) ] with
  | [ r ] -> r
  | _ -> assert false

(** Jointly generated uniformly random shared value (every party
    contributes a sharing; 1 round). *)
let random e : shared =
  e.rounds <- e.rounds + 1;
  e.randoms <- e.randoms + 1;
  e.field_elements_sent <- e.field_elements_sent + (e.n * (e.n - 1));
  combine e
    (Array.init e.n (fun _ -> Shamir.share e.rng e.f ~t:e.th ~n:e.n (Zfield.random e.rng e.f)))

(* Open many shared values in a single round, in the field. *)
let open_batch_elt e (vs : shared list) =
  match vs with
  | [] -> []
  | _ ->
      e.rounds <- e.rounds + 1;
      e.opens <- e.opens + List.length vs;
      e.field_elements_sent <-
        e.field_elements_sent + (List.length vs * e.n * (e.n - 1));
      List.map (reveal e) vs

let open_batch e vs = List.map (Zfield.to_bigint e.f) (open_batch_elt e vs)

(** [k] jointly random shared values in a single round. *)
let random_batch e k : shared array =
  if k = 0 then [||]
  else begin
    e.rounds <- e.rounds + 1;
    e.randoms <- e.randoms + k;
    e.field_elements_sent <- e.field_elements_sent + (k * e.n * (e.n - 1));
    Array.init k (fun _ ->
        combine e
          (Array.init e.n (fun _ ->
               Shamir.share e.rng e.f ~t:e.th ~n:e.n (Zfield.random e.rng e.f))))
  end

(* Square root of a public non-zero square, for random-bit generation:
   the canonical root <= (p-1)/2.  For p = 3 mod 4 the root is
   v^((p+1)/4) outright (v is a square, so no residuosity check); other
   primes go through Tonelli–Shanks, whose non-residue search draws from
   the engine's stream. *)
let sqrt_public e v =
  let root =
    match e.sqrt_exp with
    | Some ex -> Zfield.pow e.f v ex
    | None -> (
        match
          Ppgr_bigint.Prime.sqrt_mod
            (fun b -> Rng.bigint_below e.rng b)
            (Zfield.to_bigint e.f v) ~p:(Zfield.modulus e.f)
        with
        | None -> assert false (* v is a square *)
        | Some r -> Zfield.of_bigint e.f r)
  in
  if Bigint.sign (Zfield.to_signed e.f root) < 0 then Zfield.neg e.f root else root

(* b = (r / root + 1) / 2, given [root_inv = 1 / root]: linear in the
   shares of [r]. *)
let bit_of_root e r root_inv = scale e e.inv_two (add_public e (scale e root_inv r) e.one)

(** Jointly generated random shared bit (Damgård et al.): sample [r],
    open [r^2], retry on 0, and output [(r / sqrt(r^2) + 1) / 2]. *)
let rec random_bit e : shared =
  let r = random e in
  let r2 = open_elt e (mul e r r) in
  if Zfield.is_zero e.f r2 then random_bit e
  else bit_of_root e r (Zfield.inv e.f (sqrt_public e r2))

(** [k] random shared bits generated with batched rounds: one round of
    joint randomness, one of multiplications, one of openings (plus rare
    retries for candidates whose square opened to 0). *)
let random_bit_batch e k : shared array =
  let out = Array.make k (of_public e Bigint.zero) in
  let rec fill needed_idx =
    (* Indexes in [out] still awaiting a bit. *)
    match needed_idx with
    | [] -> ()
    | _ ->
        let k' = List.length needed_idx in
        let rs = random_batch e k' in
        let squares = mul_batch e (Array.to_list (Array.map (fun r -> (r, r)) rs)) in
        let cands =
          List.combine needed_idx (List.combine (Array.to_list rs) (open_batch_elt e squares))
        in
        let ready, retry =
          List.partition (fun (_, (_, r2)) -> not (Zfield.is_zero e.f r2)) cands
        in
        (* Roots in candidate order (Tonelli–Shanks draws from the
           stream), then one batch inversion for all of them. *)
        let roots = Array.of_list (List.map (fun (_, (_, r2)) -> sqrt_public e r2) ready) in
        let root_invs = Zfield.inv_all e.f roots in
        List.iteri (fun j (idx, (r, _)) -> out.(idx) <- bit_of_root e r root_invs.(j)) ready;
        fill (List.map fst retry)
  in
  fill (List.init k (fun i -> i));
  out

(** [nbits] independent random shared bits, with their weighted value
    [Σ 2^i b_i] (free given the bits). *)
let random_bits e nbits : shared array * shared =
  let bits = random_bit_batch e nbits in
  let value = ref (of_public e Bigint.zero) in
  for i = nbits - 1 downto 0 do
    value := add e (scale e e.two !value) bits.(i)
  done;
  (bits, !value)
