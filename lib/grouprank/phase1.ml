(** Phase 1 — secure gain computation (Fig. 1 steps 1–4).

    Every participant runs the two-party dot-product protocol with the
    initiator: the participant plays Bob with
    [w'_j = [vg; ve*ve; ve; 1]], the initiator plays Alice with
    [v'_j = [rho wg; -rho we; 2 rho (we*ve0); rho_j]].  The participant
    ends up with the masked partial gain [beta_j = rho p_j + rho_j]
    (and nothing else); the initiator learns nothing.

    [rho] is a random [h]-bit positive integer shared across
    participants; [rho_j] is fresh per participant, uniform in
    [[0, rho)].  Masked gains preserve the strict order of partial gains
    because [p_i > p_j] implies
    [beta_i >= rho p_i >= rho (p_j + 1) > rho p_j + rho_j = beta_j].

    Before phase 2 the signed [beta] is mapped to an [l]-bit unsigned
    integer by adding [2^(l-1)] (§III-A), with
    [l = h + partial_gain_bits]. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_dotprod
module Trace = Ppgr_obs.Trace

type config = {
  spec : Attrs.spec;
  h : int; (* bits of the multiplicative mask rho *)
  s_dim : int; (* hiding dimension s of the dot-product protocol *)
  field : Zfield.t;
}

let config ?(s_dim = 6) ?(field = Zfield.default ()) ~spec ~h () =
  if h <= 0 then invalid_arg "Phase1.config: h must be positive";
  { spec; h; s_dim; field }

(** Unsigned bit-length of the masked gains ([l] in the paper). *)
let beta_bits cfg = cfg.h + Attrs.partial_gain_bits cfg.spec

(** Initiator-side per-run secrets. *)
type initiator_secrets = { rho : Bigint.t; rho_js : Bigint.t array }

let draw_masks rng cfg ~n =
  (* rho is h bits with the top bit set so that every rho_j < rho has
     fewer than h bits and ordering is preserved. *)
  let top = Bigint.nth_bit_weight (cfg.h - 1) in
  let rho = Bigint.add top (Rng.bigint_below rng top) in
  let rho_js = Array.init n (fun _ -> Rng.bigint_below rng rho) in
  { rho; rho_js }

(** Cost/traffic record for one participant-initiator interaction. *)
type interaction = {
  beta_unsigned : Bigint.t; (* the l-bit unsigned masked gain *)
  beta_signed : Bigint.t;
  round1_elements : int; (* field elements participant -> initiator *)
  round2_elements : int; (* field elements initiator -> participant *)
}

(** Run the phase for participant [j] holding [info]. *)
let run_one rng cfg ~criterion ~secrets ~j ~info =
  Trace.with_span ~attrs:[ ("party", Trace.Int j) ] "phase1.gain" @@ fun () ->
  let f = cfg.field in
  (* [participant_vector] ends with the literal 1 of the paper's w'_j;
     the dot-product protocol appends that 1 itself, so strip it here. *)
  let w_full = Attrs.participant_vector cfg.spec info in
  let w =
    Array.map (Zfield.of_bigint f) (Array.sub w_full 0 (Array.length w_full - 1))
  in
  let bob_st, m1 = Dot_product.bob_round1 rng f ~w ~s:cfg.s_dim in
  (* The initiator's vector, mapped into the field (signed entries wrap). *)
  let v_signed =
    Attrs.initiator_vector cfg.spec criterion ~rho:secrets.rho
      ~rho_j:secrets.rho_js.(j)
  in
  let dim = Array.length v_signed - 1 in
  let v = Array.map (Zfield.of_bigint f) (Array.sub v_signed 0 dim) in
  let alpha = Zfield.of_bigint f v_signed.(dim) in
  let m2 = Dot_product.alice_round2 rng f ~v ~alpha m1 in
  let beta_field = Dot_product.bob_finish f bob_st m2 in
  let beta_signed = Zfield.to_signed f beta_field in
  let l = beta_bits cfg in
  let beta_unsigned = Bigint.add beta_signed (Bigint.nth_bit_weight (l - 1)) in
  if Bigint.sign beta_unsigned < 0 || Bigint.numbits beta_unsigned > l then
    invalid_arg "Phase1.run_one: beta out of the l-bit range (bad parameters)";
  {
    beta_unsigned;
    beta_signed;
    round1_elements = Dot_product.round1_elements ~s:cfg.s_dim ~dim;
    round2_elements = Dot_product.round2_elements;
  }

(** Run phase 1 for all participants.  Returns per-participant results
    in participant order. *)
let run rng cfg ~criterion ~infos =
  Attrs.check_criterion cfg.spec criterion;
  let n = Array.length infos in
  Trace.with_span ~attrs:[ ("n", Trace.Int n); ("l", Trace.Int (beta_bits cfg)) ]
    "phase1"
  @@ fun () ->
  let secrets = draw_masks rng cfg ~n in
  (secrets, Array.mapi (fun j info -> run_one rng cfg ~criterion ~secrets ~j ~info) infos)

(** Plaintext reference of the masked gain, for tests. *)
let reference_beta cfg ~criterion ~secrets ~j ~info =
  let p = Attrs.partial_gain cfg.spec criterion info in
  Bigint.add
    (Bigint.mul secrets.rho (Bigint.of_int p))
    secrets.rho_js.(j)
