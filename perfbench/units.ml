(* Unit costs of the single operations the protocol steps are made of,
   measured on the workload's own group: the Montgomery limb multiply,
   group multiply / exponentiation, the ElGamal operations of the
   encrypt, ring and count steps, and the merge field's multiply and
   add.  The traced run multiplies step meter counts by these. *)

open Ppgr_bigint
module Rng = Ppgr_rng.Rng
module Zfield = Ppgr_dotprod.Zfield

(* Nanoseconds per call of [f]: the median over [batches] batches, each
   sized to take at least [batch_s] seconds. *)
let ns_per_op ?(batches = 9) ?(batch_s = 0.03) (f : unit -> unit) =
  f ();
  let reps = ref 1 in
  let rec calibrate () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to !reps do f () done;
    if Unix.gettimeofday () -. t0 < batch_s then begin
      reps := !reps * 2;
      calibrate ()
    end
  in
  calibrate ();
  let per_op =
    Array.init batches (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to !reps do f () done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int !reps)
  in
  Stats.median per_op

type ops = unit -> (string * float) list

let of_group (module G : Ppgr_group.Group_intf.GROUP) ~field_modulus ~merge_l : ops =
 fun () ->
  let module E = Ppgr_elgamal.Elgamal.Make (G) in
  let rng = Rng.create ~seed:"perfbench-units" in
  let ring = Bigint.Modring.ctx ~modulus:field_modulus in
  let ra = Bigint.Modring.enter ring (Rng.bigint_below rng field_modulus) in
  let rb = Bigint.Modring.enter ring (Rng.bigint_below rng field_modulus) in
  let rd = Bigint.Modring.alloc ring in
  let x = G.pow_gen (G.random_scalar rng) and y = G.pow_gen (G.random_scalar rng) in
  let e = G.random_scalar rng in
  let tbl = G.powtable y in
  let sk, pk = E.keygen rng in
  let kt = E.keytable pk in
  let c = E.encrypt_exp_int_with rng kt 1 in
  let f = Ppgr_grouprank.Shard.merge_field ~l:merge_l in
  let fa = Zfield.random rng f and fb = Zfield.random rng f in
  let keep v = ignore (Sys.opaque_identity v) in
  let rows =
    [
      ("bigint.modring_mul_ns", fun () -> Bigint.Modring.mul_into ring rd ra rb);
      ("group.mul_ns", fun () -> keep (G.mul x y));
      ("group.pow_ns", fun () -> keep (G.pow x e));
      ("group.pow_table_ns", fun () -> keep (G.pow_table tbl e));
      ("elgamal.encrypt_ns", fun () -> keep (E.encrypt_exp_int_with rng kt 1));
      ("elgamal.pdb_ns", fun () -> keep (E.partial_decrypt_blind rng sk c));
      ("elgamal.decrypt_is_zero_ns", fun () -> keep (E.decrypt_exp_is_zero sk c));
      ("zfield.mul_ns", fun () -> keep (Zfield.mul f fa fb));
      ("zfield.add_ns", fun () -> keep (Zfield.add f fa fb));
    ]
  in
  List.map (fun (name, op) -> (name, ns_per_op op)) rows
