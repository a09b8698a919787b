(* Cross-cutting qcheck property tests over the stack: group/scalar
   algebra, serialization, the gain model, phase-1 masking, and netsim
   monotonicity.  These complement the per-module suites with randomized
   end-to-end invariants. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group
open Ppgr_grouprank

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* Parallel seed sweep for the wall-time-dominating properties: each is
   a pure predicate of an opaque integer seed (shrinking a seed tells
   you nothing), so instead of qcheck's sequential driver the [count]
   seeds fan out over the domain pool.  Coverage and failure reporting
   are unchanged; the first failing seed is named so the run can be
   replayed with that seed through the predicate directly. *)
let sweep ?(count = 100) name f =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Rng.create ~seed:("sweep-" ^ name) in
      let seeds = Array.init count (fun _ -> Rng.int_below rng 1_000_001) in
      let ok = Ppgr_exec.Pool.parallel_map f seeds in
      Array.iteri
        (fun i passed ->
          if not passed then
            Alcotest.failf "property %S failed on seed %d" name seeds.(i))
        ok)

let with_rng seed = Rng.create ~seed:(Printf.sprintf "prop-%d" seed)

let group_props (name, g) =
  let module G = (val g : Group_intf.GROUP) in
  [
    prop (name ^ ": pow distributes over scalar addition") seed_gen (fun seed ->
        let rng = with_rng seed in
        let x = G.pow_gen (G.random_scalar rng) in
        let a = G.random_scalar rng and b = G.random_scalar rng in
        G.equal (G.pow x (Bigint.add a b)) (G.mul (G.pow x a) (G.pow x b)));
    prop (name ^ ": pow of a product") seed_gen (fun seed ->
        let rng = with_rng seed in
        let x = G.pow_gen (G.random_scalar rng) in
        let y = G.pow_gen (G.random_scalar rng) in
        let e = G.random_scalar rng in
        G.equal (G.pow (G.mul x y) e) (G.mul (G.pow x e) (G.pow y e)));
    prop (name ^ ": serialization is injective on random elements") seed_gen
      (fun seed ->
        let rng = with_rng seed in
        let a = G.pow_gen (G.random_scalar rng) in
        let b = G.pow_gen (G.random_scalar rng) in
        G.equal a b = (G.to_bytes a = G.to_bytes b));
  ]

let elgamal_props =
  let module G = (val Ec_group.ecc_tiny ()) in
  let module E = Ppgr_elgamal.Elgamal.Make (G) in
  [
    sweep "homomorphic sum of a random list" (fun seed ->
        let rng = with_rng seed in
        let x, y = E.keygen rng in
        let k = 1 + Rng.int_below rng 6 in
        let values = List.init k (fun _ -> Rng.int_below rng 100) in
        let total = List.fold_left ( + ) 0 values in
        let combined =
          List.fold_left
            (fun acc v -> E.add acc (E.encrypt_exp_int rng y v))
            { E.c = G.identity; c' = G.identity }
            values
        in
        G.equal (E.plaintext_power x combined) (G.pow_gen (Bigint.of_int total)));
    sweep "blinding a ring of partial decryptions preserves zeroness"
      (fun seed ->
        let rng = with_rng seed in
        let parties = List.init 3 (fun _ -> E.keygen rng) in
        let joint = E.joint_pubkey (List.map snd parties) in
        let v = Rng.int_below rng 3 in
        let c =
          List.fold_left
            (fun acc (xk, _) -> E.exponent_blind rng (E.partial_decrypt xk acc))
            (E.encrypt_exp_int rng joint v)
            parties
        in
        G.is_identity c.E.c = (v = 0));
  ]

let gain_props =
  [
    prop "adding to a greater-than attribute never lowers the gain" seed_gen
      (fun seed ->
        let rng = with_rng seed in
        let spec = Attrs.spec ~m:4 ~t:2 ~d1:6 ~d2:4 in
        let c = Attrs.random_criterion rng spec in
        let v = Attrs.random_info rng spec in
        let k = 2 + Rng.int_below rng 2 in
        QCheck2.assume (v.(k) < (1 lsl 6) - 1);
        let v' = Array.copy v in
        v'.(k) <- v.(k) + 1;
        Attrs.gain spec c v' >= Attrs.gain spec c v);
    prop "moving an equal-to attribute to the criterion never lowers the gain"
      seed_gen (fun seed ->
        let rng = with_rng seed in
        let spec = Attrs.spec ~m:4 ~t:2 ~d1:6 ~d2:4 in
        let c = Attrs.random_criterion rng spec in
        let v = Attrs.random_info rng spec in
        let k = Rng.int_below rng 2 in
        let v' = Array.copy v in
        v'.(k) <- c.Attrs.v0.(k);
        Attrs.gain spec c v' >= Attrs.gain spec c v);
    sweep "masked betas rank identically to partial gains" (fun seed ->
        let rng = with_rng seed in
        let spec = Attrs.spec ~m:3 ~t:1 ~d1:5 ~d2:3 in
        let cfg = Phase1.config ~spec ~h:7 () in
        let criterion = Attrs.random_criterion rng spec in
        let n = 2 + Rng.int_below rng 4 in
        let infos = Array.init n (fun _ -> Attrs.random_info rng spec) in
        let _, res = Phase1.run rng cfg ~criterion ~infos in
        let ok = ref true in
        Array.iteri
          (fun i ri ->
            Array.iteri
              (fun j rj ->
                let gi = Attrs.partial_gain spec criterion infos.(i) in
                let gj = Attrs.partial_gain spec criterion infos.(j) in
                if
                  gi > gj
                  && Bigint.compare ri.Phase1.beta_unsigned rj.Phase1.beta_unsigned
                     <= 0
                then ok := false)
              res)
          res;
        !ok);
  ]

let netsim_props =
  let open Ppgr_mpcnet in
  [
    prop ~count:30 "more bytes never finish earlier" seed_gen (fun seed ->
        let rng = with_rng seed in
        let topo = Topology.random_connected rng ~nodes:12 ~edges:20 () in
        let placement = Netsim.place_parties topo ~parties:6 in
        let elapsed bytes =
          (Netsim.run topo ~placement
             [
               {
                 Netsim.compute_s = 0.;
                 messages = Netsim.all_broadcast ~parties:6 ~bytes;
               };
             ])
            .Netsim.elapsed_s
        in
        let b = 100 + Rng.int_below rng 100_000 in
        elapsed (2 * b) >= elapsed b);
    prop ~count:30 "extra rounds only add time" seed_gen (fun seed ->
        let rng = with_rng seed in
        let topo = Topology.random_connected rng ~nodes:10 ~edges:15 () in
        let placement = Netsim.place_parties topo ~parties:5 in
        let round =
          { Netsim.compute_s = 0.; messages = Netsim.all_broadcast ~parties:5 ~bytes:500 }
        in
        let elapsed k =
          (Netsim.run topo ~placement (List.init k (fun _ -> round))).Netsim.elapsed_s
        in
        elapsed 3 >= elapsed 2 && elapsed 2 >= elapsed 1);
  ]

let shamir_props =
  let open Ppgr_shamir in
  let f = Ppgr_dotprod.Zfield.default () in
  [
    sweep ~count:50 "linear combinations of shares reconstruct linearly"
      (fun seed ->
        let rng = with_rng seed in
        let e = Engine.create rng f ~n:5 in
        let a = Rng.int_below rng 10_000 and b = Rng.int_below rng 10_000 in
        let k = 1 + Rng.int_below rng 50 in
        let sa = Engine.input e (Bigint.of_int a) in
        let sb = Engine.input e (Bigint.of_int b) in
        let combo =
          Engine.add e (Engine.scale e (Ppgr_dotprod.Zfield.of_int f k) sa) (Engine.neg e sb)
        in
        let opened =
          Ppgr_dotprod.Zfield.(to_signed f (of_bigint f (Engine.open_ e combo)))
        in
        Bigint.to_int_exn opened = (k * a) - b);
    sweep ~count:20 "sort output of shared values is sorted and a permutation"
      (fun seed ->
        let rng = with_rng seed in
        let e = Engine.create rng f ~n:5 in
        let prm = Compare.default_params ~l:8 () in
        let k = 2 + Rng.int_below rng 4 in
        let vals = Array.init k (fun _ -> Rng.int_below rng 256) in
        let sorted =
          Ss_sort.sort e prm (Array.map (fun v -> Engine.input e (Bigint.of_int v)) vals)
        in
        let opened = Array.map (fun s -> Bigint.to_int_exn (Engine.open_ e s)) sorted in
        let expect = Array.copy vals in
        Array.sort compare expect;
        opened = expect);
  ]

let () =
  Alcotest.run "properties"
    [
      ("group-dl", group_props ("DL", Dl_group.dl_test_64 ()));
      ("group-ec", group_props ("EC", Ec_group.ecc_tiny ()));
      ("elgamal", elgamal_props);
      ("gain", gain_props);
      ("netsim", netsim_props);
      ("shamir", shamir_props);
    ]
