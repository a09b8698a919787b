(* Group-law and serialization tests across every group instantiation,
   plus wNAF recoding properties and op-counter behaviour. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_group

let rng = Rng.create ~seed:"test-group"

(* A battery of algebraic checks run against any GROUP instance. *)
let group_suite name (g : Group_intf.group) =
  let module G = (val g) in
  let random_elt () = G.pow_gen (G.random_scalar rng) in
  [
    Alcotest.test_case (name ^ ": identity laws") `Quick (fun () ->
        let x = random_elt () in
        Alcotest.(check bool) "e*x" true (G.equal x (G.mul G.identity x));
        Alcotest.(check bool) "x*e" true (G.equal x (G.mul x G.identity));
        Alcotest.(check bool) "is_identity e" true (G.is_identity G.identity));
    Alcotest.test_case (name ^ ": associativity and commutativity") `Quick
      (fun () ->
        let a = random_elt () and b = random_elt () and c = random_elt () in
        Alcotest.(check bool) "assoc" true
          (G.equal (G.mul (G.mul a b) c) (G.mul a (G.mul b c)));
        Alcotest.(check bool) "comm" true (G.equal (G.mul a b) (G.mul b a)));
    Alcotest.test_case (name ^ ": inverse") `Quick (fun () ->
        let a = random_elt () in
        Alcotest.(check bool) "a/a" true (G.is_identity (G.mul a (G.inv a)));
        Alcotest.(check bool) "inv inv" true (G.equal a (G.inv (G.inv a))));
    Alcotest.test_case (name ^ ": exponent homomorphism") `Quick (fun () ->
        let x = G.random_scalar rng and y = G.random_scalar rng in
        Alcotest.(check bool) "g^x g^y = g^(x+y)" true
          (G.equal (G.mul (G.pow_gen x) (G.pow_gen y)) (G.pow_gen (Bigint.add x y)));
        Alcotest.(check bool) "(g^x)^y = (g^y)^x" true
          (G.equal (G.pow (G.pow_gen x) y) (G.pow (G.pow_gen y) x)));
    Alcotest.test_case (name ^ ": order annihilates") `Quick (fun () ->
        Alcotest.(check bool) "g^q = e" true (G.is_identity (G.pow_gen G.order));
        let a = random_elt () in
        Alcotest.(check bool) "a^q = e" true (G.is_identity (G.pow a G.order)));
    Alcotest.test_case (name ^ ": negative exponents") `Quick (fun () ->
        let x = G.random_scalar rng in
        Alcotest.(check bool) "g^-x = (g^x)^-1" true
          (G.equal (G.pow_gen (Bigint.neg x)) (G.inv (G.pow_gen x)));
        Alcotest.(check bool) "g^0 = e" true (G.is_identity (G.pow_gen Bigint.zero)));
    Alcotest.test_case (name ^ ": serialization round trip") `Quick (fun () ->
        let a = random_elt () in
        let b = G.to_bytes a in
        Alcotest.(check int) "length" G.element_bytes (Bytes.length b);
        (match G.of_bytes b with
        | Some a' -> Alcotest.(check bool) "round trip" true (G.equal a a')
        | None -> Alcotest.fail "decode failed");
        (match G.of_bytes (G.to_bytes G.identity) with
        | Some e -> Alcotest.(check bool) "identity round trip" true (G.is_identity e)
        | None -> Alcotest.fail "identity decode failed"));
    Alcotest.test_case (name ^ ": of_bytes rejects junk") `Quick (fun () ->
        Alcotest.(check bool) "wrong length" true (G.of_bytes (Bytes.create 3) = None));
    Alcotest.test_case (name ^ ": random scalars in range") `Quick (fun () ->
        for _ = 1 to 50 do
          let x = G.random_scalar rng in
          Alcotest.(check bool) "1 <= x < q" true
            (Bigint.compare x Bigint.zero > 0 && Bigint.compare x G.order < 0)
        done);
    Alcotest.test_case (name ^ ": op counter moves") `Quick (fun () ->
        G.reset_op_count ();
        let a = random_elt () in
        let before = G.op_count () in
        ignore (G.mul a a);
        Alcotest.(check bool) "counted" true (G.op_count () > before));
    Alcotest.test_case (name ^ ": batch serialization = per-element") `Quick
      (fun () ->
        (* Identity elements sprinkled in exercise the EC family's
           infinity-skipping inside the shared-inversion batch. *)
        let els =
          Array.init 17 (fun i ->
              if i mod 5 = 2 then G.identity else random_elt ())
        in
        let batch = G.to_bytes_batch els in
        Array.iteri
          (fun i e -> Alcotest.(check bytes) "element" (G.to_bytes e) batch.(i))
          els;
        Alcotest.(check int) "empty batch" 0
          (Array.length (G.to_bytes_batch [||]));
        let ids = G.to_bytes_batch (Array.make 3 G.identity) in
        Array.iter
          (fun b ->
            Alcotest.(check bytes) "all-identity batch" (G.to_bytes G.identity) b)
          ids);
  ]

let wnaf_tests =
  let prop name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)
  in
  [
    prop "wnaf4 reconstructs the exponent" QCheck2.Gen.(int_range 0 1_000_000_000)
      (fun e ->
        let digits = Group_intf.wnaf4 (Bigint.of_int e) in
        let v = List.fold_left (fun acc d -> (2 * acc) + d) 0 digits in
        v = e);
    prop "wnaf4 digits are odd or zero, |d| <= 7"
      QCheck2.Gen.(int_range 0 1_000_000_000)
      (fun e ->
        List.for_all
          (fun d -> d = 0 || (abs d <= 7 && abs d land 1 = 1))
          (Group_intf.wnaf4 (Bigint.of_int e)));
  ]

(* The DL family's unsigned sliding-window recoder, on exponents of up
   to 1100 bits: the digits (least significant first) must sum back to
   the exponent, every non-zero digit is odd and at most 31, and the
   count is the bit length. *)
let sliding_tests =
  let open QCheck2.Gen in
  let exponent =
    oneof
      [
        map Bigint.of_int (int_range 0 max_int);
        map (fun s -> Bigint.of_bytes_be (Bytes.of_string s))
          (string_size ~gen:char (int_range 0 138));
        (* Long runs of ones and zeros: 2^a - 1 shifted left by b. *)
        map2
          (fun a b -> Bigint.shift_left (Bigint.pred (Bigint.nth_bit_weight a)) b)
          (int_range 0 600) (int_range 0 500);
      ]
  in
  let recode e =
    let dst = Array.make (Bigint.numbits e) 0 in
    let n = Group_intf.sliding_into e dst in
    (n, dst)
  in
  let prop name f =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name ~print:Bigint.to_string exponent f)
  in
  [
    prop "sliding window reconstructs the exponent" (fun e ->
        let n, dst = recode e in
        let v = ref Bigint.zero in
        for i = n - 1 downto 0 do
          v := Bigint.add_int (Bigint.shift_left !v 1) dst.(i)
        done;
        n = Bigint.numbits e && Bigint.equal !v e);
    prop "sliding window digits are 0 or odd and <= 31" (fun e ->
        let n, dst = recode e in
        let ok = ref true in
        for i = 0 to n - 1 do
          let d = dst.(i) in
          if not (d = 0 || (d land 1 = 1 && d <= 31)) then ok := false
        done;
        !ok);
  ]

(* EC-specific structural tests on the toy curve where exhaustive checks
   are affordable. *)
let ec_structural_tests =
  let prm = Ec_params.tiny () in
  let cv = Ec_curve.make_curve prm in
  let g = Ec_curve.base_point cv in
  let q = Bigint.to_int_exn prm.Ec_curve.n in
  [
    Alcotest.test_case "tiny curve has prime order, cofactor 1" `Quick (fun () ->
        Alcotest.(check int) "cofactor" 1 prm.Ec_curve.h);
    Alcotest.test_case "scalar ladder agrees with repeated addition" `Quick
      (fun () ->
        let acc = ref (Ec_curve.infinity cv) in
        for k = 0 to 40 do
          let direct = Ec_curve.scalar_mul cv g (Bigint.of_int k) in
          Alcotest.(check bool) (Printf.sprintf "k=%d" k) true
            (Ec_curve.equal cv direct !acc);
          acc := Ec_curve.add cv !acc g
        done);
    Alcotest.test_case "point negation" `Quick (fun () ->
        let p = Ec_curve.scalar_mul cv g (Bigint.of_int 7) in
        Alcotest.(check bool) "P + (-P) = O" true
          (Ec_curve.is_infinity cv (Ec_curve.add cv p (Ec_curve.neg cv p))));
    Alcotest.test_case "doubling a 2-torsion-free point" `Quick (fun () ->
        let p = Ec_curve.scalar_mul cv g (Bigint.of_int 5) in
        Alcotest.(check bool) "2P = P+P" true
          (Ec_curve.equal cv (Ec_curve.double cv p) (Ec_curve.add cv p p)));
    Alcotest.test_case "scalar wraps modulo order" `Quick (fun () ->
        let k = 3 in
        Alcotest.(check bool) "(q+k)G = kG" true
          (Ec_curve.equal cv
             (Ec_curve.scalar_mul cv g (Bigint.of_int (q + k)))
             (Ec_curve.scalar_mul cv g (Bigint.of_int k))));
    Alcotest.test_case "all small multiples lie on the curve" `Quick (fun () ->
        for k = 1 to 60 do
          Alcotest.(check bool) (Printf.sprintf "on curve %d" k) true
            (Ec_curve.on_curve cv (Ec_curve.scalar_mul cv g (Bigint.of_int k)))
        done);
    Alcotest.test_case "off-curve point rejected by of_bytes" `Quick (fun () ->
        let module G = (val Ec_group.of_params prm) in
        let b = G.to_bytes G.generator in
        (* Corrupt the y coordinate. *)
        Bytes.set b (Bytes.length b - 1)
          (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
        Alcotest.(check bool) "rejected" true (G.of_bytes b = None));
    Alcotest.test_case "batch normalization = per-point, incl. infinity" `Quick
      (fun () ->
        (* Jacobian points with non-trivial z (built by additions), the
           point at infinity at the batch edges and in the middle. *)
        let pts =
          Array.init 15 (fun k ->
              if k = 0 || k = 7 || k = 14 then Ec_curve.infinity cv
              else Ec_curve.scalar_mul cv g (Bigint.of_int k))
        in
        let batch = Ec_curve.to_affine_batch cv pts in
        Array.iteri
          (fun k pt ->
            match (Ec_curve.to_affine cv pt, batch.(k)) with
            | None, None -> ()
            | Some (x, y), Some (x', y') ->
                Alcotest.(check bool) (Printf.sprintf "x %d" k) true
                  (Bigint.equal x x');
                Alcotest.(check bool) (Printf.sprintf "y %d" k) true
                  (Bigint.equal y y')
            | _ -> Alcotest.failf "infinity mismatch at %d" k)
          pts;
        Alcotest.(check int) "all-infinity batch" 0
          (List.length
             (List.filter Option.is_some
                (Array.to_list
                   (Ec_curve.to_affine_batch cv
                      (Array.make 4 (Ec_curve.infinity cv)))))));
    Alcotest.test_case "batch normalization costs one field inversion" `Quick
      (fun () ->
        let pts =
          Array.init 9 (fun k ->
              if k = 4 then Ec_curve.infinity cv
              else Ec_curve.scalar_mul cv g (Bigint.of_int (k + 1)))
        in
        let before = Ppgr_exec.Meter.read cv.Ec_curve.invs in
        ignore (Ec_curve.to_affine_batch cv pts);
        Alcotest.(check int) "one inversion for the whole batch" (before + 1)
          (Ppgr_exec.Meter.read cv.Ec_curve.invs);
        let before = Ppgr_exec.Meter.read cv.Ec_curve.invs in
        Array.iter (fun p -> ignore (Ec_curve.to_affine cv p)) pts;
        Alcotest.(check int) "eight inversions per-point" (before + 8)
          (Ppgr_exec.Meter.read cv.Ec_curve.invs));
  ]

let dl_structural_tests =
  [
    Alcotest.test_case "DL elements are quadratic residues" `Quick (fun () ->
        let module G = (val Dl_group.dl_test_128 ()) in
        for _ = 1 to 20 do
          let e = G.pow_gen (G.random_scalar rng) in
          let v = Bigint.of_bytes_be (G.to_bytes e) in
          Alcotest.(check int) "jacobi 1" 1 (Bigint.jacobi v Modp_params.test_128)
        done);
    Alcotest.test_case "DL of_bytes rejects non-residues" `Quick (fun () ->
        let module G = (val Dl_group.dl_test_128 ()) in
        (* Find a non-residue and check rejection. *)
        let p = Modp_params.test_128 in
        let rec find v =
          if Bigint.jacobi v p = -1 then v else find (Bigint.succ v)
        in
        let nr = find (Bigint.of_int 2) in
        let b = Bigint.to_bytes_be_padded G.element_bytes nr in
        Alcotest.(check bool) "rejected" true (G.of_bytes b = None));
    Alcotest.test_case "DL-512/DL-1024 of_bytes: same accept set as the oracle" `Quick
      (fun () ->
        (* The decoder's accept set: exactly the encodings of [1, p) with
           Jacobi symbol 1 (the recursive oracle), at exactly
           [element_bytes]. *)
        List.iter
          (fun (g, p) ->
            let module G = (val (g : Group_intf.group)) in
            Alcotest.(check int) "p = 3 mod 4" 3
              (Bigint.to_int_exn (Bigint.logand p (Bigint.of_int 3)));
            let enc v = Bigint.to_bytes_be_padded G.element_bytes v in
            let oracle b =
              Bytes.length b = G.element_bytes
              &&
              let v = Bigint.of_bytes_be b in
              Bigint.sign v > 0 && Bigint.compare v p < 0 && Jacobi_ref.jacobi v p = 1
            in
            let check name b =
              Alcotest.(check bool) name (oracle b) (G.of_bytes b <> None)
            in
            for _ = 1 to 20 do
              let x = G.pow_gen (G.random_scalar rng) in
              let b = G.to_bytes x in
              Alcotest.(check bool) "residue round-trips" true
                (match G.of_bytes b with Some y -> G.equal x y | None -> false);
              let v = Bigint.of_bytes_be b in
              let neg = enc (Bigint.sub p v) in
              Alcotest.(check bool) "p - x rejected" true (G.of_bytes neg = None);
              check "p - x" neg;
              check "random bytes" (Rng.bytes rng G.element_bytes)
            done;
            List.iter
              (fun (name, b) ->
                Alcotest.(check bool) name true (G.of_bytes b = None);
                check name b)
              [
                ("zero", enc Bigint.zero);
                ("p", enc p);
                ("p + 1", enc (Bigint.succ p));
                ("all ones", Bytes.make G.element_bytes '\255');
                ("short", Bytes.make (G.element_bytes - 1) '\001');
                ("long", Bytes.cat (Bytes.make 1 '\000') (enc Bigint.one));
                ("empty", Bytes.empty);
              ];
            Alcotest.(check bool) "1 accepted" true (G.of_bytes (enc Bigint.one) <> None))
          [
            (Dl_group.dl_512 (), Modp_params.p_512);
            (Dl_group.dl_1024 (), Modp_params.p_1024);
          ]);
    Alcotest.test_case "order is (p-1)/2" `Quick (fun () ->
        let module G = (val Dl_group.dl_test_64 ()) in
        Alcotest.(check bool) "order" true
          (Bigint.equal G.order
             (Bigint.shift_right (Bigint.pred Modp_params.test_64) 1)));
  ]

let () =
  Alcotest.run "group"
    [
      ("dl-test-64", group_suite "DL-test-64" (Dl_group.dl_test_64 ()));
      ("dl-test-128", group_suite "DL-test-128" (Dl_group.dl_test_128 ()));
      ("dl-1024", group_suite "DL-1024" (Dl_group.dl_1024 ()));
      ("ecc-tiny", group_suite "ECC-tiny" (Ec_group.ecc_tiny ()));
      ("ecc-160", group_suite "ECC-160" (Ec_group.ecc_160 ()));
      ("ecc-256", group_suite "ECC-256" (Ec_group.ecc_256 ()));
      ("wnaf", wnaf_tests);
      ("sliding", sliding_tests);
      ("ec-structure", ec_structural_tests);
      ("dl-structure", dl_structural_tests);
    ]
