(* Field arithmetic and secure dot-product protocol tests. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_dotprod

let rng = Rng.create ~seed:"test-dotprod"
let f = Zfield.default ()
let bi = Bigint.of_int
let el = Zfield.of_int f
let str x = Bigint.to_string (Zfield.to_bigint f x)

let field_tests =
  [
    Alcotest.test_case "default modulus is prime" `Slow (fun () ->
        Alcotest.(check bool) "2^192-237 prime" true
          (Prime.is_probable_prime ~rounds:6 (Rng.as_prime_rand rng)
             (Zfield.modulus f)));
    Alcotest.test_case "field axioms on random values" `Quick (fun () ->
        for _ = 1 to 50 do
          let a = Zfield.random rng f and b = Zfield.random rng f and c = Zfield.random rng f in
          Alcotest.(check bool) "assoc mul" true
            (Zfield.equal f (Zfield.mul f (Zfield.mul f a b) c) (Zfield.mul f a (Zfield.mul f b c)));
          Alcotest.(check bool) "distrib" true
            (Zfield.equal f
               (Zfield.mul f a (Zfield.add f b c))
               (Zfield.add f (Zfield.mul f a b) (Zfield.mul f a c)))
        done);
    Alcotest.test_case "inverse and division" `Quick (fun () ->
        for _ = 1 to 20 do
          let a = Zfield.random_nonzero rng f in
          Alcotest.(check bool) "a * a^-1 = 1" true
            (Zfield.equal f (Zfield.mul f a (Zfield.inv f a)) (Zfield.one f));
          let b = Zfield.random rng f in
          Alcotest.(check bool) "b/a*a = b" true
            (Zfield.equal f (Zfield.mul f (Zfield.div f b a) a) b)
        done);
    Alcotest.test_case "signed mapping round trip" `Quick (fun () ->
        List.iter
          (fun v ->
            let enc = Zfield.of_bigint f (bi v) in
            Alcotest.(check int) (string_of_int v) v
              (Bigint.to_int_exn (Zfield.to_signed f enc)))
          [ 0; 1; -1; 123456; -123456; max_int / 4; -(max_int / 4) ]);
    Alcotest.test_case "dot product" `Quick (fun () ->
        let a = Array.map el [| 1; 2; 3 |] and b = Array.map el [| 4; 5; 6 |] in
        Alcotest.(check string) "32" "32" (str (Zfield.dot f a b)));
    Alcotest.test_case "matrix-vector and matrix-matrix" `Quick (fun () ->
        let m = [| [| el 1; el 2 |]; [| el 3; el 4 |] |] in
        let v = [| el 5; el 6 |] in
        let mv = Zfield.mat_vec f m v in
        Alcotest.(check string) "row0" "17" (str mv.(0));
        Alcotest.(check string) "row1" "39" (str mv.(1));
        let mm = Zfield.mat_mul f m m in
        Alcotest.(check string) "(0,0)" "7" (str mm.(0).(0));
        Alcotest.(check string) "(1,1)" "22" (str mm.(1).(1)));
    Alcotest.test_case "col_sums" `Quick (fun () ->
        let m = [| [| el 1; el 2 |]; [| el 3; el 4 |] |] in
        let s = Zfield.col_sums f m in
        Alcotest.(check string) "c0" "4" (str s.(0));
        Alcotest.(check string) "c1" "6" (str s.(1)));
    Alcotest.test_case "mult counter" `Quick (fun () ->
        Zfield.reset_mult_count f;
        ignore (Zfield.mul f (el 2) (el 3));
        ignore (Zfield.mul f (el 2) (el 3));
        Alcotest.(check int) "2 mults" 2 (Zfield.mult_count f));
  ]

(* The Montgomery-resident field against plain integer arithmetic
   modulo P, on the 64-bit merge prime and the 192-bit default prime,
   with the range edges 0, 1 and P-1 mixed into the random operands. *)
let differential_tests =
  let fields = [ ("64-bit", Zfield.create Ppgr_group.Modp_params.test_64); ("192-bit", f) ] in
  let ops =
    [
      ("add", Zfield.add, Zfield.add_into, Bigint.add);
      ("sub", Zfield.sub, Zfield.sub_into, Bigint.sub);
      ("mul", Zfield.mul, Zfield.mul_into, Bigint.mul);
    ]
  in
  List.map
    (fun (fname, fld) ->
      Alcotest.test_case (fname ^ " ops match Bigint mod P") `Quick
        (fun () ->
          let p = Zfield.modulus fld in
          let r = Rng.create ~seed:("zfield-diff-" ^ fname) in
          let pick () =
            match Rng.int_below r 5 with
            | 0 -> Bigint.zero
            | 1 -> Bigint.one
            | 2 -> Bigint.pred p
            | _ -> Rng.bigint_below r p
          in
          let check what expect got =
            Alcotest.(check string) what (Bigint.to_string expect)
              (Bigint.to_string (Zfield.to_bigint fld got))
          in
          let dst = Zfield.alloc fld in
          for _ = 1 to 200 do
            let a = pick () and b = pick () in
            let ea = Zfield.of_bigint fld a and eb = Zfield.of_bigint fld b in
            List.iter
              (fun (name, op, op_into, ref_op) ->
                let expect = Bigint.erem (ref_op a b) p in
                check name expect (op fld ea eb);
                op_into fld dst ea eb;
                check (name ^ "_into") expect dst)
              ops;
            check "neg" (Bigint.erem (Bigint.neg a) p) (Zfield.neg fld ea);
            Zfield.neg_into fld dst ea;
            check "neg_into" (Bigint.erem (Bigint.neg a) p) dst;
            (* Conversions reduce any integer, negative ones included. *)
            let wide = Bigint.sub (Bigint.mul a b) (Bigint.mul p p) in
            check "of_bigint" (Bigint.erem wide p) (Zfield.of_bigint fld wide);
            if not (Bigint.is_zero b) then
              check "div" (Bigint.erem (Bigint.mul a (Bigint.invmod b p)) p)
                (Zfield.div fld ea eb)
          done);
      )
    fields
  @ [
      Alcotest.test_case "inv_all matches elementwise inv" `Quick (fun () ->
          let r = Rng.create ~seed:"zfield-inv-all" in
          List.iter
            (fun k ->
              let xs = Array.init k (fun _ -> Zfield.random_nonzero r f) in
              let before = Zfield.mult_count f in
              let invs = Zfield.inv_all f xs in
              Alcotest.(check int) "no field mults counted" before (Zfield.mult_count f);
              Alcotest.(check int) "length" k (Array.length invs);
              Array.iteri
                (fun i x -> Alcotest.(check string) "inverse" (str (Zfield.inv f x)) (str invs.(i)))
                xs)
            [ 0; 1; 2; 5; 17 ];
          Alcotest.check_raises "a zero anywhere" Division_by_zero (fun () ->
              ignore (Zfield.inv_all f [| el 3; Zfield.zero f; el 5 |])));
      Alcotest.test_case "random follows Rng.bigint_below" `Quick (fun () ->
          let r1 = Rng.create ~seed:"zfield-stream" and r2 = Rng.create ~seed:"zfield-stream" in
          for _ = 1 to 100 do
            Alcotest.(check string) "random"
              (Bigint.to_string (Rng.bigint_below r2 (Zfield.modulus f)))
              (str (Zfield.random r1 f));
            Alcotest.(check string) "random_nonzero"
              (Bigint.to_string
                 (Bigint.succ (Rng.bigint_below r2 (Bigint.pred (Zfield.modulus f)))))
              (str (Zfield.random_nonzero r1 f))
          done);
    ]

let protocol_tests =
  [
    Alcotest.test_case "correctness across dimensions and s" `Quick (fun () ->
        List.iter
          (fun (d, s) ->
            let w = Array.init d (fun _ -> el (Rng.int_below rng 10000)) in
            let v = Array.init d (fun _ -> el (Rng.int_below rng 10000)) in
            let alpha = Zfield.random rng f in
            let st, m1 = Dot_product.bob_round1 rng f ~w ~s in
            let m2 = Dot_product.alice_round2 rng f ~v ~alpha m1 in
            let beta = Dot_product.bob_finish f st m2 in
            Alcotest.(check string)
              (Printf.sprintf "d=%d s=%d" d s)
              (str (Dot_product.plain f ~w ~v ~alpha))
              (str beta))
          [ (1, 2); (1, 8); (5, 2); (10, 4); (30, 6); (7, 12) ]);
    Alcotest.test_case "handles zero vectors" `Quick (fun () ->
        let w = Array.make 4 (Zfield.zero f) and v = Array.make 4 (Zfield.zero f) in
        let alpha = el 777 in
        let st, m1 = Dot_product.bob_round1 rng f ~w ~s:3 in
        let m2 = Dot_product.alice_round2 rng f ~v ~alpha m1 in
        Alcotest.(check string) "beta = alpha" "777"
          (str (Dot_product.bob_finish f st m2)));
    Alcotest.test_case "signed inputs through field encoding" `Quick (fun () ->
        (* w.v + alpha where components are negative integers. *)
        let enc v = Zfield.of_bigint f (bi v) in
        let w = Array.map enc [| 3; -2 |] and v = Array.map enc [| -4; 5 |] in
        let alpha = enc (-10) in
        let st, m1 = Dot_product.bob_round1 rng f ~w ~s:4 in
        let m2 = Dot_product.alice_round2 rng f ~v ~alpha m1 in
        let beta = Zfield.to_signed f (Dot_product.bob_finish f st m2) in
        (* 3*-4 + -2*5 + -10 = -32 *)
        Alcotest.(check int) "signed result" (-32) (Bigint.to_int_exn beta));
    Alcotest.test_case "round1 message has documented size" `Quick (fun () ->
        let d = 6 and s = 5 in
        let w = Array.init d (fun i -> el i) in
        let _, m1 = Dot_product.bob_round1 rng f ~w ~s in
        let count =
          Array.length m1.Dot_product.qx * Array.length m1.Dot_product.qx.(0)
          + Array.length m1.Dot_product.c'
          + Array.length m1.Dot_product.g
        in
        Alcotest.(check int) "elements" (Dot_product.round1_elements ~s ~dim:d) count);
    Alcotest.test_case "s must be at least 2" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Dot_product.bob_round1: s must be >= 2") (fun () ->
            ignore (Dot_product.bob_round1 rng f ~w:[| el 1 |] ~s:1)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~name:"protocol equals plaintext (random)"
         QCheck2.Gen.(
           pair (int_range 1 12)
             (pair (int_range 2 8) (int_range 0 1_000_000)))
         (fun (d, (s, seed)) ->
           let r = Rng.create ~seed:(string_of_int seed) in
           let w = Array.init d (fun _ -> el (Rng.int_below r 100000)) in
           let v = Array.init d (fun _ -> el (Rng.int_below r 100000)) in
           let alpha = Zfield.random r f in
           let st, m1 = Dot_product.bob_round1 r f ~w ~s in
           let m2 = Dot_product.alice_round2 r f ~v ~alpha m1 in
           Zfield.equal f
             (Dot_product.bob_finish f st m2)
             (Dot_product.plain f ~w ~v ~alpha)));
  ]

let () =
  Alcotest.run "dotprod"
    [
      ("field", field_tests);
      ("zfield", differential_tests);
      ("protocol", protocol_tests);
    ]
