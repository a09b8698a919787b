(* Allocation regression gate for the in-place bigint fast path.

   The whole point of the 61-bit rewrite is that the Montgomery kernels
   and the Modring [_into] operations allocate nothing per call once the
   per-domain scratch is warm; this suite pins that with exact
   [Gc.minor_words] deltas via [Ppgr_obs.Allocs].  A regression that
   sneaks a box or a fresh array into a kernel fails here, not in a
   benchmark three PRs later. *)

open Ppgr_bigint
module Allocs = Ppgr_obs.Allocs

let p1024 = Ppgr_group.Modp_params.p_1024
let c = Bigint.Modring.ctx ~modulus:p1024

let x =
  Bigint.Modring.enter c
    (Bigint.of_string
       "0xfeedfacecafebeef00112233445566778899aabbccddeeff0123456789abcdef")

let y = Bigint.Modring.enter c (Bigint.sub p1024 (Bigint.of_int 987654321))

let check_zero name f =
  Alcotest.test_case name `Quick (fun () ->
      let s = Allocs.measure ~warmup:8 ~iters:200 f in
      if not (Allocs.is_alloc_free s) then
        Alcotest.failf "%s allocates: %s" name (Format.asprintf "%a" Allocs.pp s))

let zero_alloc_tests =
  let d = Bigint.Modring.alloc c in
  [
    check_zero "mont mul_into is allocation-free" (fun () -> Bigint.Modring.mul_into c d x y);
    check_zero "mont sqr_into is allocation-free" (fun () -> Bigint.Modring.sqr_into c d x);
    check_zero "add_into is allocation-free" (fun () -> Bigint.Modring.add_into c d x y);
    check_zero "sub_into is allocation-free" (fun () -> Bigint.Modring.sub_into c d x y);
    check_zero "neg_into is allocation-free" (fun () -> Bigint.Modring.neg_into c d y);
    check_zero "double_into is allocation-free" (fun () -> Bigint.Modring.double_into c d y);
    check_zero "copy_into is allocation-free" (fun () -> Bigint.Modring.copy_into c d x);
  ]

(* powmod allocates only its escaping result: the per-call figure must
   not grow with the exponent (the window table, accumulator and
   conversion temporaries all live in ctx scratch). *)
let powmod_tests =
  [
    Alcotest.test_case "powmod allocation is independent of exponent size" `Quick (fun () ->
        let base = Bigint.of_string "0x1234567890abcdef1234567890abcdef" in
        let e_small = Bigint.pred (Bigint.nth_bit_weight 64) in
        let e_big = Bigint.pred (Bigint.nth_bit_weight 1024) in
        let run e = Allocs.measure ~warmup:3 ~iters:20 (fun () -> ignore (Bigint.powmod base e p1024)) in
        let s_small = run e_small and s_big = run e_big in
        Alcotest.(check (float 0.01))
          "words/call equal for 64-bit and 1024-bit exponents"
          s_small.Allocs.words_per_iter s_big.Allocs.words_per_iter;
        (* Result magnitude (17 limbs + header) + sign wrapper and
           nothing else. *)
        Alcotest.(check bool) "powmod result allocation is small" true
          (s_big.Allocs.words_per_iter < 32.));
    Alcotest.test_case "mont inv_into is allocation-free" `Quick (fun () ->
        let d = Bigint.Modring.alloc c in
        let s =
          Allocs.measure ~warmup:8 ~iters:50 (fun () -> Bigint.Modring.inv_into c d x)
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "inv_into allocates: %s" (Format.asprintf "%a" Allocs.pp s));
    Alcotest.test_case "probe detects allocation when present" `Quick (fun () ->
        (* Sanity-check the probe itself: an allocating loop must not
           report zero. *)
        let sink = ref Bigint.zero in
        let s = Allocs.measure ~iters:50 (fun () -> sink := Bigint.add !sink Bigint.one) in
        Alcotest.(check bool) "allocating loop detected" false (Allocs.is_alloc_free s));
  ]

(* Group layer (PR 7): steady-state exponentiations allocate exactly
   their escaping result — the wNAF tables, inverse caches, recoding
   buffers and accumulators all live in per-domain scratch.  The pinned
   figures are the result object's own size:
   - DL-1024 element: 17 Montgomery limbs + array header = 18 words;
   - ECC-160 point: record (3 fields + header) + three 3-limb field
     elements (3 + header each) = 16 words. *)
let check_exact name expected f =
  Alcotest.test_case name `Quick (fun () ->
      let s = Allocs.measure ~warmup:8 ~iters:50 f in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "%s allocates exactly %.0f words/op" name expected)
        expected s.Allocs.words_per_iter)

let group_tests =
  let rng = Ppgr_rng.Rng.create ~seed:"test-allocs-group" in
  let module G = (val Ppgr_group.Dl_group.dl_1024 ()) in
  let e = G.random_scalar rng and f = G.random_scalar rng in
  let gx = G.pow_gen e and gy = G.pow_gen f in
  let tbl = G.powtable gx in
  let dl_words = 18.0 in
  let module E = Ppgr_group.Ec_curve in
  let cv = E.make_curve Ppgr_group.Ec_params.secp160r1 in
  let n = cv.E.prm.E.n in
  let se = Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.pred n)) in
  let sf = Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.pred n)) in
  let pt = E.scalar_mul cv (E.base_point cv) se in
  let qt = E.scalar_mul cv (E.base_point cv) sf in
  let ptbl = E.make_powtable cv pt ~bits:(Bigint.numbits n) in
  let ec_words = 16.0 in
  [
    check_exact "DL-1024 pow allocates result only" dl_words (fun () ->
        ignore (G.pow gx e));
    check_exact "DL-1024 pow_table allocates result only" dl_words (fun () ->
        ignore (G.pow_table tbl e));
    check_exact "DL-1024 pow2 allocates result only" dl_words (fun () ->
        ignore (G.pow2 gx e gy f));
    check_exact "ECC-160 scalar_mul allocates result only" ec_words (fun () ->
        ignore (E.scalar_mul cv pt se));
    check_exact "ECC-160 scalar_mul_table allocates result only" ec_words (fun () ->
        ignore (E.scalar_mul_table cv ptbl se));
    check_exact "ECC-160 scalar_mul2 allocates result only" ec_words (fun () ->
        ignore (E.scalar_mul2 cv pt se qt sf));
    (let module EG = Ppgr_elgamal.Elgamal.Make (G) in
     let sk, pk = EG.keygen rng in
     let ct = EG.encrypt_exp_int rng pk 1 in
     check_exact "DL-1024 decrypt_exp_is_zero allocates the pow result only" dl_words
       (fun () -> ignore (EG.decrypt_exp_is_zero sk ct)));
    Alcotest.test_case "DL-1024 of_bytes allocation is exact and value-independent" `Quick
      (fun () ->
        (* Decoded magnitude (17 limbs + header) + its Bigint record (3)
           + the Montgomery form (18) + [Some] (2); the Jacobi check runs
           on per-domain scratch, so no element's value changes the
           count. *)
        let words b =
          (Allocs.measure ~warmup:8 ~iters:50 (fun () -> ignore (G.of_bytes b)))
            .Allocs.words_per_iter
        in
        for _ = 1 to 8 do
          let b = G.to_bytes (G.pow_gen (G.random_scalar rng)) in
          Alcotest.(check (float 0.01)) "accepted element" 41.0 (words b)
        done;
        (* A non-residue is rejected after the magnitude and its record. *)
        let v = Bigint.of_bytes_be (G.to_bytes gx) in
        let neg = Bigint.to_bytes_be_padded G.element_bytes (Bigint.sub p1024 v) in
        Alcotest.(check (float 0.01)) "rejected non-residue" 21.0 (words neg));
    Alcotest.test_case "DL pow allocation is independent of exponent size" `Quick
      (fun () ->
        let e_small = Bigint.of_int 3 in
        let run ex =
          Allocs.measure ~warmup:8 ~iters:30 (fun () -> ignore (G.pow gx ex))
        in
        let s_small = run e_small and s_big = run e in
        Alcotest.(check (float 0.01))
          "words/call equal for tiny and full-width exponents"
          s_small.Allocs.words_per_iter s_big.Allocs.words_per_iter);
  ]

(* Telemetry layer (PR 8): recording into a histogram or the flight
   recorder is steady-state allocation-free in BOTH states — disabled
   (one ref read, the hot-path guarantee) and enabled (preallocated
   int-array lanes, no boxing). *)
let telemetry_tests =
  let module Hist = Ppgr_obs.Hist in
  let module Flightrec = Ppgr_obs.Flightrec in
  let h = Hist.create () in
  let fl = Flightrec.create ~parties:4 () in
  let tick = ref 0 in
  [
    Alcotest.test_case "disabled Hist.record is allocation-free" `Quick
      (fun () ->
        Hist.set_enabled false;
        let s =
          Allocs.measure ~warmup:8 ~iters:200 (fun () ->
              incr tick;
              Hist.record h !tick)
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "disabled record allocates: %s"
            (Format.asprintf "%a" Allocs.pp s));
    Alcotest.test_case "enabled Hist.record is allocation-free" `Quick
      (fun () ->
        Hist.set_enabled true;
        Fun.protect ~finally:(fun () -> Hist.set_enabled false) @@ fun () ->
        let s =
          Allocs.measure ~warmup:8 ~iters:200 (fun () ->
              incr tick;
              Hist.record h (!tick * 7919))
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "enabled record allocates: %s"
            (Format.asprintf "%a" Allocs.pp s));
    Alcotest.test_case "Flightrec.record is allocation-free" `Quick (fun () ->
        let s =
          Allocs.measure ~warmup:8 ~iters:200 (fun () ->
              incr tick;
              Flightrec.record fl ~party:(!tick land 3) Flightrec.Send ~src:0
                ~dst:1 ~seq:!tick ~info:64)
        in
        if not (Allocs.is_alloc_free s) then
          Alcotest.failf "Flightrec.record allocates: %s"
            (Format.asprintf "%a" Allocs.pp s));
  ]

(* The field layer's in-place operations: Montgomery-resident elements
   written into a caller-owned destination, with the multiplication
   meter bumped on the way, allocate nothing — on the 64-bit merge prime
   (two limbs) and the 192-bit default prime (four limbs). *)
let zfield_tests =
  let module Zfield = Ppgr_dotprod.Zfield in
  List.concat_map
    (fun (name, f) ->
      let rng = Ppgr_rng.Rng.create ~seed:("allocs-zfield-" ^ name) in
      let a = Zfield.random rng f and b = Zfield.random_nonzero rng f in
      let d = Zfield.alloc f in
      [
        check_zero (name ^ " Zfield.mul_into is allocation-free") (fun () -> Zfield.mul_into f d a b);
        check_zero (name ^ " Zfield.add_into is allocation-free") (fun () -> Zfield.add_into f d a b);
        check_zero (name ^ " Zfield.sub_into is allocation-free") (fun () -> Zfield.sub_into f d a b);
        check_zero (name ^ " Zfield.neg_into is allocation-free") (fun () -> Zfield.neg_into f d b);
      ])
    [
      ("64-bit", Ppgr_dotprod.Zfield.create Ppgr_group.Modp_params.test_64);
      ("192-bit", Ppgr_dotprod.Zfield.default ());
    ]

let () =
  Alcotest.run "allocs"
    [
      ("zero-alloc", zero_alloc_tests);
      ("powmod", powmod_tests);
      ("group-alloc", group_tests);
      ("telemetry-alloc", telemetry_tests);
      ("zfield-alloc", zfield_tests);
    ]
