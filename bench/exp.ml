(* Group-layer exponentiation bench: writes BENCH_PR7.json, the
   trajectory record for the zero-allocation group layer (in-place
   Jacobian point ops, per-domain wNAF scratch, exponent-path caching).

   Three layers of evidence, all on this host in this run:
   - old-vs-new micros: the pre-rewrite group-layer algorithms
     reconstructed from still-public primitives (allocating Modring ops
     + list-based wNAF recodings for DL, allocating point ops for EC —
     the exact shapes the old [Dl_group.pow]/[Ec_curve.scalar_mul]
     used) against the live scratch-resident paths, on the same values,
     with a byte-equality cross-check before any timing;
   - per-op minor-words probes: the live paths must allocate exactly
     their escaping result, nothing else;
   - an inversion gate: the live DL pow/pow2 must leave the group's
     [field_invs] probe unchanged;
   - the ring trajectory re-run (same n/k/h/spec as BENCH_PR4-PR6,
     jobs in {1, 2, 4}) with transcript digests asserted byte-identical
     to [Ring.golden_digests], and the DL-1024 jobs=1 wall gated at
     >= 1.25x over the BENCH_PR6 reference: a faster group layer must
     change no protocol byte. *)

open Ppgr_bigint
module GI = Ppgr_group.Group_intf
module MR = Bigint.Modring
module EC = Ppgr_group.Ec_curve

let json_path = "BENCH_PR7.json"

(* BENCH_PR6.json jobs=1 ring walls (reference host); the DL-1024 gate
   below is the PR's acceptance bar. *)
let pr6_ring_wall = [ ("DL-1024", 28.429); ("ECC-160", 1.528) ]
let ring_gate = 1.25

let ns_per_call f = Calibrate.time_per_call f *. 1e9

type micro = {
  m_name : string;
  m_old_ns : float;
  m_new_ns : float;
  m_new_words : float; (* minor words per call on the live path *)
  m_result_words : float; (* the escaping result's own size *)
}

let ratio m = m.m_old_ns /. m.m_new_ns

(* ---- Old DL exponentiation paths, reconstructed on Modring. ----
   These replicate the pre-rewrite [Dl_group] bodies exactly: per-call
   odd-powers arrays, [option]-boxed lazy inverse caches, list-based
   wNAF recodings, per-digit allocating ring ops, a meter tick per
   group op, and an unconditional [erem] on entry. *)

let old_meter = Ppgr_exec.Meter.create ()

let dl_old_pow ring order x e =
  let tick () = Ppgr_exec.Meter.incr old_meter in
  let sqr a = tick (); MR.sqr ring a in
  let mul a b = tick (); MR.mul ring a b in
  let inv a = tick (); MR.inv ring a in
  let e = Bigint.erem e order in
  if Bigint.is_zero e then MR.one ring
  else begin
    let x2 = sqr x in
    let odd = Array.make 4 x in
    for i = 1 to 3 do
      odd.(i) <- mul odd.(i - 1) x2
    done;
    let digits = GI.wnaf4 e in
    let inv_cache = Array.make 4 None in
    let inv_odd i =
      match inv_cache.(i) with
      | Some v -> v
      | None ->
          let v = inv odd.(i) in
          inv_cache.(i) <- Some v;
          v
    in
    List.fold_left
      (fun acc d ->
        let acc = sqr acc in
        if d = 0 then acc
        else if d > 0 then mul acc odd.(d / 2)
        else mul acc (inv_odd (-d / 2)))
      (MR.one ring) digits
  end

(* Old-style fixed-base table on raw ring elements (sequential spine +
   chain fill, same op count as the live builder). *)
let dl_old_powtable ring order x =
  let window = GI.fixed_base_window in
  let nwin = (Bigint.numbits order + window - 1) / window in
  let size = (1 lsl window) - 1 in
  let tbl = Array.init nwin (fun _ -> Array.make size x) in
  let base = ref x in
  for i = 0 to nwin - 1 do
    let row = tbl.(i) in
    row.(0) <- !base;
    for d = 1 to size - 1 do
      row.(d) <- MR.mul ring row.(d - 1) !base
    done;
    if i < nwin - 1 then base := MR.sqr ring (MR.sqr ring (MR.sqr ring (MR.sqr ring !base)))
  done;
  tbl

let dl_old_pow_table ring order tbl e =
  let e = Bigint.erem e order in
  if Bigint.is_zero e then MR.one ring
  else begin
    let digits = GI.window_digits ~window:GI.fixed_base_window e in
    let acc = ref None in
    Array.iteri
      (fun i d ->
        if d > 0 then
          let entry = tbl.(i).(d - 1) in
          acc :=
            Some
              (match !acc with
              | None -> entry
              | Some a ->
                  Ppgr_exec.Meter.incr old_meter;
                  MR.mul ring a entry))
      digits;
    match !acc with None -> MR.one ring | Some a -> a
  end

let dl_old_pow2 ring order a e b f =
  let tick () = Ppgr_exec.Meter.incr old_meter in
  let sqr x = tick (); MR.sqr ring x in
  let mul x y = tick (); MR.mul ring x y in
  let inv x = tick (); MR.inv ring x in
  let e = Bigint.erem e order and f = Bigint.erem f order in
  if Bigint.is_zero e then dl_old_pow ring order b f
  else if Bigint.is_zero f then dl_old_pow ring order a e
  else begin
    let odd_of x =
      let x2 = sqr x in
      let t = Array.make 4 x in
      for i = 1 to 3 do
        t.(i) <- mul t.(i - 1) x2
      done;
      t
    in
    let ta = odd_of a and tb = odd_of b in
    let ia = Array.make 4 None and ib = Array.make 4 None in
    let inv_odd t cache i =
      match cache.(i) with
      | Some v -> v
      | None ->
          let v = inv t.(i) in
          cache.(i) <- Some v;
          v
    in
    let mix acc t cache d =
      if d = 0 then acc
      else if d > 0 then mul acc t.(d / 2)
      else mul acc (inv_odd t cache (-d / 2))
    in
    List.fold_left
      (fun acc (da, db) -> mix (mix (sqr acc) ta ia da) tb ib db)
      (MR.one ring)
      (GI.wnaf4_pair e f)
  end

(* ---- Old EC scalar ladders, reconstructed on the allocating point
   ops (each a fresh-point wrapper over the in-place formulas — the
   same per-step allocation pattern the old fold paid). ---- *)

let ec_old_scalar_mul cv pt e =
  let n = cv.EC.prm.EC.n in
  let e = Bigint.erem e n in
  if Bigint.is_zero e || EC.is_infinity cv pt then EC.infinity cv
  else begin
    let p2 = EC.double cv pt in
    let odd = Array.make 4 pt in
    for i = 1 to 3 do
      odd.(i) <- EC.add cv odd.(i - 1) p2
    done;
    let digits = GI.wnaf4 e in
    List.fold_left
      (fun acc d ->
        let acc = EC.double cv acc in
        if d = 0 then acc
        else if d > 0 then EC.add cv acc odd.(d / 2)
        else EC.add cv acc (EC.neg cv odd.(-d / 2)))
      (EC.infinity cv) digits
  end

let ec_old_scalar_mul_table cv (t : EC.powtable) e =
  let n = cv.EC.prm.EC.n in
  let e = Bigint.erem e n in
  if Bigint.is_zero e then EC.infinity cv
  else begin
    let digits = GI.window_digits ~window:t.EC.pw e in
    let acc = ref (EC.infinity cv) in
    Array.iteri
      (fun i d -> if d > 0 then acc := EC.add cv !acc t.EC.ptbl.(i).(d - 1))
      digits;
    !acc
  end

let ec_old_scalar_mul2 cv p e q f =
  let n = cv.EC.prm.EC.n in
  let e = Bigint.erem e n and f = Bigint.erem f n in
  if Bigint.is_zero e || EC.is_infinity cv p then ec_old_scalar_mul cv q f
  else if Bigint.is_zero f || EC.is_infinity cv q then ec_old_scalar_mul cv p e
  else begin
    let odd_of pt =
      let p2 = EC.double cv pt in
      let t = Array.make 4 pt in
      for i = 1 to 3 do
        t.(i) <- EC.add cv t.(i - 1) p2
      done;
      t
    in
    let ta = odd_of p and tb = odd_of q in
    let mix acc t d =
      if d = 0 then acc
      else if d > 0 then EC.add cv acc t.(d / 2)
      else EC.add cv acc (EC.neg cv t.(-d / 2))
    in
    List.fold_left
      (fun acc (da, db) -> mix (mix (EC.double cv acc) ta da) tb db)
      (EC.infinity cv)
      (GI.wnaf4_pair e f)
  end

let alloc_words f = (Ppgr_obs.Allocs.measure ~iters:50 f).Ppgr_obs.Allocs.words_per_iter

(* ---- One DL modulus worth of micros. ---- *)
let dl_micros name p rng =
  let ring = MR.ctx ~modulus:p in
  let order = Bigint.shift_right (Bigint.pred p) 1 in
  let ebytes = (Bigint.numbits p + 7) / 8 in
  let bytes_of x = Bigint.to_bytes_be_padded ebytes (MR.leave ring x) in
  let gfam =
    if name = "dl1024" then Ppgr_group.Dl_group.dl_1024 ()
    else Ppgr_group.Dl_group.dl_512 ()
  in
  let module G = (val gfam) in
  (* w Montgomery limbs + the array header. *)
  let result_words = ((Bigint.numbits p + 60) / 61) + 1 in
  let ra = G.random_scalar rng and rb = G.random_scalar rng in
  let e = G.random_scalar rng and f = G.random_scalar rng in
  let x = G.pow_gen ra and y = G.pow_gen rb in
  (* The same residues on the raw ring, for the old-path reconstruction. *)
  let xr = dl_old_pow ring order (MR.enter ring (Bigint.of_int 4)) ra in
  let yr = dl_old_pow ring order (MR.enter ring (Bigint.of_int 4)) rb in
  (* Cross-check old vs new byte-for-byte before timing anything. *)
  if G.to_bytes (G.pow x e) <> bytes_of (dl_old_pow ring order xr e) then
    failwith ("exp bench: old/new disagree on pow at " ^ name);
  let tbl = G.powtable x in
  let otbl = dl_old_powtable ring order xr in
  if G.to_bytes (G.pow_table tbl e) <> bytes_of (dl_old_pow_table ring order otbl e)
  then failwith ("exp bench: old/new disagree on pow_table at " ^ name);
  if G.to_bytes (G.pow2 x e y f) <> bytes_of (dl_old_pow2 ring order xr e yr f) then
    failwith ("exp bench: old/new disagree on pow2 at " ^ name);
  (* The live DL exponentiations are inversion-free (unsigned sliding
     window): any field inversion on pow/pow2 is a regression. *)
  let invs = List.assoc "field_invs" G.probes in
  let i0 = invs () in
  for _ = 1 to 4 do
    ignore (G.pow x e);
    ignore (G.pow2 x e y f)
  done;
  if invs () <> i0 then
    failwith
      (Printf.sprintf "exp bench: %s pow/pow2 performed %d field inversions (expected 0)"
         name (invs () - i0));
  let rw = float_of_int result_words in
  [
    {
      m_name = name ^ "-pow";
      m_old_ns = ns_per_call (fun () -> ignore (dl_old_pow ring order xr e));
      m_new_ns = ns_per_call (fun () -> ignore (G.pow x e));
      m_new_words = alloc_words (fun () -> ignore (G.pow x e));
      m_result_words = rw;
    };
    {
      m_name = name ^ "-pow_table";
      m_old_ns = ns_per_call (fun () -> ignore (dl_old_pow_table ring order otbl e));
      m_new_ns = ns_per_call (fun () -> ignore (G.pow_table tbl e));
      m_new_words = alloc_words (fun () -> ignore (G.pow_table tbl e));
      m_result_words = rw;
    };
    {
      m_name = name ^ "-pow2";
      m_old_ns = ns_per_call (fun () -> ignore (dl_old_pow2 ring order xr e yr f));
      m_new_ns = ns_per_call (fun () -> ignore (G.pow2 x e y f));
      m_new_words = alloc_words (fun () -> ignore (G.pow2 x e y f));
      m_result_words = rw;
    };
  ]

(* ---- ECC-160 micros on the curve layer. ---- *)
let ec_micros rng =
  let cv = EC.make_curve Ppgr_group.Ec_params.secp160r1 in
  let n = cv.EC.prm.EC.n in
  let rand_scalar () = Bigint.succ (Ppgr_rng.Rng.bigint_below rng (Bigint.pred n)) in
  let e = rand_scalar () and f = rand_scalar () in
  let g = EC.base_point cv in
  let p = EC.scalar_mul cv g (rand_scalar ()) in
  let q = EC.scalar_mul cv g (rand_scalar ()) in
  if not (EC.equal cv (EC.scalar_mul cv p e) (ec_old_scalar_mul cv p e)) then
    failwith "exp bench: old/new disagree on scalar_mul";
  let tbl = EC.make_powtable cv p ~bits:(Bigint.numbits n) in
  if
    not
      (EC.equal cv (EC.scalar_mul_table cv tbl e) (ec_old_scalar_mul_table cv tbl e))
  then failwith "exp bench: old/new disagree on scalar_mul_table";
  if not (EC.equal cv (EC.scalar_mul2 cv p e q f) (ec_old_scalar_mul2 cv p e q f))
  then failwith "exp bench: old/new disagree on scalar_mul2";
  (* point record (4 words) + three field elements (w limbs + header). *)
  let limbs = (Bigint.numbits cv.EC.prm.EC.p + 60) / 61 in
  let rw = float_of_int (4 + (3 * (limbs + 1))) in
  [
    {
      m_name = "ecc160-scalar_mul";
      m_old_ns = ns_per_call (fun () -> ignore (ec_old_scalar_mul cv p e));
      m_new_ns = ns_per_call (fun () -> ignore (EC.scalar_mul cv p e));
      m_new_words = alloc_words (fun () -> ignore (EC.scalar_mul cv p e));
      m_result_words = rw;
    };
    {
      m_name = "ecc160-scalar_mul_table";
      m_old_ns = ns_per_call (fun () -> ignore (ec_old_scalar_mul_table cv tbl e));
      m_new_ns = ns_per_call (fun () -> ignore (EC.scalar_mul_table cv tbl e));
      m_new_words = alloc_words (fun () -> ignore (EC.scalar_mul_table cv tbl e));
      m_result_words = rw;
    };
    {
      m_name = "ecc160-scalar_mul2";
      m_old_ns = ns_per_call (fun () -> ignore (ec_old_scalar_mul2 cv p e q f));
      m_new_ns = ns_per_call (fun () -> ignore (EC.scalar_mul2 cv p e q f));
      m_new_words = alloc_words (fun () -> ignore (EC.scalar_mul2 cv p e q f));
      m_result_words = rw;
    };
  ]

let print_micro m =
  Printf.printf "%-26s old %10.0f ns  new %10.0f ns  %5.2fx  %6.1f w/op (result %.0f)\n%!"
    m.m_name m.m_old_ns m.m_new_ns (ratio m) m.m_new_words m.m_result_words

(* Live paths must allocate exactly the escaping result. *)
let assert_result_only micros =
  List.iter
    (fun m ->
      if m.m_new_words > m.m_result_words +. 0.01 then
        failwith
          (Printf.sprintf "exp bench: %s allocates %.1f words/op (result is %.0f)"
             m.m_name m.m_new_words m.m_result_words))
    micros

(* The PR4 ring trajectory, re-run: digests must match the goldens. *)
type ring_rerun = {
  rr_group : string;
  rr_digest : string;
  rr_golden : string;
  rr_points : Ring.point list;
  rr_identical : bool;
  rr_speedup : float; (* PR6 reference jobs=1 wall / this run's *)
}

let ring_rerun (name, gfam) =
  Printf.printf "-- ring re-run: %s --\n%!" name;
  let points =
    List.map
      (fun jobs ->
        let p = Ring.run_point gfam jobs in
        Ring.print_point name p;
        p)
      [ 1; 2; 4 ]
  in
  let base = List.hd points in
  let identical =
    List.for_all
      (fun (p : Ring.point) ->
        p.Ring.transcript = base.Ring.transcript && p.Ring.ranks = base.Ring.ranks)
      points
  in
  {
    rr_group = name;
    rr_digest = base.Ring.transcript;
    rr_golden = List.assoc name Ring.golden_digests;
    rr_points = points;
    rr_identical = identical;
    rr_speedup = List.assoc name pr6_ring_wall /. base.Ring.wall_s;
  }

let run () =
  Printf.printf "\n== Group-layer exponentiation (%s) ==\n%!" json_path;
  Printf.printf
    "old = pre-rewrite group layer reconstructed on public primitives, new = live scratch paths\n%!";
  let rng = Ppgr_rng.Rng.create ~seed:"ppgr-bench-exp" in
  let micros =
    dl_micros "dl512" Ppgr_group.Modp_params.p_512 rng
    @ dl_micros "dl1024" Ppgr_group.Modp_params.p_1024 rng
    @ ec_micros rng
  in
  List.iter print_micro micros;
  assert_result_only micros;
  Printf.printf "live paths allocate their result only: ok\n%!";
  let reruns =
    List.map ring_rerun
      [
        ("DL-1024", Ppgr_group.Dl_group.dl_1024);
        ("ECC-160", Ppgr_group.Ec_group.ecc_160);
      ]
  in
  List.iter
    (fun rr ->
      Printf.printf "%s digest %s golden %s -> %s  (%.2fx vs PR6 reference)\n%!"
        rr.rr_group rr.rr_digest rr.rr_golden
        (if rr.rr_digest = rr.rr_golden then "MATCH" else "MISMATCH")
        rr.rr_speedup)
    reruns;
  (* JSON. *)
  let oc = open_out json_path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 7,\n";
  out
    "  \"description\": \"zero-allocation group layer: in-place point ops, \
     per-domain wNAF scratch, exponent-path caching\",\n";
  out
    "  \"baseline\": \"pre-rewrite group-layer algorithms reconstructed on \
     public primitives, this host, same run; ring reference walls from \
     BENCH_PR6.json\",\n";
  out "  \"cores_detected\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"old_vs_new_micros\": [\n";
  List.iteri
    (fun i m ->
      out
        "    {\"name\": %S, \"old_ns\": %.1f, \"new_ns\": %.1f, \"speedup\": \
         %.3f, \"minor_words_per_op\": %.1f, \"result_words\": %.0f}%s\n"
        m.m_name m.m_old_ns m.m_new_ns (ratio m) m.m_new_words m.m_result_words
        (if i = List.length micros - 1 then "" else ","))
    micros;
  out "  ],\n";
  out "  \"ring_rerun\": [\n";
  List.iteri
    (fun i rr ->
      out "    {\n";
      out "      \"group\": %S,\n" rr.rr_group;
      out "      \"transcript_digest\": %S,\n" rr.rr_digest;
      out "      \"golden_digest\": %S,\n" rr.rr_golden;
      out "      \"digest_matches_golden\": %b,\n" (rr.rr_digest = rr.rr_golden);
      out "      \"transcripts_identical_across_jobs\": %b,\n" rr.rr_identical;
      out "      \"pr6_reference_wall_s\": %.3f,\n" (List.assoc rr.rr_group pr6_ring_wall);
      out "      \"speedup_vs_pr6\": %.3f,\n" rr.rr_speedup;
      out "      \"points\": [\n";
      List.iteri
        (fun j (p : Ring.point) ->
          out
            "        {\"jobs\": %d, \"wall_s\": %.3f, \"ring_wall_s\": %.4f, \
             \"totals\": {\"exps\": %d, \"group_mults\": %d, \"bytes\": %d}, \
             \"attribution_consistent\": %b}%s\n"
            p.Ring.jobs p.Ring.wall_s p.Ring.ring_s p.Ring.tot_exps
            p.Ring.tot_mults p.Ring.tot_bytes p.Ring.consistent
            (if j = List.length rr.rr_points - 1 then "" else ","))
        rr.rr_points;
      out "      ]\n";
      out "    }%s\n" (if i = List.length reruns - 1 then "" else ",")
    )
    reruns;
  out "  ],\n";
  let dl = List.find (fun rr -> rr.rr_group = "DL-1024") reruns in
  out
    "  \"dl1024_ring_gate\": {\"threshold\": %.2f, \"wall_s\": %.3f, \
     \"pr6_reference_wall_s\": %.3f, \"speedup\": %.3f, \"passed\": %b}\n"
    ring_gate (List.hd dl.rr_points).Ring.wall_s
    (List.assoc dl.rr_group pr6_ring_wall)
    dl.rr_speedup
    (dl.rr_speedup >= ring_gate);
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  (* Hard assertions: this bench is the PR's acceptance harness. *)
  List.iter
    (fun rr ->
      if rr.rr_digest <> rr.rr_golden then
        failwith
          (Printf.sprintf "exp bench: %s transcript digest %s differs from golden %s"
             rr.rr_group rr.rr_digest rr.rr_golden);
      if not rr.rr_identical then
        failwith ("exp bench: " ^ rr.rr_group ^ " transcripts differ across job counts"))
    reruns;
  if dl.rr_speedup < ring_gate then
    failwith
      (Printf.sprintf
         "exp bench: DL-1024 ring speedup %.2fx under the %.2fx gate (jobs=1 wall %.2fs vs PR6 %.2fs)"
         dl.rr_speedup ring_gate (List.hd dl.rr_points).Ring.wall_s
         (List.assoc "DL-1024" pr6_ring_wall))

(* Cheap CI variant: DL-512 + ECC-160 micros with the correctness
   cross-checks, the DL inversion gate and the result-only allocation
   gate (the digest side of
   CI is covered by the test-size ring smoke; the full golden-digest
   run lives in the multicore bench job). *)
let smoke () =
  Printf.printf "\n== Exp smoke (DL-512 + ECC-160 micros, alloc gate) ==\n%!";
  let rng = Ppgr_rng.Rng.create ~seed:"ppgr-bench-exp-smoke" in
  let micros = dl_micros "dl512" Ppgr_group.Modp_params.p_512 rng @ ec_micros rng in
  List.iter print_micro micros;
  assert_result_only micros;
  Printf.printf "live paths allocate their result only: ok\n%!"
