(* Limb-engine bench: writes BENCH_PR6.json, the trajectory record for
   the 61-bit in-place Montgomery rewrite of ppgr_bigint.

   Three layers of evidence, all on this host in this run:
   - old-vs-new micros: the frozen 26-bit reference engine
     ([Ppgr_bigint.Mag26_ref], the exact pre-rewrite code) against the
     live engine on the same values — mont_mul, powmod and plain mul at
     the protocol's DL-512/DL-1024 widths and the ECC-160 field width.
     The headline gate is the DL-1024 powmod ratio (must be >= 2.5x).
   - the BENCH_PR1 fixed-base micro rows re-run on the live engine, so
     the ns/op trajectory stays comparable file to file;
   - the BENCH_PR4 ring trajectory re-run (same n/k/h/spec, jobs in
     {1, 2, 4}) with the transcript digests asserted byte-identical to
     [Ring.golden_digests]: faster limbs must change no protocol byte. *)

open Ppgr_bigint
module R = Mag26_ref

let json_path = "BENCH_PR6.json"

let powmod_gate = 2.5

let ns_per_call f = Calibrate.time_per_call f *. 1e9

let to_ref (v : Bigint.t) : R.t = R.of_bytes (Bigint.to_bytes_be v)

type micro = {
  m_name : string;
  m_old_ns : float;
  m_new_ns : float;
}

let ratio m = m.m_old_ns /. m.m_new_ns

(* One modulus worth of micros.  The reference context is prebuilt, as
   the old engine cached it per modulus, so both sides measure steady
   state. *)
let modulus_micros name (m : Bigint.t) rng =
  let a = Ppgr_rng.Rng.bigint_below rng m in
  let b = Ppgr_rng.Rng.bigint_below rng m in
  let e = Bigint.pred m in
  let ra = to_ref a and rb = to_ref b and re = to_ref e and rm = to_ref m in
  let rctx = R.Mont.create rm in
  let ram = R.Mont.to_mont rctx ra and rbm = R.Mont.to_mont rctx rb in
  let c = Bigint.Modring.ctx ~modulus:m in
  let xa = Bigint.Modring.enter c a and xb = Bigint.Modring.enter c b in
  let dst = Bigint.Modring.alloc c in
  (* Sanity: identical answers before timing anything. *)
  let new_pow = Bigint.powmod a e m in
  let old_pow = Bigint.of_bytes_be (R.to_bytes (R.Mont.powmod rctx ra re)) in
  if not (Bigint.equal new_pow old_pow) then
    failwith ("limb bench: engines disagree on powmod at " ^ name);
  let keep = ref ram in
  [
    {
      m_name = name ^ "-mont_mul";
      m_old_ns = ns_per_call (fun () -> keep := R.Mont.mont_mul rctx !keep rbm);
      m_new_ns = ns_per_call (fun () -> Bigint.Modring.mul_into c dst xa xb);
    };
    {
      m_name = name ^ "-mont_sqr";
      m_old_ns = ns_per_call (fun () -> keep := R.Mont.mont_mul rctx !keep !keep);
      m_new_ns = ns_per_call (fun () -> Bigint.Modring.sqr_into c dst xa);
    };
    {
      (* full-width exponent: e = m - 1, so [bits] squarings' worth *)
      m_name = Printf.sprintf "%s-powmod" name;
      m_old_ns = ns_per_call (fun () -> ignore (R.Mont.powmod rctx ra re));
      m_new_ns = ns_per_call (fun () -> ignore (Bigint.powmod a e m));
    };
    {
      m_name = name ^ "-plain-mul";
      m_old_ns = ns_per_call (fun () -> ignore (R.mul ra rb));
      m_new_ns = ns_per_call (fun () -> ignore (Bigint.mul a b));
    };
  ]

(* The PR4 ring trajectory on the live engine: same runner, same sizes,
   digests must match the goldens. *)
type ring_rerun = {
  rr_group : string;
  rr_digest : string;
  rr_golden : string;
  rr_points : Ring.point list;
  rr_identical : bool;
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
  }

let run () =
  Printf.printf "\n== Limb engine (%s) ==\n%!" json_path;
  let rng = Ppgr_rng.Rng.create ~seed:"ppgr-bench-limbs" in
  Printf.printf "old = frozen 26-bit reference, new = live 61-bit engine\n%!";
  let p160 = Ppgr_group.Ec_params.secp160r1.Ppgr_group.Ec_curve.p in
  let micros =
    modulus_micros "dl512" Ppgr_group.Modp_params.p_512 rng
    @ modulus_micros "dl1024" Ppgr_group.Modp_params.p_1024 rng
    @ modulus_micros "ecc160-field" p160 rng
  in
  List.iter
    (fun m ->
      Printf.printf "%-28s old %10.0f ns  new %10.0f ns  %5.2fx\n%!" m.m_name
        m.m_old_ns m.m_new_ns (ratio m))
    micros;
  let gate_row = List.find (fun m -> m.m_name = "dl1024-powmod") micros in
  Printf.printf "DL-1024 powmod: %.2fx (gate: >= %.1fx)\n%!" (ratio gate_row) powmod_gate;
  (* PR1 micro rows, re-run. *)
  Printf.printf "-- BENCH_PR1 micro rows, re-run on the live engine --\n%!";
  let pr1_rows =
    Trajectory.group_rows "dl1024" (Ppgr_group.Dl_group.dl_1024 ()) rng
    @ Trajectory.group_rows "ecc160" (Ppgr_group.Ec_group.ecc_160 ()) rng
  in
  List.iter
    (fun (r : Trajectory.row) ->
      Printf.printf "%-28s %12.0f ns/op\n%!" r.Trajectory.r_name r.Trajectory.r_ns)
    pr1_rows;
  (* PR4 ring trajectory, re-run. *)
  let reruns =
    List.map ring_rerun
      [
        ("DL-1024", Ppgr_group.Dl_group.dl_1024);
        ("ECC-160", Ppgr_group.Ec_group.ecc_160);
      ]
  in
  List.iter
    (fun rr ->
      Printf.printf "%s digest %s golden %s -> %s\n%!" rr.rr_group rr.rr_digest
        rr.rr_golden
        (if rr.rr_digest = rr.rr_golden then "MATCH" else "MISMATCH"))
    reruns;
  (* JSON. *)
  let oc = open_out json_path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 6,\n";
  out
    "  \"description\": \"61-bit limb engine with in-place Montgomery \
     arithmetic\",\n";
  out "  \"baseline\": \"frozen 26-bit reference (Mag26_ref) on this host, same run\",\n";
  out "  \"cores_detected\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"old_vs_new_micros\": [\n";
  List.iteri
    (fun i m ->
      out
        "    {\"name\": %S, \"old_ns\": %.1f, \"new_ns\": %.1f, \"speedup\": \
         %.3f}%s\n"
        m.m_name m.m_old_ns m.m_new_ns (ratio m)
        (if i = List.length micros - 1 then "" else ","))
    micros;
  out "  ],\n";
  out "  \"dl1024_powmod_speedup\": %.3f,\n" (ratio gate_row);
  out "  \"dl1024_powmod_gate\": {\"threshold\": %.1f, \"passed\": %b},\n"
    powmod_gate
    (ratio gate_row >= powmod_gate);
  out "  \"pr1_micros_rerun_ns_per_op\": {\n";
  List.iteri
    (fun i (r : Trajectory.row) ->
      out "    %S: %.1f%s\n" r.Trajectory.r_name r.Trajectory.r_ns
        (if i = List.length pr1_rows - 1 then "" else ","))
    pr1_rows;
  out "  },\n";
  out "  \"ring_rerun\": [\n";
  List.iteri
    (fun i rr ->
      out "    {\n";
      out "      \"group\": %S,\n" rr.rr_group;
      out "      \"transcript_digest\": %S,\n" rr.rr_digest;
      out "      \"golden_digest\": %S,\n" rr.rr_golden;
      out "      \"digest_matches_golden\": %b,\n" (rr.rr_digest = rr.rr_golden);
      out "      \"transcripts_identical_across_jobs\": %b,\n" rr.rr_identical;
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
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  (* Hard assertions: this bench is the PR's acceptance harness. *)
  if ratio gate_row < powmod_gate then
    failwith
      (Printf.sprintf "limb bench: DL-1024 powmod speedup %.2fx under the %.1fx gate"
         (ratio gate_row) powmod_gate);
  List.iter
    (fun rr ->
      if rr.rr_digest <> rr.rr_golden then
        failwith
          (Printf.sprintf "limb bench: %s transcript digest %s differs from golden %s"
             rr.rr_group rr.rr_digest rr.rr_golden);
      if not rr.rr_identical then
        failwith ("limb bench: " ^ rr.rr_group ^ " transcripts differ across job counts"))
    reruns

(* Cheap CI variant: micros only at DL-512 plus a digest check at test
   sizes is already covered by ring-smoke; here just enforce the gate's
   machinery without the long DL-1024 loops. *)
let smoke () =
  Printf.printf "\n== Limb smoke (DL-512 micros) ==\n%!";
  let rng = Ppgr_rng.Rng.create ~seed:"ppgr-bench-limbs-smoke" in
  let micros = modulus_micros "dl512" Ppgr_group.Modp_params.p_512 rng in
  List.iter
    (fun m ->
      Printf.printf "%-28s old %10.0f ns  new %10.0f ns  %5.2fx\n%!" m.m_name
        m.m_old_ns m.m_new_ns (ratio m))
    micros
