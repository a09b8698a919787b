(* Byte-level goldens for the field layer and everything above it.

   The values below were recorded from the implementation in which
   [Zfield] computed on canonical [Bigint.t] residues, before the field
   layer moved onto Montgomery-resident elements.  The rewrite has to
   reproduce them exactly: every RNG byte, every accept/reject decision,
   every share, every opened value and every ledger count.  A mismatch
   here means a protocol byte moved, not that the golden needs
   refreshing. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_dotprod
open Ppgr_shamir
open Ppgr_grouprank
module Sha256 = Ppgr_hash.Sha256

let bi = Bigint.of_int
let hex_of_strings l = Sha256.hex_of_digest (Sha256.digest_string (String.concat "|" l))
let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* A share vector as plain integers (all parties, party order). *)
let share_ints f (s : Engine.shared) =
  Array.to_list (Array.map (fun x -> Bigint.to_string (Zfield.to_bigint f x)) s)

let costs_string (c : Engine.costs) =
  Printf.sprintf "mults=%d rounds=%d elements=%d opens=%d randoms=%d field_mults=%d"
    c.Engine.c_mults c.Engine.c_rounds c.Engine.c_elements c.Engine.c_opens
    c.Engine.c_randoms c.Engine.c_field_mults

(* {1 Sharded run: n=16, s=4, k=2, committee 5} *)

let shard_golden (module G : Ppgr_group.Group_intf.GROUP) ~seed =
  let module S = Shard.Make (G) in
  let l = 8 in
  let brng = Rng.create ~seed:(seed ^ "-betas") in
  let betas = Array.init 16 (fun _ -> Rng.bigint_below brng (Bigint.nth_bit_weight l)) in
  let r = S.run ~shard_size:4 ~committee:5 ~k:2 (Rng.create ~seed) ~l ~betas in
  ( r.Shard.transcript_sha,
    ints r.Shard.winners,
    costs_string r.Shard.merge.Shard.merge_costs )

let shard_case name group ~seed ~sha ~winners ~costs =
  Alcotest.test_case name `Quick (fun () ->
      let sha', winners', costs' = shard_golden group ~seed in
      Alcotest.(check string) "transcript_sha" sha sha';
      Alcotest.(check string) "winners" winners winners';
      Alcotest.(check string) "merge_costs" costs costs')

(* Both runs probe the same number of thresholds, so their merge
   ledgers coincide. *)
let merge_ledger =
  "mults=5328 rounds=586 elements=249472 opens=3616 randoms=3528 field_mults=1072640"

let shard_tests =
  [
    shard_case "ECC-tiny sharded run: digest, winners, merge ledger"
      (module (val Ppgr_group.Ec_group.ecc_tiny ()))
      ~seed:"golden-shard-ecc"
      ~sha:"74ab6452e56bf0467fc1a75539bc197c760450d958149268c169790cd2f33a34"
      ~winners:"7,10" ~costs:merge_ledger;
    shard_case "DL-test-64 sharded run: digest, winners, merge ledger"
      (module (val Ppgr_group.Dl_group.dl_test_64 ()))
      ~seed:"golden-shard-dl"
      ~sha:"6aa639af0f47d1705cd6d9425436170bf1eb2e423ec43e27d5a223a88ff51b99"
      ~winners:"10,15" ~costs:merge_ledger;
  ]

(* {1 Phase 1} *)

let spec = Attrs.spec ~m:2 ~t:1 ~d1:4 ~d2:2

let phase1_tests =
  [
    Alcotest.test_case "phase-1 betas" `Quick (fun () ->
        let rng = Rng.create ~seed:"golden-phase1" in
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 6 (fun _ -> Attrs.random_info rng spec) in
        let cfg = Phase1.config ~spec ~h:6 () in
        let _, inter = Phase1.run rng cfg ~criterion ~infos in
        let betas =
          Array.to_list
            (Array.map
               (fun (it : Phase1.interaction) ->
                 Bigint.to_string it.Phase1.beta_signed ^ "/"
                 ^ Bigint.to_string it.Phase1.beta_unsigned)
               inter)
        in
        Alcotest.(check string) "betas"
          "1731/526019 3883/528171 3798/528086 3642/527930 2903/527191 905/525193"
          (String.concat " " betas);
        Alcotest.(check int) "field mults" 1254 (Zfield.mult_count cfg.Phase1.field));
  ]

(* {1 SS framework ledger} *)

let ss_framework_tests =
  [
    Alcotest.test_case "SS framework ledger at n=3" `Quick (fun () ->
        let rng = Rng.create ~seed:"golden-ssfw" in
        let criterion = Attrs.random_criterion rng spec in
        let infos = Array.init 3 (fun _ -> Attrs.random_info rng spec) in
        let cfg = Framework.config ~h:4 ~spec ~k:1 () in
        let out = Ss_framework.run rng cfg ~criterion ~infos in
        Alcotest.(check string) "ranks" "1,3,2" (ints out.Ss_framework.ranks);
        Alcotest.(check string) "engine ledger"
          "mults=411 rounds=39 elements=4632 opens=183 randoms=177 field_mults=20790"
          (costs_string out.Ss_framework.costs.Ss_framework.engine));
  ]

(* {1 Compare.ge opened values and shares} *)

let compare_tests =
  [
    Alcotest.test_case "Compare.ge opened-value sequence" `Quick (fun () ->
        let f = Zfield.create Ppgr_group.Modp_params.test_64 in
        let rng = Rng.create ~seed:"golden-compare" in
        let e = Engine.create rng f ~n:5 in
        let prm = Compare.default_params ~l:10 () in
        let opened = ref [] and shares = ref [] in
        for _ = 1 to 6 do
          let x = Rng.int_below rng 1024 and y = Rng.int_below rng 1024 in
          let b = Compare.ge e prm (Engine.input e (bi x)) (Engine.input e (bi y)) in
          shares := share_ints f b @ !shares;
          opened := Bigint.to_string (Engine.open_ e b) :: !opened;
          (* A fresh joint random pins the RNG position after each
             comparison. *)
          opened := Bigint.to_string (Engine.open_ e (Engine.random e)) :: !opened
        done;
        Alcotest.(check string) "opened"
          "0 2745432788750775529 0 8471316887464192306 1 3219204335092661870 1 \
           4499748183500056002 1 1005401221754054718 0 4631586614486280801"
          (String.concat " " (List.rev !opened));
        Alcotest.(check string) "shares digest"
          "c8b5ce8ef5705f4157812442b19c928f609bcb6f8636d6f2d40e00e6234deb7a"
          (hex_of_strings (List.rev !shares));
        Alcotest.(check string) "ledger"
          "mults=516 rounds=84 elements=23088 opens=324 randoms=312 field_mults=99825"
          (costs_string (Engine.costs e)));
  ]

let () =
  Alcotest.run "golden"
    [
      ("shard", shard_tests);
      ("phase1", phase1_tests);
      ("ss-framework", ss_framework_tests);
      ("compare", compare_tests);
    ]
