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

(* {1 Transport goldens: stop-and-wait and window=4}

   The eight window-stressing scenarios of [test_chaos], plus one run
   that aborts, on ECC-160 (n = 4 with a tie, l = 5, retry budget 8).
   The values were recorded before the sliding-window engine was folded
   into the single delivery loop; both clocks must reproduce them byte
   for byte.  A completed run pins its digest, ranks, link clock,
   recovery counters, physical totals and a hash of the per-link
   tallies; an aborted one its forensics digest, step, link and attempt
   count.  [dup_suppressed] is pinned once per scenario, to the
   stop-and-wait value: every suppressed copy crossed the wire under
   either clock, so the window must count the same ones. *)

module Transport_golden (G : Ppgr_group.Group_intf.GROUP) = struct
  module RT = Runtime.Make (G)

  let betas = Array.map bi [| 9; 3; 14; 3 |]

  let links_sha (ls : Transport.link list) =
    let s =
      String.concat ";"
        (List.map
           (fun lk ->
             Printf.sprintf "%d-%d:%d/%d/%d" lk.Transport.lk_src lk.Transport.lk_dst
               lk.Transport.lk_msgs lk.Transport.lk_bytes lk.Transport.lk_retrans)
           ls)
    in
    String.sub (Sha256.hex_of_digest (Sha256.digest_string s)) 0 16

  (* The pinned fields of one run, and its [dup_suppressed] (-1 on an
     abort). *)
  let summary ?window spec =
    let faults = Ppgr_mpcnet.Faultplan.spec_of_string spec in
    let rng = Rng.create ~seed:"chaos-protocol" in
    match RT.run ?window ~faults ~retry_budget:8 rng ~l:5 ~betas with
    | st ->
        ( Printf.sprintf
            "%s ranks=%s sim=%d backoff=%d acks=%d ack_bytes=%d retrans=%d drops=%d \
             crc=%d phys=%d/%d links=%s"
            st.RT.transcript_sha (ints st.RT.ranks) st.RT.sim_ticks st.RT.backoff_ticks
            st.RT.acks_sent st.RT.ack_bytes st.RT.retransmits st.RT.drops
            st.RT.crc_rejects st.RT.phys_messages st.RT.phys_bytes (links_sha st.RT.links),
          st.RT.dup_suppressed )
    | exception Transport.Party_dropped f ->
        ( Printf.sprintf "abort %s step=%s link=%d->%d attempts=%d" f.Transport.fr_digest
            f.Transport.fr_step f.Transport.fr_src f.Transport.fr_dst
            f.Transport.fr_attempts,
          -1 )

  let case name spec ~sw ~w4 ~dup =
    Alcotest.test_case name `Quick (fun () ->
        let s1, d1 = summary spec in
        let s4, d4 = summary ~window:(Transport.winspec_of_string "window=4,rto=4") spec in
        Alcotest.(check string) "stop-and-wait" sw s1;
        Alcotest.(check string) "window=4" w4 s4;
        Alcotest.(check int) "dup_suppressed, stop-and-wait" dup d1;
        Alcotest.(check int) "dup_suppressed, window=4" dup d4)
end

module G_ecc160 = (val Ppgr_group.Ec_group.ecc_160 () : Ppgr_group.Group_intf.GROUP)
module Tg = Transport_golden (G_ecc160)

let clean_sha = "e8c33cd0a3eee3393c91e62629a52b70cef607a1a425af95bdcd5f77a02944f7"

let transport_tests =
  [
    Tg.case "calm-baseline" "seed=calm" ~dup:0
      ~sw:(clean_sha ^ " ranks=2,3,1,3 sim=46 backoff=0 acks=0 ack_bytes=0 retrans=0 drops=0 crc=0 phys=46/30604 links=e2e1ef45ece363e6")
      ~w4:(clean_sha ^ " ranks=2,3,1,3 sim=8 backoff=0 acks=46 ack_bytes=782 retrans=0 drops=0 crc=0 phys=46/30604 links=e2e1ef45ece363e6");
    Tg.case "drop-moderate" "drop=0.2,seed=chaos-2" ~dup:0
      ~sw:(clean_sha ^ " ranks=2,3,1,3 sim=64 backoff=18 acks=0 ack_bytes=0 retrans=12 drops=12 crc=0 phys=46/30604 links=86f1360d3cccca11")
      ~w4:(clean_sha ^ " ranks=2,3,1,3 sim=48 backoff=48 acks=46 ack_bytes=782 retrans=12 drops=12 crc=0 phys=46/30604 links=86f1360d3cccca11");
    Tg.case "reorder-heavy" "reorder=0.5,seed=chaos-12" ~dup:41
      ~sw:"66b6c1fafb330c82d2cdf081a5a41536c6c795f8e82c3a0850e440c704e63618 ranks=2,3,1,3 sim=177 backoff=90 acks=0 ack_bytes=0 retrans=41 drops=0 crc=0 phys=87/50355 links=03fe8166f4191029"
      ~w4:"66b6c1fafb330c82d2cdf081a5a41536c6c795f8e82c3a0850e440c704e63618 ranks=2,3,1,3 sim=98 backoff=164 acks=46 ack_bytes=782 retrans=41 drops=0 crc=0 phys=87/50355 links=03fe8166f4191029";
    Tg.case "delay-moderate" "delay=0.3,maxdelay=4,seed=chaos-13" ~dup:0
      ~sw:(clean_sha ^ " ranks=2,3,1,3 sim=86 backoff=40 acks=0 ack_bytes=0 retrans=0 drops=0 crc=0 phys=46/30604 links=e2e1ef45ece363e6")
      ~w4:(clean_sha ^ " ranks=2,3,1,3 sim=29 backoff=0 acks=46 ack_bytes=782 retrans=0 drops=0 crc=0 phys=46/30604 links=e2e1ef45ece363e6");
    Tg.case "delay-heavy" "delay=0.8,maxdelay=16,seed=chaos-14" ~dup:0
      ~sw:(clean_sha ^ " ranks=2,3,1,3 sim=327 backoff=281 acks=0 ack_bytes=0 retrans=0 drops=0 crc=0 phys=46/30604 links=e2e1ef45ece363e6")
      ~w4:(clean_sha ^ " ranks=2,3,1,3 sim=97 backoff=0 acks=46 ack_bytes=782 retrans=0 drops=0 crc=0 phys=46/30604 links=e2e1ef45ece363e6");
    Tg.case "drop-delay" "drop=0.3,delay=0.3,maxdelay=4,seed=chaos-19" ~dup:0
      ~sw:(clean_sha ^ " ranks=2,3,1,3 sim=122 backoff=76 acks=0 ack_bytes=0 retrans=20 drops=20 crc=0 phys=46/30604 links=c177e8871c44ec50")
      ~w4:(clean_sha ^ " ranks=2,3,1,3 sim=57 backoff=80 acks=46 ack_bytes=782 retrans=20 drops=20 crc=0 phys=46/30604 links=c177e8871c44ec50");
    Tg.case "loss-trio" "drop=0.05,dup=0.05,reorder=0.05,seed=chaos-16" ~dup:12
      ~sw:"f257eaffb245675085df1d7e7123dd53e17a36fe818696f60f14de0c31992792 ranks=2,3,1,3 sim=64 backoff=6 acks=0 ack_bytes=0 retrans=6 drops=1 crc=0 phys=58/36435 links=60e343c04f0dcd35"
      ~w4:"f257eaffb245675085df1d7e7123dd53e17a36fe818696f60f14de0c31992792 ranks=2,3,1,3 sim=30 backoff=24 acks=46 ack_bytes=782 retrans=6 drops=1 crc=0 phys=58/36435 links=60e343c04f0dcd35";
    Tg.case "all-faults-moderate"
      "drop=0.1,corrupt=0.1,dup=0.1,reorder=0.1,delay=0.1,maxdelay=8,seed=chaos-18" ~dup:11
      ~sw:"ef9d102fae5c5bf44f6db2f38864135ad41f0d2126f0693ddeb54610c71ed446 ranks=2,3,1,3 sim=129 backoff=66 acks=0 ack_bytes=0 retrans=20 drops=9 crc=6 phys=63/54266 links=7681adc318d4f027"
      ~w4:"ef9d102fae5c5bf44f6db2f38864135ad41f0d2126f0693ddeb54610c71ed446 ranks=2,3,1,3 sim=82 backoff=80 acks=46 ack_bytes=782 retrans=20 drops=9 crc=6 phys=63/54266 links=7681adc318d4f027";
    (let abort =
       "abort 4cd38b400cc71382cc980948a22a94956fe61309bd5197ef1330df5472af2825 step=ring link=3->0 attempts=9"
     in
     Tg.case "perfect-storm (aborts)"
       "drop=0.25,corrupt=0.25,dup=0.2,reorder=0.2,seed=chaos-21" ~dup:(-1) ~sw:abort
       ~w4:abort);
  ]

let () =
  Alcotest.run "golden"
    [
      ("shard", shard_tests);
      ("phase1", phase1_tests);
      ("ss-framework", ss_framework_tests);
      ("compare", compare_tests);
      ("transport", transport_tests);
    ]
