(* The three benchmark workloads and one ranking session over the public
   entry points: inputs -> Phase1.run -> Runtime.run (monolithic ring)
   or Shard.run (sharded rings + secret-shared top-k merge).

   Each entry point is called from exactly one place in this file
   ([phase1], [ring], [sharded] below), so an API change in the library
   touches one line here. *)

open Ppgr_bigint
open Ppgr_grouprank
module Rng = Ppgr_rng.Rng
module Netsim = Ppgr_mpcnet.Netsim
module Topology = Ppgr_mpcnet.Topology
module Faultplan = Ppgr_mpcnet.Faultplan
module Engine = Ppgr_shamir.Engine
module Zfield = Ppgr_dotprod.Zfield

(* l = h + partial_gain_bits spec = 6 + 14 = 20 on every workload. *)
let spec = Attrs.spec ~m:2 ~t:1 ~d1:4 ~d2:2
let h = 6

type mode =
  | Ring of { lossy : bool; window : int }
  | Sharded of { shard_size : int; k : int; committee : int }

type t = {
  name : string;
  group : unit -> Ppgr_group.Group_intf.group;
  field_modulus : Bigint.t; (* the group's Montgomery ring, for unit costs *)
  n : int;
  mode : mode;
}

let all =
  [
    {
      name = "ring-dl1024";
      group = Ppgr_group.Dl_group.dl_1024;
      field_modulus = Ppgr_group.Modp_params.p_1024;
      n = 4;
      mode = Ring { lossy = false; window = 1 };
    };
    {
      name = "ring-ecc160-lossy";
      group = Ppgr_group.Ec_group.ecc_160;
      field_modulus = Ppgr_group.Ec_params.secp160r1.Ppgr_group.Ec_curve.p;
      n = 8;
      mode = Ring { lossy = true; window = 4 };
    };
    {
      name = "sharded-topk";
      group = Ppgr_group.Ec_group.ecc_160;
      field_modulus = Ppgr_group.Ec_params.secp160r1.Ppgr_group.Ec_curve.p;
      n = 16;
      mode = Sharded { shard_size = 4; k = 2; committee = 5 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---- Inputs: a pure function of (workload, seed, input index) ---- *)

type inputs = {
  label : string; (* names the input set; derives every seed below *)
  criterion : Attrs.criterion;
  infos : Attrs.info array;
}

let inputs w ~seed ~index =
  let label = Printf.sprintf "%s/seed-%d/input-%d" w.name seed index in
  let rng = Rng.create ~seed:("perfbench-inputs/" ^ label) in
  let criterion = Attrs.random_criterion rng spec in
  let infos = Array.init w.n (fun _ -> Attrs.random_info rng spec) in
  { label; criterion; infos }

(* The lossy workload's fault plan: fixed rates, seed derived from the
   input set so it varies with the workload seed. *)
let faults_for inp =
  Faultplan.spec_of_string
    ("drop=0.08,corrupt=0.04,dup=0.04,reorder=0.04,delay=0.3,maxdelay=8,seed=perfbench-faults/"
   ^ inp.label)

(* ---- What one session reports ---- *)

type transport = {
  logical_bytes : int;
  phys_bytes : int;
  phys_messages : int;
  retransmits : int;
  drops : int;
  crc_rejects : int;
  dup_suppressed : int;
  backoff_ticks : int;
  acks : int;
}

type outcome = {
  wrong : string option; (* the oracle's verdict; None = correct *)
  digest : string; (* transcript digest of the ring / sharded run *)
  net_ticks : int;
  net_s : float;
  wire_bytes : int;
  tr : transport;
  phase1_field_mults : int;
  merge : (int * Engine.costs) option; (* candidates, merge ledger *)
}

(* ---- The correctness oracle ---- *)

(* 1 + the number of strictly greater betas: the protocol's rank. *)
let clear_ranks (betas : Bigint.t array) =
  Array.map
    (fun b ->
      Array.fold_left (fun acc b' -> if Bigint.compare b' b > 0 then acc + 1 else acc) 1 betas)
    betas

let check_ranks ~what ~expect ~got =
  if expect = got then None
  else
    let show a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
    Some (Printf.sprintf "%s: ranks %s, clear argsort %s" what (show got) (show expect))

(* [winners] must be k ids whose betas are all >= every loser's: the
   clear top-k, with any tie at the cut resolved either way. *)
let check_top_k ~k ~(betas : Bigint.t array) ~(winners : int array) =
  let is_winner p = Array.exists (( = ) p) winners in
  let losers = List.filter (fun p -> not (is_winner p)) (List.init (Array.length betas) Fun.id) in
  let sound =
    Array.for_all
      (fun w -> List.for_all (fun p -> Bigint.compare betas.(w) betas.(p) >= 0) losers)
      winners
  in
  if Array.length winners = k && sound then None
  else Some "sharded: winners are not the clear top-k of the betas"

let first_some l = List.find_map Fun.id l

(* ---- The network of net_s ---- *)

(* Monolithic sessions replay their schedule on one fixed instance of
   the paper's random 80-node / 320-edge graph, with the parties placed
   on distinct nodes drawn from the workload seed; net_s is the mean
   over [placements] such draws, which keeps one unlucky placement from
   dominating a run. *)
let placements = 8

let random_placements ~nodes ~parties label =
  let rng = Rng.create ~seed:("perfbench-placement/" ^ label) in
  Array.init placements (fun _ ->
      let perm = Array.init nodes Fun.id in
      Rng.shuffle rng perm;
      Array.sub perm 0 parties)

(* ---- Setup and sessions, per group ---- *)

type env = {
  session : inputs -> float * outcome;
      (* wall time of inputs -> every party holding its rank, and the
         session's checked outcome *)
  group_name : string;
  probes : (string * (unit -> int)) list;
      (* group multiplications and logical exponentiations, for the
         traced run's span attributes *)
  unit_ops : Units.ops; (* the group's single operations, for unit costs *)
}

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  module E = Ppgr_elgamal.Elgamal.Make (G)
  module R = Runtime.Make (G)
  module S = Shard.Make (G)

  (* The single call site of each public entry point. *)
  let phase1 rng cfg (inp : inputs) =
    Phase1.run rng cfg ~criterion:inp.criterion ~infos:inp.infos

  let ring ?faults ?window ~session rng ~l ~betas =
    R.run ?faults ?window ~session rng ~l ~betas

  let sharded ~shard_size ~committee ~k rng ~l ~betas =
    S.run ~shard_size ~committee ~k rng ~l ~betas

  (* Phase 1's masked gains against their plaintext reference. *)
  let check_phase1 cfg (inp : inputs) (secrets, inter) =
    first_some
      (Array.to_list
         (Array.mapi
            (fun j (it : Phase1.interaction) ->
              let expect =
                Phase1.reference_beta cfg ~criterion:inp.criterion ~secrets ~j ~info:inp.infos.(j)
              in
              if Bigint.equal expect it.Phase1.beta_signed then None
              else Some (Printf.sprintf "phase1: beta of party %d is wrong" j))
            inter))

  let ring_outcome ~topo ~placements ~betas (st : R.stats) =
    let sched = st.R.net_rounds in
    let sched_bytes =
      List.fold_left
        (fun a (r : Netsim.round) ->
          List.fold_left (fun a (m : Netsim.message) -> a + m.Netsim.bytes) a r.Netsim.messages)
        0 sched
    in
    {
      wrong = check_ranks ~what:"ring" ~expect:(clear_ranks betas) ~got:st.R.ranks;
      digest = st.R.transcript_sha;
      net_ticks = st.R.sim_ticks;
      net_s =
        Stats.mean (Array.map (fun placement -> (Netsim.run topo ~placement sched).Netsim.elapsed_s) placements);
      wire_bytes = sched_bytes + st.R.ack_bytes;
      tr =
        {
          logical_bytes = st.R.bytes_on_wire;
          phys_bytes = st.R.phys_bytes;
          phys_messages = st.R.phys_messages;
          retransmits = st.R.retransmits;
          drops = st.R.drops;
          crc_rejects = st.R.crc_rejects;
          dup_suppressed = st.R.dup_suppressed;
          backoff_ticks = st.R.backoff_ticks;
          acks = st.R.acks_sent;
        };
      phase1_field_mults = 0;
      merge = None;
    }

  (* [Shard.result] exposes no per-shard transport stats.  Its fan-in
     schedule starts with the shards' own physical rounds (overlaid),
     followed by the merge: one fan-in round, [max 1 c_rounds]
     committee rounds and one winner announcement.  The shards run the
     clean stop-and-wait transport, which charges one simulated tick per
     transmission, so the shards' summed [sim_ticks] is the message
     count of that leading part. *)
  let sharded_outcome ~k ~betas (res : Shard.result) =
    let plan = res.Shard.plan in
    let costs = res.Shard.merge.Shard.merge_costs in
    let merge_rounds = 2 + Stdlib.max 1 costs.Engine.c_rounds in
    let shard_rounds = List.length res.Shard.schedule - merge_rounds in
    let intra = List.filteri (fun i _ -> i < shard_rounds) res.Shard.schedule in
    let count f sched =
      List.fold_left
        (fun a (r : Netsim.round) -> List.fold_left (fun a m -> a + f m) a r.Netsim.messages)
        0 sched
    in
    let msgs = count (fun _ -> 1) intra and bytes = count (fun m -> m.Netsim.bytes) intra in
    let local_wrong =
      first_some
        (Array.to_list
           (Array.mapi
              (fun i members ->
                let sub = Array.map (fun p -> betas.(p)) members in
                check_ranks
                  ~what:(Printf.sprintf "shard %d" i)
                  ~expect:(clear_ranks sub)
                  ~got:(Array.map (fun p -> res.Shard.local_ranks.(p)) members))
              plan.Shard.members))
    in
    {
      wrong = first_some [ local_wrong; check_top_k ~k ~betas ~winners:res.Shard.winners ];
      digest = res.Shard.transcript_sha;
      net_ticks = msgs;
      net_s = (S.simulate_fan_in res).Netsim.elapsed_s;
      wire_bytes = count (fun m -> m.Netsim.bytes) res.Shard.schedule;
      tr =
        {
          logical_bytes =
            Array.fold_left (fun a (s : Shard.shard_stat) -> a + s.Shard.shard_bytes) 0 res.Shard.shard_stats;
          phys_bytes = bytes;
          phys_messages = msgs;
          retransmits = 0;
          drops = 0;
          crc_rejects = 0;
          dup_suppressed = 0;
          backoff_ticks = 0;
          acks = 0;
        };
      phase1_field_mults = 0;
      merge = Some (Array.length res.Shard.merge.Shard.candidates, costs);
    }

  (* Set-up: the group's first generator table and a key table (built
     lazily otherwise), the phase-1 field and, for a monolithic ring,
     Runtime.make_session and the 80-node topology with its routing.
     Sharded runs build their ring sessions and fan-in tree per call. *)
  let prepare (w : t) ~seed =
    ignore (G.pow_gen (Bigint.of_int 3));
    let _, pub = E.keygen (Rng.create ~seed:"perfbench-setup-key") in
    ignore (E.keytable pub);
    Ppgr_exec.Pool.parallel_for 2 ignore;
    let cfg = Phase1.config ~spec ~h () in
    let l = Phase1.beta_bits cfg in
    let field = cfg.Phase1.field in
    (* [rank inp rng betas] runs phase 2 and returns the (untimed)
       checks and network replay of its result. *)
    let rank =
      match w.mode with
      | Ring { lossy; window } ->
          let session = R.make_session ~n:w.n ~l in
          let topo =
            Topology.random_connected (Rng.create ~seed:"perfbench-topology") ~nodes:80 ~edges:320 ()
          in
          ignore (Topology.routing topo);
          let placements =
            random_placements ~nodes:80 ~parties:w.n (Printf.sprintf "%s/seed-%d" w.name seed)
          in
          let window =
            if window > 1 then Some (Transport.winspec_of_string (Printf.sprintf "window=%d" window))
            else None
          in
          fun inp rng betas ->
            let faults = if lossy then Some (faults_for inp) else None in
            let st = ring ?faults ?window ~session rng ~l ~betas in
            fun () -> ring_outcome ~topo ~placements ~betas st
      | Sharded { shard_size; k; committee } ->
          fun _ rng betas ->
            let res = sharded ~shard_size ~committee ~k rng ~l ~betas in
            fun () -> sharded_outcome ~k ~betas res
    in
    let run (inp : inputs) =
      let rng = Rng.create ~seed:("perfbench-protocol/" ^ inp.label) in
      let fm0 = Zfield.mult_count field in
      let t0 = Unix.gettimeofday () in
      let ((_, inter) as gains) = phase1 rng cfg inp in
      let outcome = rank inp rng (Array.map (fun (it : Phase1.interaction) -> it.Phase1.beta_unsigned) inter) in
      let dt = Unix.gettimeofday () -. t0 in
      let o = outcome () in
      ( dt,
        {
          o with
          wrong = first_some [ check_phase1 cfg inp gains; o.wrong ];
          phase1_field_mults = Zfield.mult_count field - fm0;
        } )
    in
    {
      session = run;
      group_name = G.name;
      probes =
        [ ("group_mults", G.op_count); ("exps", Ppgr_group.Opmeter.count) ];
      unit_ops = Units.of_group (module G) ~field_modulus:w.field_modulus ~merge_l:l;
    }
end

let prepare w ~seed =
  let (module G) = w.group () in
  let module M = Make (G) in
  M.prepare w ~seed
