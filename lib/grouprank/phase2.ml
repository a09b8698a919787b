(** Phase 2 — the identity-unlinkable multiparty sorting protocol
    (Fig. 1 steps 5–8), the paper's core contribution.

    Each participant [P_j] holds an [l]-bit unsigned masked gain
    [beta_j].  The protocol gives every participant the rank of its own
    value — and nothing else — in [O(n)] communication rounds:

    + {b Keys} (step 5): each participant picks an ElGamal key pair for
      the shared group and proves knowledge of its secret key to the
      [n-1] others with the multi-verifier Schnorr proof; the joint
      public key is [y = Π y_j], whose secret key nobody knows.
    + {b Bitwise encryption} (step 6): each participant publishes the
      bit-by-bit exponential-ElGamal encryption of [beta_j] under [y].
    + {b Blind comparison} (step 7): for every other participant [P_i],
      [P_j] homomorphically evaluates on [E(beta_i)] — using its own
      bits in the clear — the circuit
      [gamma^b = beta_j^b XOR beta_i^b],
      [omega^b = (l-b)(1 - gamma^b) + Σ_{v>b} gamma^v],
      [tau^b = omega^b + beta_j^b]:
      the [tau] vector contains a 0 iff [beta_j < beta_i] (at most one).
      The suffix sums make the circuit O(l) homomorphic operations per
      pair instead of the naive O(l^2) (see the ablation bench).
      All of [P_j]'s ciphertext sets go to [P_1].
    + {b Decryption ring} (step 8): [P_1 .. P_n] each in turn partially
      decrypt every ciphertext of every set not their own, raise both
      components to a fresh random exponent (so non-zero plaintexts are
      randomized while zeros stay zero), and permute each set; [P_n]
      returns each set to its owner.
    + {b Counting}: [P_j] strips its own key layer from its set and
      counts zero plaintexts ([g^m = 1]); its rank is [count + 1].

    Identity unlinkability comes from the per-set permutations: an
    adversary controlling up to [n-2] parties cannot link a plaintext
    zero back to the comparison that produced it. *)

open Ppgr_bigint
open Ppgr_rng
open Ppgr_mpcnet
module Trace = Ppgr_obs.Trace

module Make (G : Ppgr_group.Group_intf.GROUP) = struct
  module E = Ppgr_elgamal.Elgamal.Make (G)
  module Z = Ppgr_zkp.Schnorr.Make (G)
  module W = Wire.Make (G)

  let scalar_bytes = (Bigint.numbits G.order + 7) / 8

  type result = {
    ranks : int array; (* 1-based; index = participant *)
    per_party_ops : int array; (* group operations by each participant *)
    per_party_exps : int array; (* full-size exponentiations per party *)
    schedule : Cost.schedule;
    zkp_ok : bool array array; (* zkp_ok.(verifier).(prover) *)
    zero_flags : bool array array;
        (* zero_flags.(j).(c): whether ciphertext c of P_j's returned
           (post-permutation) set decrypted to zero — exposed so the
           security-game tests can check the permutations leave zero
           positions uniform. *)
  }

  (* Track each party's group operations and full exponentiations by
     snapshotting the global meters around that party's local
     computation.  Parties still execute one at a time in this
     simulation; a party's own hot loops may fan out over the domain
     pool, whose per-domain meter lanes all land in the same party's
     delta.  Each delta is additionally recorded as one tracer span
     named after the step and attributed to the party — these spans
     tile the phase's computation, so the summary table's column sums
     equal the global meters. *)
  let with_party2 ?(step = "step") ?(attrs = []) ops exps j f =
    Trace.with_span ~attrs:(("party", Trace.Int j) :: attrs) ("phase2." ^ step)
      (fun () ->
        let before = G.op_snapshot () in
        let before_e = Ppgr_group.Opmeter.snapshot () in
        let r = f () in
        ops.(j) <- ops.(j) + G.ops_since before;
        exps.(j) <- exps.(j) + Ppgr_group.Opmeter.since before_e;
        r)

  (* The homomorphic identity E(0) with zero randomness; a valid
     starting point for homomorphic sums. *)
  let enc_zero = { E.c = G.identity; c' = G.identity }

  (** The step-7 circuit: [P_j]'s comparison of its clear bits against
      [P_i]'s encrypted bits.  Returns the [l] ciphertexts [E(tau^b)].
      [naive_omega] recomputes each suffix sum from scratch (the paper's
      O(l^2) accounting), for the ablation bench. *)
  let compare_circuit ?(naive_omega = false) ~l ~own_bits (enc_bits : E.cipher array) =
    if Array.length enc_bits <> l then invalid_arg "Phase2.compare_circuit: bad length";
    (* gamma^b = own XOR other: linear because own bits are clear. *)
    let gamma =
      Array.init l (fun b ->
          if own_bits.(b) = 0 then enc_bits.(b)
          else E.add_clear (E.neg enc_bits.(b)) Bigint.one)
    in
    let suffix b =
      (* Σ_{v>b} gamma^v *)
      let acc = ref enc_zero in
      for v = b + 1 to l - 1 do
        acc := E.add !acc gamma.(v)
      done;
      !acc
    in
    let suffixes =
      if naive_omega then Array.init l suffix
      else begin
        (* One pass from the top: S_{l-1} = 0, S_b = S_{b+1} + gamma_{b+1}. *)
        let s = Array.make l enc_zero in
        for b = l - 2 downto 0 do
          s.(b) <- E.add s.(b + 1) gamma.(b + 1)
        done;
        s
      end
    in
    Array.init l (fun b ->
        (* omega^b = (l-b)(1-gamma^b) + S_b;  tau^b = omega^b + own bit. *)
        (* For an own bit of 1, gamma^b = 1 - e^b, so 1 - gamma^b is
           the announced ciphertext itself. *)
        let one_minus =
          if own_bits.(b) = 0 then E.add_clear (E.neg gamma.(b)) Bigint.one
          else enc_bits.(b)
        in
        let omega = E.add (E.scale_int one_minus (l - b)) suffixes.(b) in
        if own_bits.(b) = 0 then omega else E.add_clear omega Bigint.one)

  (* Stream labels for the per-task Rng.split calls are preformatted
     once per run and shared across parties/hops: the strings are
     byte-identical to the Printf-formatted originals (asserted by the
     golden transcript test), so every derived stream — and hence every
     rank and ciphertext — is unchanged, but the hot loops no longer
     pay a Printf per task. *)
  let index_labels prefix n = Array.init n (fun i -> prefix ^ string_of_int i)

  (** Step-6 unit: the bitwise encryption of one party's masked gain.
      Bit [b] encrypts under its own child stream of [rng] keyed by
      position, so the bits fan out over the domain pool with a
      transcript independent of the job count. *)
  let encrypt_bits rng ~labels tbl (bits : int array) =
    let bit_rngs =
      Array.init (Array.length bits) (fun b -> Rng.split rng ~label:labels.(b))
    in
    Ppgr_exec.Pool.parallel_init (Array.length bits) (fun b ->
        E.encrypt_exp_int_with bit_rngs.(b) tbl bits.(b))

  (** Step-7 unit: [P_self]'s comparison circuits against every other
      party's encrypted bits.  The circuit is a deterministic
      homomorphic evaluation, so the [n-1] pairs are embarrassingly
      parallel. *)
  let compare_all ?(naive_omega = false) ~l ~own_bits ~self
      (all_enc_bits : E.cipher array array) =
    Ppgr_exec.Pool.parallel_init (Array.length all_enc_bits) (fun i ->
        if i = self then None
        else Some (compare_circuit ~naive_omega ~l ~own_bits all_enc_bits.(i)))

  (** Step-8 unit: one ring hop over one owner's set — strip a key
      layer and blind every slot, then permute.  Each slot draws from
      its own child stream of [rng] keyed by position; the final
      shuffle draws from [rng] itself, which the splits leave
      undisturbed. *)
  let blind_set rng ~labels secret (set : E.cipher array) =
    let slot_rngs =
      Array.init (Array.length set) (fun c -> Rng.split rng ~label:labels.(c))
    in
    Ppgr_exec.Pool.parallel_for (Array.length set) (fun c ->
        set.(c) <- E.partial_decrypt_blind slot_rngs.(c) secret set.(c));
    Rng.shuffle rng set

  (* Per-party in/out byte tallies of one round's messages, recorded as
     instant wire spans so the trace carries the paper's per-step
     communication breakdown next to the computation spans. *)
  let record_wire ?(attrs = []) ~step ~n (messages : Netsim.message list) =
    if Trace.enabled () then
      for j = 0 to n - 1 do
        let out = ref 0 and inb = ref 0 in
        List.iter
          (fun (m : Netsim.message) ->
            if m.Netsim.src = j then out := !out + m.Netsim.bytes;
            if m.Netsim.dst = j then inb := !inb + m.Netsim.bytes)
          messages;
        if !out > 0 || !inb > 0 then
          Trace.instant
            ~attrs:
              ([
                 ("party", Trace.Int j);
                 ("bytes_out", Trace.Int !out);
                 ("bytes_in", Trace.Int !inb);
               ]
              @ attrs)
            ("phase2." ^ step ^ ".wire")
      done

  let run ?(naive_omega = false) ?shard rng ~l ~(betas : Bigint.t array)
      : result =
    let n = Array.length betas in
    if n = 0 then invalid_arg "Phase2.run: no participants";
    Array.iter
      (fun b ->
        if Bigint.sign b < 0 || Bigint.numbits b > l then
          invalid_arg "Phase2.run: beta out of l-bit range")
      betas;
    (* A sharded run tags every span with the shard index so the
       Summary can roll the table up per shard. *)
    let shard_attrs =
      match shard with None -> [] | Some s -> [ ("shard", Trace.Int s) ]
    in
    Trace.with_span
      ~attrs:
        ([ ("group", Trace.Str G.name); ("n", Trace.Int n); ("l", Trace.Int l) ]
        @ shard_attrs)
      "phase2"
    @@ fun () ->
    let ops = Array.make n 0 in
    let exps = Array.make n 0 in
    let with_party ~step ops j f =
      with_party2 ~step ~attrs:shard_attrs ops exps j f
    in
    let schedule = ref [] in
    let round ~step ~critical_ops messages =
      schedule := { Cost.critical_ops; messages } :: !schedule;
      record_wire ~attrs:shard_attrs ~step ~n messages
    in
    (* Critical-path ops of a step: the largest per-party op delta since
       the snapshot taken before the step. *)
    let snap () = Array.copy ops in
    let crit_since s =
      let m = ref 0 in
      Array.iteri (fun j v -> if v - s.(j) > !m then m := v - s.(j)) ops;
      !m
    in
    let party_labels = index_labels "party-" n in
    let party_rngs = Array.init n (fun j -> Rng.split rng ~label:party_labels.(j)) in
    (* All hot-loop split labels, preformatted once for the whole run. *)
    let enc_labels = index_labels "enc-bit-" l in
    let blind_labels = index_labels "blind-" ((n - 1) * l) in
    let hop_owner_labels = index_labels "hop-owner-" n in
    if n = 1 then
      {
        ranks = [| 1 |];
        per_party_ops = ops;
        per_party_exps = exps;
        schedule = [];
        zkp_ok = [| [| true |] |];
        zero_flags = [| [||] |];
      }
    else begin
      (* Step 5: key generation and knowledge proofs. *)
      let s0 = snap () in
      let keys =
        Array.init n (fun j ->
            with_party ~step:"keys" ops j (fun () -> E.keygen party_rngs.(j)))
      in
      let pubs = Array.map snd keys in
      round ~step:"keys" ~critical_ops:(crit_since s0)
        (Netsim.all_broadcast ~parties:n ~bytes:G.element_bytes);
      let s1 = snap () in
      let transcripts =
        Array.init n (fun j ->
            with_party ~step:"zkp.prove" ops j (fun () ->
                Z.prove_interactive party_rngs.(j) ~secret:(fst keys.(j))
                  ~statement:pubs.(j) ~n_verifiers:(n - 1)))
      in
      (* Commitment, challenges, response: three broadcast rounds. *)
      round ~step:"zkp.commit" ~critical_ops:(crit_since s1)
        (Netsim.all_broadcast ~parties:n ~bytes:G.element_bytes);
      round ~step:"zkp.challenge" ~critical_ops:0
        (Netsim.all_broadcast ~parties:n ~bytes:scalar_bytes);
      round ~step:"zkp.response" ~critical_ops:0
        (Netsim.all_broadcast ~parties:n ~bytes:scalar_bytes);
      let s2 = snap () in
      let zkp_ok =
        Array.init n (fun verifier ->
            Array.init n (fun prover ->
                if verifier = prover then true
                else
                  with_party ~step:"zkp.verify" ops verifier (fun () ->
                      Z.verify_transcript ~statement:pubs.(prover) transcripts.(prover))))
      in
      (* Every party forms the joint key itself (n-1 multiplications,
         attributed to that party) and builds one fixed-base table for
         it; the table serves all l step-6 encryptions. *)
      let joint_tbls =
        Array.init n (fun j ->
            with_party ~step:"joint_key" ops j (fun () ->
                E.keytable (E.joint_pubkey (Array.to_list pubs))))
      in
      (* Step 6: bitwise encryption of own beta under the joint key. *)
      let bits = Array.map (fun b -> Bigint.bits_of b ~width:l) betas in
      let enc_bits =
        Array.init n (fun j ->
            with_party ~step:"encrypt" ops j (fun () ->
                encrypt_bits party_rngs.(j) ~labels:enc_labels joint_tbls.(j)
                  bits.(j)))
      in
      round ~step:"encrypt" ~critical_ops:(crit_since s2)
        (Netsim.all_broadcast ~parties:n ~bytes:(l * E.cipher_bytes));
      (* Step 7: every P_j compares against every other P_i and ships
         the resulting ciphertext sets to P_1 (index 0). *)
      let s3 = snap () in
      let sets =
        (* sets.(j).(i) = ciphertexts of comparison "j vs i" (i <> j),
           owned by j.  The inner option keeps indexing regular. *)
        Array.init n (fun j ->
            with_party ~step:"compare" ops j (fun () ->
                compare_all ~naive_omega ~l ~own_bits:bits.(j) ~self:j enc_bits))
      in
      let per_set_ciphers = (n - 1) * l in
      round ~step:"compare" ~critical_ops:(crit_since s3)
        (List.concat_map
           (fun j ->
             if j = 0 then []
             else Netsim.unicast ~src:j ~dst:0 ~bytes:(per_set_ciphers * E.cipher_bytes))
           (List.init n (fun j -> j)));
      (* Step 8: the decryption ring.  V.(j) is P_j's set: a flat array
         of its (n-1) * l ciphertexts. *)
      let v =
        Array.init n (fun j ->
            Array.concat
              (Array.to_list
                 (Array.map (function Some cs -> cs | None -> [||]) sets.(j))))
      in
      (* Wire accounting for the ring: an intermediate hop ships all n
         sets as ONE framed message (exact serialized size, frame
         header + per-payload length prefixes + n encoded cipher
         batches); the final hop returns each owner's set as one
         cipher-batch message. *)
      let set_msg_bytes = W.cipher_batch_bytes per_set_ciphers in
      let frame_bytes =
        Wire.hop_frame_bytes (List.init n (fun _ -> set_msg_bytes))
      in
      for hop = 0 to n - 1 do
        (* Party [hop] processes every set but its own: the (owner,
           slot) pairs flatten into one index space so the hop
           saturates every domain, not just one owner's l-ish slots.
           Stream derivation is unchanged — splitting never disturbs
           the parent, so hoisting all owner/slot splits ahead of the
           flat pass leaves every derived stream (and the closing
           per-owner shuffles) byte-identical to the nested loops. *)
        let s_hop = snap () in
        let hop_t0 =
          if Ppgr_obs.Hist.enabled () then Unix.gettimeofday () else 0.
        in
        Trace.with_span ~attrs:[ ("hop", Trace.Int hop) ] "phase2.ring.hop"
          (fun () ->
            with_party ~step:"ring" ops hop (fun () ->
                let owners =
                  Array.of_list
                    (List.filter (fun o -> o <> hop) (List.init n Fun.id))
                in
                let orngs =
                  Array.map
                    (fun owner ->
                      Rng.split party_rngs.(hop) ~label:hop_owner_labels.(owner))
                    owners
                in
                let slot_rngs =
                  Array.init
                    (Array.length owners * per_set_ciphers)
                    (fun t ->
                      Rng.split orngs.(t / per_set_ciphers)
                        ~label:blind_labels.(t mod per_set_ciphers))
                in
                let sk = fst keys.(hop) in
                Ppgr_exec.Pool.parallel_for
                  (Array.length owners * per_set_ciphers)
                  (fun t ->
                    let set = v.(owners.(t / per_set_ciphers)) in
                    let c = t mod per_set_ciphers in
                    set.(c) <- E.partial_decrypt_blind slot_rngs.(t) sk set.(c));
                Array.iteri
                  (fun k owner -> Rng.shuffle orngs.(k) v.(owner))
                  owners));
        if Ppgr_obs.Hist.enabled () then
          Ppgr_obs.Hist.record_us Ppgr_obs.Hist.hop_us
            ((Unix.gettimeofday () -. hop_t0) *. 1e6);
        if hop < n - 1 then
          round ~step:"ring" ~critical_ops:(crit_since s_hop)
            (Netsim.unicast ~src:hop ~dst:(hop + 1) ~bytes:frame_bytes)
        else
          (* P_n returns each set to its owner. *)
          round ~step:"ring" ~critical_ops:(crit_since s_hop)
            (List.concat_map
               (fun owner ->
                 if owner = n - 1 then []
                 else
                   Netsim.unicast ~src:(n - 1) ~dst:owner
                     ~bytes:set_msg_bytes)
               (List.init n (fun o -> o)))
      done;
      (* Final counting: strip own layer, count zero plaintexts. *)
      let s4 = snap () in
      let zero_flags =
        Array.init n (fun j ->
            with_party ~step:"count" ops j (fun () ->
                let sk = fst keys.(j) in
                Ppgr_exec.Pool.parallel_map
                  (fun cph -> E.decrypt_exp_is_zero sk cph)
                  v.(j)))
      in
      let ranks =
        Array.map
          (fun flags -> 1 + Array.fold_left (fun acc z -> if z then acc + 1 else acc) 0 flags)
          zero_flags
      in
      round ~step:"count" ~critical_ops:(crit_since s4) [];
      {
        ranks;
        per_party_ops = ops;
        per_party_exps = exps;
        schedule = List.rev !schedule;
        zkp_ok;
        zero_flags;
      }
    end

  (** Total ciphertexts a single participant sends (the paper's
      communication analysis: [l] in step 6 plus [l n (n+1)] over the
      ring). *)
  let ciphertexts_per_party ~n ~l = l + (l * n * (n + 1))
end
