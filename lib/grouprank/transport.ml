(** Reliable delivery over a lossy link layer, between {!Runtime}'s
    parties and {!Ppgr_mpcnet.Faultplan}'s fault schedule.

    A protocol step {!post}s its messages and {!flush}es them: the
    flush delivers each one, in post order, and returns the payloads
    exactly as the receivers accepted them.  Delivery is earned: every
    payload travels in a {!Wire.tag_envelope} envelope carrying a
    per-directed-link sequence number and a CRC-32, and each delivery
    attempt is submitted to the fault plan, which may drop it, flip a
    byte, duplicate it, hold it for reordering, or delay it.  Recovery
    is timeout/retransmit, duplicate and stale arrivals are suppressed
    by sequence number, and a sender that exhausts its retry budget
    raises the typed {!Party_dropped} abort carrying forensics instead
    of hanging.  One attempt loop ({!deliver}) does all of this.

    Accounting is two-level: {e logical} (one message per [post], the
    payload's bytes — the protocol-analysis view the rest of the repo
    reports) stays with the caller; this module owns the {e physical}
    level — every attempt that touches the wire, envelope overhead and
    retransmissions included, tallied per party, per directed link (as
    a {!Ppgr_mpcnet.Netsim.schedule} round per protocol step), and
    folded into a running transcript digest.

    Time is simulated (nothing ever sleeps) on one of two link
    clocks, chosen by the {!winspec} window.  At [window=1] the clock is
    {e serialized}: one tick per wire touch, the capped exponential
    backoff wait before each retransmission, and every injected delay,
    all added up.  At [window>=2] it is {e per-link concurrent}: each
    message costs its own link [1 + rto] per failed attempt plus its
    final attempt (1, [1 + d] for a delay, 2 for a duplicate), a link's
    messages in one flush add up, and the flush charges its slowest
    link.  Under that clock every accepted message also sends one ack
    frame on a clean reverse channel.  The clock never changes a
    transcript byte.  A step posts at most one message per directed
    link, so an in-flight depth above one would never bind: every
    window from 2 up gives the same clock.

    Determinism: the fault schedule is keyed by (link, attempt), the
    protocol bytes are identical at any job count, and delivery runs
    message-at-a-time in post order, so the physical transcript — and
    hence the digest — is byte-identical at [jobs=1] and [jobs=k], and
    under either clock. *)

open Ppgr_mpcnet
module Trace = Ppgr_obs.Trace
module Hist = Ppgr_obs.Hist
module Flightrec = Ppgr_obs.Flightrec
module Sha256 = Ppgr_hash.Sha256

type forensics = {
  fr_step : string; (* protocol step being delivered *)
  fr_src : int;
  fr_dst : int;
  fr_seq : int; (* sequence number of the undeliverable message *)
  fr_attempts : int; (* attempts spent, budget included *)
  fr_events : string list; (* per-attempt fault outcomes, oldest first *)
  fr_recent : string list; (* cross-link event tail, oldest first *)
  fr_flight : Flightrec.event list;
      (* the dropping sender's flight-recorder tail, oldest first *)
  fr_digest : string; (* transcript digest at abort time (hex) *)
}

exception Party_dropped of forensics

let () =
  Printexc.register_printer (function
    | Party_dropped f ->
        Some
          (Printf.sprintf
             "Party_dropped { step=%s; link=%d->%d; seq=%d; attempts=%d; \
              last=%s }"
             f.fr_step f.fr_src f.fr_dst f.fr_seq f.fr_attempts
             (match List.rev f.fr_events with e :: _ -> e | [] -> "-"))
    | _ -> None)

type stats = {
  mutable retransmits : int; (* attempts beyond the first, per message *)
  mutable drops : int; (* attempts the plan vanished *)
  mutable crc_rejects : int; (* corrupted arrivals the receiver refused *)
  mutable dup_suppressed : int; (* duplicate/stale arrivals discarded *)
  mutable reorders : int; (* envelopes held in limbo at least once *)
  mutable delays : int; (* attempts that arrived late *)
  mutable backoff_ticks : int; (* simulated retransmit-timer ticks *)
  mutable phys_messages : int; (* everything that touched the wire *)
  mutable phys_bytes : int;
  mutable acks_sent : int; (* concurrent clock: ack frames emitted *)
  mutable ack_bytes : int;
  mutable sim_ticks : int; (* simulated link clock, serialized or concurrent *)
}

(** {1 Window configuration}

    A [Faultplan.spec]-style grammar: ["window=8,rto=4"].  The window
    selects the link clock — [1] (the default) is the serialized clock,
    anything from 2 to {!max_window} the per-link concurrent one — and
    [rto] is the concurrent clock's retransmission timeout in simulated
    ticks. *)

type winspec = {
  ws_window : int; (* 1 = serialized clock, >= 2 = concurrent *)
  ws_rto : int; (* retransmission timeout, simulated ticks *)
}

let max_window = 32
let winspec_default = { ws_window = 1; ws_rto = 4 }

let winspec_of_string s =
  let parse_field spec kv =
    match String.index_opt kv '=' with
    | None -> invalid_arg ("Transport.winspec: expected key=value, got " ^ kv)
    | Some i ->
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let int () =
          match int_of_string_opt v with
          | Some n -> n
          | None -> invalid_arg ("Transport.winspec: bad integer " ^ v)
        in
        if key = "window" then begin
          let w = int () in
          if w < 1 || w > max_window then
            invalid_arg
              (Printf.sprintf "Transport.winspec: window=%d out of [1,%d]" w max_window);
          { spec with ws_window = w }
        end
        else if key = "rto" then begin
          let r = int () in
          if r < 1 then invalid_arg "Transport.winspec: rto must be >= 1";
          { spec with ws_rto = r }
        end
        else invalid_arg ("Transport.winspec: unknown key " ^ key)
  in
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim s))
  in
  List.fold_left parse_field winspec_default fields

let winspec_to_string ws = Printf.sprintf "window=%d,rto=%d" ws.ws_window ws.ws_rto

(** One entry of the causal ledger: a delivered message's identity
    [(src, dst, seq)] with the wall-clock times, open span ids and
    domain slots of its send and accept.  Kept strictly {e off the
    wire} — never serialized, hashed, or consulted by protocol logic —
    so recording flows cannot perturb transcript digests or RNG
    splitting.  Populated only while tracing is enabled; the exporters
    turn it into Perfetto flow arrows. *)
type flow = {
  fl_src : int;
  fl_dst : int;
  fl_seq : int;
  fl_step : string;
  fl_bytes : int; (* payload bytes (logical) *)
  fl_send_us : float;
  fl_recv_us : float;
  fl_send_span : int;
  fl_recv_span : int;
  fl_send_slot : int;
  fl_recv_slot : int;
}

(** Physical traffic of one directed link. *)
type link = {
  lk_src : int;
  lk_dst : int;
  lk_msgs : int; (* wire touches, retransmissions included *)
  lk_bytes : int;
  lk_retrans : int;
}

(* One posted message awaiting {!flush}, with the causal ledger's send
   endpoint (wall-clock time, open span id, domain slot) captured at
   post time; [None] when tracing was off. *)
type pending = {
  pd_src : int;
  pd_dst : int;
  pd_seq : int;
  pd_payload : Bytes.t;
  pd_send : (float * int * int) option;
}

type t = {
  n : int;
  faults : Faultplan.t option;
  retry_budget : int; (* retransmissions allowed per message *)
  backoff_base : int;
  backoff_cap : int;
  concurrent : bool; (* link clock: per-link concurrent, else serialized *)
  rto : int; (* concurrent clock's retransmission timeout, ticks *)
  mutable kill_after : int; (* abort injection: -1 disabled *)
  send_seq : int array array; (* next seq to assign, per (src, dst) *)
  recv_seq : int array array; (* next seq expected, per (src, dst) *)
  fault_draws : int array array; (* fault-plan draws consumed, per (src, dst) *)
  limbo : (int, Bytes.t list) Hashtbl.t; (* held (reordered) envelopes *)
  mutable posted : pending list; (* awaiting flush, newest first *)
  mutable posted_n : int;
  st : stats;
  phys_sent : int array; (* physical bytes out, per party *)
  phys_received : int array;
  link_msgs : int array array; (* wire touches, per (src, dst) *)
  link_bytes : int array array;
  link_retrans : int array array;
  retrans_by_src : int array; (* retransmissions charged to the sender *)
  env_by_src : int array; (* envelope-overhead bytes, per sender *)
  flight : Flightrec.t; (* always-on recent-event ring, per party *)
  mutable flows_rev : flow list; (* causal ledger; tracing-gated *)
  mutable step : string;
  mutable round_rev : Netsim.message list; (* current step's attempts *)
  mutable rounds_rev : (string * Netsim.message list) list;
  mutable recent_rev : string list; (* rolling cross-link event log *)
  mutable recent_len : int;
  mutable digest : Bytes.t; (* chained transcript digest *)
}

let recent_cap = 32

let create ?faults ?(retry_budget = 8) ?(backoff_base = 1)
    ?(backoff_cap = 64) ?(flight_cap = Flightrec.default_capacity) ?window
    ?(kill_after = -1) ~n () =
  let ws = Option.value ~default:winspec_default window in
  {
    n;
    faults;
    retry_budget;
    backoff_base;
    backoff_cap;
    concurrent = ws.ws_window > 1;
    rto = ws.ws_rto;
    kill_after;
    send_seq = Array.make_matrix n n 0;
    recv_seq = Array.make_matrix n n 0;
    fault_draws = Array.make_matrix n n 0;
    limbo = Hashtbl.create 7;
    posted = [];
    posted_n = 0;
    st =
      {
        retransmits = 0;
        drops = 0;
        crc_rejects = 0;
        dup_suppressed = 0;
        reorders = 0;
        delays = 0;
        backoff_ticks = 0;
        phys_messages = 0;
        phys_bytes = 0;
        acks_sent = 0;
        ack_bytes = 0;
        sim_ticks = 0;
      };
    phys_sent = Array.make n 0;
    phys_received = Array.make n 0;
    link_msgs = Array.make_matrix n n 0;
    link_bytes = Array.make_matrix n n 0;
    link_retrans = Array.make_matrix n n 0;
    retrans_by_src = Array.make n 0;
    env_by_src = Array.make n 0;
    flight = Flightrec.create ~parties:n ~capacity:flight_cap ();
    flows_rev = [];
    step = "init";
    round_rev = [];
    rounds_rev = [];
    recent_rev = [];
    recent_len = 0;
    digest = Sha256.digest_string "ppgr-transcript-v1";
  }

let stats t = t.st

let phys_sent t = Array.copy t.phys_sent
let phys_received t = Array.copy t.phys_received
let retrans_by_src t = Array.copy t.retrans_by_src
let env_bytes_by_src t = Array.copy t.env_by_src
let flight t = t.flight
let transcript_sha t = Sha256.hex_of_digest t.digest

(** The causal ledger in send order (empty unless tracing was enabled
    during the run). *)
let flows t = List.rev t.flows_rev

(** Render ledger entries as exporter flow arrows (ids are positions in
    the list — unique within one trace). *)
let flows_to_export (fls : flow list) : Ppgr_obs.Export.flow list =
  List.mapi
    (fun i fl ->
      {
        Ppgr_obs.Export.flow_name = "msg." ^ fl.fl_step;
        flow_id = i;
        flow_src_slot = fl.fl_send_slot;
        flow_dst_slot = fl.fl_recv_slot;
        flow_send_us = fl.fl_send_us;
        flow_recv_us = fl.fl_recv_us;
        flow_args =
          [
            ("src", Trace.Int fl.fl_src);
            ("dst", Trace.Int fl.fl_dst);
            ("seq", Trace.Int fl.fl_seq);
            ("bytes", Trace.Int fl.fl_bytes);
            ("send_span", Trace.Int fl.fl_send_span);
            ("recv_span", Trace.Int fl.fl_recv_span);
          ];
      })
    fls

(** Per-directed-link physical traffic, links that carried anything,
    row-major.  Sums to [stats]' [phys_messages]/[phys_bytes] — a
    tiling the CLI checks. *)
let links t =
  let out = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if t.link_msgs.(src).(dst) > 0 then
        out :=
          {
            lk_src = src;
            lk_dst = dst;
            lk_msgs = t.link_msgs.(src).(dst);
            lk_bytes = t.link_bytes.(src).(dst);
            lk_retrans = t.link_retrans.(src).(dst);
          }
          :: !out
    done
  done;
  !out

let now_us () = Unix.gettimeofday () *. 1e6

(** Close the current step's physical round.  Called by the runtime at
    every protocol-step boundary so the schedule mirrors the lockstep
    rounds, retransmissions included. *)
let begin_step t step =
  if t.round_rev <> [] then
    t.rounds_rev <- (t.step, List.rev t.round_rev) :: t.rounds_rev;
  t.round_rev <- [];
  Flightrec.set_step t.flight step;
  t.step <- step

(** The physical message log as a {!Netsim.schedule}: one round per
    protocol step (compute time is not this layer's concern). *)
let net_rounds t =
  let closed = if t.round_rev = [] then [] else [ (t.step, List.rev t.round_rev) ] in
  List.rev_map
    (fun (_, msgs) -> { Netsim.compute_s = 0.; messages = msgs })
    (closed @ t.rounds_rev)

let note t ev =
  t.recent_rev <- ev :: t.recent_rev;
  t.recent_len <- t.recent_len + 1;
  if t.recent_len > 2 * recent_cap then begin
    (* Amortized trim: keep the newest [recent_cap]. *)
    let rec take k = function
      | x :: tl when k > 0 -> x :: take (k - 1) tl
      | _ -> []
    in
    t.recent_rev <- take recent_cap t.recent_rev;
    t.recent_len <- recent_cap
  end

(* Every wire touch: per-party and per-link physical tallies, the
   message-size histogram and the sender's flight-recorder entry, plus
   the chained transcript digest (corrupted copies hash as transmitted,
   so the digest pins the exact fault schedule too).  [seq] is known at
   every call site except limbo/drain flushes of held stale copies
   (passed as -1 there); it feeds only the flight recorder. *)
let transmit t ~src ~dst ~seq (wire_bytes : Bytes.t) =
  let len = Bytes.length wire_bytes in
  t.st.phys_messages <- t.st.phys_messages + 1;
  t.st.phys_bytes <- t.st.phys_bytes + len;
  t.phys_sent.(src) <- t.phys_sent.(src) + len;
  t.phys_received.(dst) <- t.phys_received.(dst) + len;
  t.link_msgs.(src).(dst) <- t.link_msgs.(src).(dst) + 1;
  t.link_bytes.(src).(dst) <- t.link_bytes.(src).(dst) + len;
  t.env_by_src.(src) <- t.env_by_src.(src) + Wire.envelope_overhead;
  Hist.record Hist.msg_bytes len;
  Flightrec.record t.flight ~party:src Flightrec.Send ~src ~dst ~seq ~info:len;
  t.round_rev <- { Netsim.src; dst; bytes = len } :: t.round_rev;
  (* The serialized clock charges every wire touch one tick. *)
  if not t.concurrent then t.st.sim_ticks <- t.st.sim_ticks + 1;
  let ctx = Sha256.init () in
  Sha256.feed_bytes ctx t.digest;
  Sha256.feed_bytes ctx wire_bytes;
  t.digest <- Sha256.finalize ctx

(* Receiver logic: validate the envelope, suppress stale sequence
   numbers.  Returns the accepted payload, or None when the arrival was
   discarded (corrupt or duplicate). *)
let receive t ~src ~dst (wire_bytes : Bytes.t) =
  match Wire.decode_envelope wire_bytes with
  | exception Wire.Malformed _ ->
      t.st.crc_rejects <- t.st.crc_rejects + 1;
      Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst ~seq:(-1)
        ~info:(Bytes.length wire_bytes);
      None
  | env ->
      if env.Wire.env_src <> src || env.Wire.env_dst <> dst then begin
        (* A CRC-valid envelope on the wrong link: misrouted; refuse. *)
        t.st.crc_rejects <- t.st.crc_rejects + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Crc_reject ~src ~dst
          ~seq:env.Wire.env_seq ~info:(Bytes.length wire_bytes);
        None
      end
      else if env.Wire.env_seq < t.recv_seq.(src).(dst) then begin
        t.st.dup_suppressed <- t.st.dup_suppressed + 1;
        None
      end
      else if env.Wire.env_seq > t.recv_seq.(src).(dst) then
        (* Unreachable with a per-link-sequential sender; a real async
           receiver would buffer.  Refuse loudly rather than mis-order. *)
        raise
          (Wire.Malformed
             (Printf.sprintf "future sequence %d on link %d->%d (expected %d)"
                env.Wire.env_seq src dst
                t.recv_seq.(src).(dst)))
      else begin
        t.recv_seq.(src).(dst) <- env.Wire.env_seq + 1;
        Flightrec.record t.flight ~party:dst Flightrec.Receive ~src ~dst
          ~seq:env.Wire.env_seq
          ~info:(Bytes.length env.Wire.env_payload);
        Some env.Wire.env_payload
      end

let link_key ~src ~dst n = (src * n) + dst

(* Stale copies held for reordering arrive once something else makes it
   through the link; sequence numbers mark them as duplicates. *)
let flush_limbo t ~src ~dst =
  let k = link_key ~src ~dst t.n in
  match Hashtbl.find_opt t.limbo k with
  | None | Some [] -> ()
  | Some held ->
      Hashtbl.remove t.limbo k;
      List.iter
        (fun env ->
          transmit t ~src ~dst ~seq:(-1) env;
          match receive t ~src ~dst env with
          | None -> ()
          | Some _ ->
              (* Cannot happen: the held seq was already accepted via a
                 retransmission before anything newer went through. *)
              assert false)
        (List.rev held)

(* Every fault-plan draw goes through here so the per-link draw counts
   are part of the persistable state: a resumed run fast-forwards a
   fresh plan to exactly this position and faces the same schedule. *)
let draw_fault t ~src ~dst =
  t.fault_draws.(src).(dst) <- t.fault_draws.(src).(dst) + 1;
  match t.faults with None -> Faultplan.Deliver | Some p -> Faultplan.next p ~src ~dst

(* Deterministic abort injection for the restart battery: once the
   physical transmission count reaches [kill_after], the next delivery
   attempt raises {!Party_dropped} with a "killed" event instead of
   touching the wire. *)
let check_kill t ~src ~dst ~seq ~attempts ~events =
  if t.kill_after >= 0 && t.st.phys_messages >= t.kill_after then begin
    let f =
      {
        fr_step = t.step;
        fr_src = src;
        fr_dst = dst;
        fr_seq = seq;
        fr_attempts = attempts;
        fr_events = List.rev ("killed" :: events);
        fr_recent = List.rev t.recent_rev;
        fr_flight = Flightrec.tail t.flight ~party:src;
        fr_digest = transcript_sha t;
      }
    in
    raise (Party_dropped f)
  end

let retry_span t ~kind ~src ~dst ~seq ~attempt =
  if Trace.enabled () then
    Trace.instant
      ~attrs:
        [
          ("party", Trace.Int src);
          ("src", Trace.Int src);
          ("dst", Trace.Int dst);
          ("seq", Trace.Int seq);
          ("fault", Trace.Str kind);
          ("retries", Trace.Int 1);
        ]
      "runtime.retry";
  note t (Printf.sprintf "%s[%d->%d#%d@%d]" kind src dst seq attempt)

(** Deliver one posted message, reliably: the attempt loop.  Returns
    the bytes the receiver accepted (a fresh copy) and the message's
    elapsed ticks on the concurrent clock (the serialized clock is
    charged as it goes).
    @raise Party_dropped when the retry budget is exhausted. *)
let deliver t pd =
  let src = pd.pd_src and dst = pd.pd_dst and seq = pd.pd_seq in
  let env = Wire.encode_envelope ~src ~dst ~seq pd.pd_payload in
  let events = ref [] in
  let result = ref None in
  let attempt = ref 0 in
  let ticks = ref 0 in
  while !result = None do
    if !attempt > t.retry_budget then begin
      let f =
        {
          fr_step = t.step;
          fr_src = src;
          fr_dst = dst;
          fr_seq = seq;
          fr_attempts = !attempt;
          fr_events = List.rev !events;
          fr_recent = List.rev t.recent_rev;
          fr_flight = Flightrec.tail t.flight ~party:src;
          fr_digest = transcript_sha t;
        }
      in
      if Trace.enabled () then
        Trace.instant
          ~attrs:
            [
              ("party", Trace.Int src);
              ("src", Trace.Int src);
              ("dst", Trace.Int dst);
              ("seq", Trace.Int seq);
              ("attempts", Trace.Int !attempt);
              ("step", Trace.Str t.step);
            ]
          "runtime.party_dropped";
      raise (Party_dropped f)
    end;
    check_kill t ~src ~dst ~seq ~attempts:!attempt ~events:!events;
    if !attempt > 0 then begin
      t.st.retransmits <- t.st.retransmits + 1;
      t.retrans_by_src.(src) <- t.retrans_by_src.(src) + 1;
      t.link_retrans.(src).(dst) <- t.link_retrans.(src).(dst) + 1;
      (* The wait before a retransmission: the concurrent clock's fixed
         timeout, or the serialized clock's capped exponential backoff. *)
      let wait =
        if t.concurrent then t.rto
        else Stdlib.min t.backoff_cap (t.backoff_base lsl Stdlib.min 20 (!attempt - 1))
      in
      t.st.backoff_ticks <- t.st.backoff_ticks + wait;
      if t.concurrent then ticks := !ticks + wait
      else t.st.sim_ticks <- t.st.sim_ticks + wait;
      Hist.record Hist.backoff_ticks wait;
      Flightrec.record t.flight ~party:src Flightrec.Retransmit ~src ~dst ~seq
        ~info:!attempt
    end;
    (* Every attempt holds the link for one concurrent-clock tick. *)
    incr ticks;
    let fault = draw_fault t ~src ~dst in
    let record kind = retry_span t ~kind ~src ~dst ~seq ~attempt:!attempt in
    let arrive wire =
      transmit t ~src ~dst ~seq wire;
      match receive t ~src ~dst wire with
      | Some p ->
          result := Some p;
          if t.concurrent then begin
            let ack =
              Wire.encode_ack { Wire.ack_src = dst; ack_dst = src; ack_cum = seq + 1; ack_sack = 0 }
            in
            t.st.acks_sent <- t.st.acks_sent + 1;
            t.st.ack_bytes <- t.st.ack_bytes + Bytes.length ack
          end;
          (* Accept endpoint of the causal arrow: after every
             retransmission the fault schedule demanded, so the arrow's
             extent is the message's true delivery latency. *)
          (match pd.pd_send with
          | None -> ()
          | Some (fl_send_us, fl_send_span, fl_send_slot) ->
              t.flows_rev <-
                {
                  fl_src = src;
                  fl_dst = dst;
                  fl_seq = seq;
                  fl_step = t.step;
                  fl_bytes = Bytes.length p;
                  fl_send_us;
                  fl_recv_us = now_us ();
                  fl_send_span;
                  fl_recv_span = Trace.current_span_id ();
                  fl_send_slot;
                  fl_recv_slot = Ppgr_exec.Meter.slot ();
                }
                :: t.flows_rev);
          flush_limbo t ~src ~dst
      | None -> ()
    in
    (match fault with
    | Faultplan.Deliver -> arrive env
    | Faultplan.Drop ->
        t.st.drops <- t.st.drops + 1;
        record "drop";
        events := "drop" :: !events
    | Faultplan.Corrupt c ->
        (* The damaged copy occupies the wire; the receiver's CRC check
           turns it into a drop the sender times out on. *)
        arrive (Faultplan.apply_corruption c env);
        record "corrupt";
        events := "corrupt" :: !events
    | Faultplan.Duplicate ->
        arrive env;
        (* The second copy arrives stale and is suppressed. *)
        transmit t ~src ~dst ~seq env;
        incr ticks;
        (match receive t ~src ~dst env with Some _ -> assert false | None -> ());
        record "duplicate";
        events := "duplicate" :: !events
    | Faultplan.Reorder ->
        (* Held in link limbo: it will arrive after a later delivery on
           this link and be suppressed as stale.  For the sender this
           attempt is a timeout. *)
        t.st.reorders <- t.st.reorders + 1;
        let k = link_key ~src ~dst t.n in
        let held = Option.value ~default:[] (Hashtbl.find_opt t.limbo k) in
        Hashtbl.replace t.limbo k (env :: held);
        record "reorder";
        events := "reorder" :: !events
    | Faultplan.Delay d ->
        (* Arrives, late: the link clock advances but no retransmission
           is provoked (the timer is generous against jitter). *)
        t.st.delays <- t.st.delays + 1;
        ticks := !ticks + d;
        if not t.concurrent then begin
          t.st.backoff_ticks <- t.st.backoff_ticks + d;
          t.st.sim_ticks <- t.st.sim_ticks + d
        end;
        record "delay";
        events := Printf.sprintf "delay:%d" d :: !events;
        arrive env);
    incr attempt
  done;
  match !result with Some p -> (Bytes.copy p, !ticks) | None -> assert false

(** Orphaned limbo entries at end of run (a reorder whose link never
    carried traffic again): deliver and suppress them so the physical
    log is complete. *)
let drain t =
  Hashtbl.iter
    (fun k held ->
      let src = k / t.n and dst = k mod t.n in
      List.iter
        (fun env ->
          transmit t ~src ~dst ~seq:(-1) env;
          ignore (receive t ~src ~dst env))
        (List.rev held))
    t.limbo;
  Hashtbl.reset t.limbo

(** Enqueue [payload] from [src] to [dst] for the next {!flush} and
    return its ticket.  The sequence number and the causal ledger's
    send endpoint are fixed here, where the protocol decided to send
    (tracing off: no clock reads). *)
let post t ~src ~dst (payload : Bytes.t) =
  let ticket = t.posted_n in
  t.posted_n <- t.posted_n + 1;
  let seq = t.send_seq.(src).(dst) in
  t.send_seq.(src).(dst) <- seq + 1;
  let pd_send =
    if Trace.enabled () then
      Some (now_us (), Trace.current_span_id (), Ppgr_exec.Meter.slot ())
    else None
  in
  t.posted <-
    { pd_src = src; pd_dst = dst; pd_seq = seq; pd_payload = payload; pd_send }
    :: t.posted;
  ticket

(** Deliver everything posted since the last flush, in post order; the
    result array is indexed by ticket.  On the concurrent clock each
    link's messages add up and the flush charges [sim_ticks] its
    slowest link. *)
let flush t =
  let posted = List.rev t.posted in
  let out = Array.make t.posted_n Bytes.empty in
  t.posted <- [];
  t.posted_n <- 0;
  let link_ticks = Hashtbl.create 8 in
  List.iteri
    (fun ticket pd ->
      let payload, ticks = deliver t pd in
      out.(ticket) <- payload;
      let k = link_key ~src:pd.pd_src ~dst:pd.pd_dst t.n in
      Hashtbl.replace link_ticks k
        (ticks + Option.value ~default:0 (Hashtbl.find_opt link_ticks k)))
    posted;
  if t.concurrent then
    t.st.sim_ticks <- t.st.sim_ticks + Hashtbl.fold (fun _ v m -> Stdlib.max v m) link_ticks 0;
  out

(** {1 Checkpoint persistence}

    {!persist} captures the transport's complete delivery state as the
    plain-data {!Wire.transport_snap}; {!restore} rebuilds a transport
    from one, fast-forwarding a fresh fault plan to the persisted
    schedule position so the resumed run faces exactly the draws the
    original would have.  The flight recorder restarts empty (it is
    diagnostics, not protocol state); everything that feeds the
    transcript digest, the physical tallies and the replayable
    [net_rounds] round-trips exactly. *)

let persist t : Wire.transport_snap =
  let mat m = Array.map Array.copy m in
  let to_triples msgs =
    List.map (fun m -> (m.Netsim.src, m.Netsim.dst, m.Netsim.bytes)) msgs
  in
  let st = t.st in
  {
    Wire.ts_n = t.n;
    ts_send_seq = mat t.send_seq;
    ts_recv_seq = mat t.recv_seq;
    ts_counters =
      [|
        st.retransmits;
        st.drops;
        st.crc_rejects;
        st.dup_suppressed;
        st.reorders;
        st.delays;
        st.backoff_ticks;
        st.phys_messages;
        st.phys_bytes;
        st.acks_sent;
        st.ack_bytes;
        st.sim_ticks;
      |];
    ts_phys_sent = Array.copy t.phys_sent;
    ts_phys_received = Array.copy t.phys_received;
    ts_retrans_by_src = Array.copy t.retrans_by_src;
    ts_env_by_src = Array.copy t.env_by_src;
    ts_link_msgs = mat t.link_msgs;
    ts_link_bytes = mat t.link_bytes;
    ts_link_retrans = mat t.link_retrans;
    ts_fault_draws = mat t.fault_draws;
    ts_digest = Bytes.copy t.digest;
    ts_step = t.step;
    ts_rounds = List.rev_map (fun (name, msgs) -> (name, to_triples msgs)) t.rounds_rev;
    ts_round =
      List.rev_map (fun m -> (m.Netsim.src, m.Netsim.dst, m.Netsim.bytes)) t.round_rev;
    ts_limbo =
      (let entries =
         Hashtbl.fold (fun k held acc -> (k, List.rev held) :: acc) t.limbo []
       in
       List.sort (fun (a, _) (b, _) -> compare a b) entries);
  }

let restore ?faults ?(retry_budget = 8) ?(backoff_base = 1) ?(backoff_cap = 64)
    ?(flight_cap = Flightrec.default_capacity) ?window ?(kill_after = -1)
    (snap : Wire.transport_snap) =
  let n = snap.Wire.ts_n in
  let t =
    create ?faults ~retry_budget ~backoff_base ~backoff_cap ~flight_cap ?window
      ~kill_after ~n ()
  in
  let copy_mat dst src = Array.iteri (fun i row -> Array.blit src.(i) 0 row 0 n) dst in
  copy_mat t.send_seq snap.Wire.ts_send_seq;
  copy_mat t.recv_seq snap.Wire.ts_recv_seq;
  let c = snap.Wire.ts_counters in
  if Array.length c <> Wire.n_counters then
    invalid_arg "Transport.restore: bad counter vector";
  t.st.retransmits <- c.(0);
  t.st.drops <- c.(1);
  t.st.crc_rejects <- c.(2);
  t.st.dup_suppressed <- c.(3);
  t.st.reorders <- c.(4);
  t.st.delays <- c.(5);
  t.st.backoff_ticks <- c.(6);
  t.st.phys_messages <- c.(7);
  t.st.phys_bytes <- c.(8);
  t.st.acks_sent <- c.(9);
  t.st.ack_bytes <- c.(10);
  t.st.sim_ticks <- c.(11);
  Array.blit snap.Wire.ts_phys_sent 0 t.phys_sent 0 n;
  Array.blit snap.Wire.ts_phys_received 0 t.phys_received 0 n;
  Array.blit snap.Wire.ts_retrans_by_src 0 t.retrans_by_src 0 n;
  Array.blit snap.Wire.ts_env_by_src 0 t.env_by_src 0 n;
  copy_mat t.link_msgs snap.Wire.ts_link_msgs;
  copy_mat t.link_bytes snap.Wire.ts_link_bytes;
  copy_mat t.link_retrans snap.Wire.ts_link_retrans;
  t.digest <- Bytes.copy snap.Wire.ts_digest;
  t.step <- snap.Wire.ts_step;
  Flightrec.set_step t.flight snap.Wire.ts_step;
  t.rounds_rev <-
    List.rev_map
      (fun (name, ms) ->
        (name, List.map (fun (src, dst, bytes) -> { Netsim.src; dst; bytes }) ms))
      snap.Wire.ts_rounds;
  t.round_rev <-
    List.rev_map (fun (src, dst, bytes) -> { Netsim.src; dst; bytes }) snap.Wire.ts_round;
  List.iter
    (fun (k, held) -> Hashtbl.replace t.limbo k (List.rev held))
    snap.Wire.ts_limbo;
  (* Fast-forward the fault plan to the persisted schedule position:
     the per-link draw counts make the resumed schedule a pure function
     of the original seed. *)
  (match t.faults with
  | None -> ()
  | Some p ->
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          for _ = 1 to snap.Wire.ts_fault_draws.(src).(dst) do
            ignore (Faultplan.next p ~src ~dst)
          done
        done
      done);
  copy_mat t.fault_draws snap.Wire.ts_fault_draws;
  t
