(* Async bench: the transport's concurrent link clock vs stop-and-wait,
   plus the checkpoint/restart bill, written to BENCH_PR10.json.

   Each scenario runs the full protocol on DL-512 and ECC-160 under a
   latency-flavoured Faultplan, sweeping the per-link window through
   1/4/16.  The section records the simulated link-clock (sim_ticks:
   serialized for stop-and-wait, per-step max over concurrent links
   when windowed) and the control-plane bill (acks), and enforces the
   contract the chaos/restart suites pin:

   - the physical transcript digest is window-invariant: the window
     buys wall-clock overlap, never different bytes;
   - window=1 IS stop-and-wait — same digest, same sim_ticks;
   - on the delay-heavy plan the concurrent clock must beat
     stop-and-wait (links progressing side by side);
   - a run killed mid-flight and resumed from its last checkpoint
     reports byte-identical stats to the uninterrupted golden.

   Any violation fails the process, so the CI async leg gates the
   pipelining win and restart conformance on every push.  [smoke] is
   the cheap variant for CI: test-size groups, one scenario. *)

open Ppgr_bigint
open Ppgr_grouprank
module Faultplan = Ppgr_mpcnet.Faultplan

let json_path = "BENCH_PR10.json"

(* Same instance shape as the chaos bench: n = 4 with a tie. *)
let betas = Array.map Bigint.of_int [| 9; 3; 14; 3 |]
let l = 5
let retry_budget = 8
let windows = [ 1; 4; 16 ]

let golden =
  Array.map
    (fun b ->
      1
      + Array.fold_left
          (fun acc b' -> if Bigint.compare b' b > 0 then acc + 1 else acc)
          0 betas)
    betas

(* Latency-flavoured mixes: where a window should pay.  The delay-heavy
   plan is the gated one — delays always deliver, so the run completes
   and the sim-tick comparison is apples to apples. *)
let scenarios =
  [
    ("clean-baseline", "seed=bench-async-0");
    ("delay-heavy", "delay=0.8,maxdelay=16,seed=bench-async-1");
    ("drop-delay", "drop=0.1,delay=0.4,maxdelay=8,seed=bench-async-2");
  ]

let gated_scenario = "delay-heavy"

type run = {
  group_name : string;
  scenario : string;
  spec : string;
  window : int; (* 0 = stop-and-wait baseline (no window spec at all) *)
  wall_s : float;
  sim_ticks : int;
  acks_sent : int;
  ack_bytes : int;
  retransmits : int;
  bytes_physical : int;
  messages_physical : int;
  ranks_ok : bool;
  digest : string;
}

type restart_run = {
  r_group : string;
  r_scenario : string;
  r_window : int;
  r_kill_after : int;
  r_resumes : int;
  r_wall_s : float;
  r_identical : bool; (* resumed stats byte-identical to the golden *)
}

let winspec w = Transport.winspec_of_string (Printf.sprintf "window=%d,rto=4" w)

let bench_run g (scenario, spec) w : run =
  let module G = (val g : Ppgr_group.Group_intf.GROUP) in
  let module R = Runtime.Make (G) in
  let rng = Ppgr_rng.Rng.create ~seed:"ppgr-bench-async" in
  let faults = Faultplan.spec_of_string spec in
  let window = if w = 0 then None else Some (winspec w) in
  let t0 = Unix.gettimeofday () in
  let st = R.run ~faults ~retry_budget ?window rng ~l ~betas in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    group_name = G.name;
    scenario;
    spec;
    window = w;
    wall_s;
    sim_ticks = st.R.sim_ticks;
    acks_sent = st.R.acks_sent;
    ack_bytes = st.R.ack_bytes;
    retransmits = st.R.retransmits;
    bytes_physical = st.R.phys_bytes;
    messages_physical = st.R.phys_messages;
    ranks_ok = st.R.ranks = golden;
    digest = st.R.transcript_sha;
  }

(* Kill the run once half its physical messages are on the wire, resume
   from the last checkpoint, compare everything against the golden. *)
let bench_restart g (scenario, spec) w : restart_run =
  let module G = (val g : Ppgr_group.Group_intf.GROUP) in
  let module R = Runtime.Make (G) in
  let faults = Faultplan.spec_of_string spec in
  let window = if w = 0 then None else Some (winspec w) in
  let fresh () = Ppgr_rng.Rng.create ~seed:"ppgr-bench-async" in
  let gst = R.run ~faults ~retry_budget ?window (fresh ()) ~l ~betas in
  let kill_after = gst.R.phys_messages / 2 in
  let t0 = Unix.gettimeofday () in
  let rc =
    R.run_with_restart ~faults ~retry_budget ?window ~max_restarts:1
      ~kill_after (fresh ()) ~l ~betas
  in
  let r_wall_s = Unix.gettimeofday () -. t0 in
  let st = rc.R.rec_stats in
  let r_identical =
    rc.R.rec_reelected = None
    && st.R.ranks = gst.R.ranks
    && String.equal st.R.transcript_sha gst.R.transcript_sha
    && st.R.phys_messages = gst.R.phys_messages
    && st.R.phys_bytes = gst.R.phys_bytes
    && st.R.retransmits = gst.R.retransmits
    && st.R.sim_ticks = gst.R.sim_ticks
    && st.R.net_rounds = gst.R.net_rounds
  in
  {
    r_group = G.name;
    r_scenario = scenario;
    r_window = w;
    r_kill_after = kill_after;
    r_resumes = rc.R.rec_resumes;
    r_wall_s;
    r_identical;
  }

(* The contract; any violation fails the whole section. *)
let check (runs : run list) : string list =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let by group scenario w =
    List.find_opt
      (fun r -> r.group_name = group && r.scenario = scenario && r.window = w)
      runs
  in
  List.iter
    (fun r ->
      if not r.ranks_ok then
        bad "%s/%s w=%d: wrong ranks" r.group_name r.scenario r.window;
      if String.length r.digest <> 64 then
        bad "%s/%s w=%d: digest is not 64 hex chars" r.group_name r.scenario
          r.window;
      match by r.group_name r.scenario 0 with
      | None -> ()
      | Some base ->
          if not (String.equal r.digest base.digest) then
            bad "%s/%s w=%d: transcript differs from stop-and-wait"
              r.group_name r.scenario r.window;
          if r.window = 1 && r.sim_ticks <> base.sim_ticks then
            bad "%s/%s: window=1 sim_ticks %d <> stop-and-wait %d"
              r.group_name r.scenario r.sim_ticks base.sim_ticks;
          if
            r.window = List.fold_left max 0 windows
            && r.scenario = gated_scenario
            && r.sim_ticks >= base.sim_ticks
          then
            bad
              "%s/%s: pipelined window=%d sim_ticks %d not below \
               stop-and-wait %d — the window bought nothing"
              r.group_name r.scenario r.window r.sim_ticks base.sim_ticks)
    runs;
  !problems

let check_restarts (rs : restart_run list) : string list =
  List.filter_map
    (fun r ->
      if r.r_identical then None
      else
        Some
          (Printf.sprintf
             "%s/%s w=%d: resumed run (kill at %d, %d resumes) not \
              byte-identical to golden"
             r.r_group r.r_scenario r.r_window r.r_kill_after r.r_resumes))
    rs

let print_run r =
  Printf.printf
    "%-10s %-15s w=%-2d ticks=%-5d acks=%-3d retx=%-3d phys %d B  %s  %.2fs\n%!"
    r.group_name r.scenario r.window r.sim_ticks r.acks_sent r.retransmits
    r.bytes_physical
    (String.sub r.digest 0 12)
    r.wall_s

let print_restart r =
  Printf.printf
    "%-10s %-15s w=%-2d restart: kill@%d resumes=%d identical=%b  %.2fs\n%!"
    r.r_group r.r_scenario r.r_window r.r_kill_after r.r_resumes r.r_identical
    r.r_wall_s

let run_matrix groups =
  List.concat_map
    (fun g ->
      List.concat_map
        (fun sc ->
          List.map
            (fun w ->
              let r = bench_run g sc w in
              print_run r;
              r)
            (0 :: windows))
        scenarios)
    groups

let restart_matrix groups =
  List.concat_map
    (fun g ->
      List.map
        (fun w ->
          let r = bench_restart g (List.nth scenarios 1) w in
          print_restart r;
          r)
        [ 0; 4 ])
    groups

let emit_run oc r =
  let out fmt = Printf.fprintf oc fmt in
  out "    {\n";
  out "      \"group\": %S,\n" r.group_name;
  out "      \"scenario\": %S,\n" r.scenario;
  out "      \"spec\": %S,\n" r.spec;
  out "      \"window\": %d,\n" r.window;
  out "      \"wall_s\": %.3f,\n" r.wall_s;
  out "      \"sim_ticks\": %d,\n" r.sim_ticks;
  out "      \"acks\": {\"sent\": %d, \"bytes\": %d},\n" r.acks_sent
    r.ack_bytes;
  out "      \"retransmits\": %d,\n" r.retransmits;
  out "      \"physical\": {\"messages\": %d, \"bytes\": %d},\n"
    r.messages_physical r.bytes_physical;
  out "      \"ranks_ok\": %b,\n" r.ranks_ok;
  out "      \"transcript_sha256\": %S\n" r.digest;
  out "    }"

let emit_restart oc r =
  let out fmt = Printf.fprintf oc fmt in
  out "    {\n";
  out "      \"group\": %S,\n" r.r_group;
  out "      \"scenario\": %S,\n" r.r_scenario;
  out "      \"window\": %d,\n" r.r_window;
  out "      \"kill_after\": %d,\n" r.r_kill_after;
  out "      \"resumes\": %d,\n" r.r_resumes;
  out "      \"wall_s\": %.3f,\n" r.r_wall_s;
  out "      \"identical_to_golden\": %b\n" r.r_identical;
  out "    }"

let groups () =
  [ Ppgr_group.Dl_group.dl_512 (); Ppgr_group.Ec_group.ecc_160 () ]

let run () =
  Printf.printf "\n== Async (%s) ==\n%!" json_path;
  Printf.printf
    "windowed transport sweep: n=%d, l=%d, windows {stop-and-wait, %s}, \
     restart at half the physical transcript\n%!"
    (Array.length betas) l
    (String.concat ", " (List.map string_of_int windows));
  let runs = run_matrix (groups ()) in
  let restarts = restart_matrix (groups ()) in
  let oc = open_out json_path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 10,\n";
  out "  \"description\": \"async: pipelined windowed transport vs \
       stop-and-wait on delay-heavy faultplans, plus checkpoint/restart \
       conformance\",\n";
  out "  \"n\": %d,\n" (Array.length betas);
  out "  \"l\": %d,\n" l;
  out "  \"retry_budget\": %d,\n" retry_budget;
  out "  \"gated_scenario\": %S,\n" gated_scenario;
  out "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      emit_run oc r;
      out "%s\n" (if i = List.length runs - 1 then "" else ","))
    runs;
  out "  ],\n";
  out "  \"restarts\": [\n";
  List.iteri
    (fun i r ->
      emit_restart oc r;
      out "%s\n" (if i = List.length restarts - 1 then "" else ","))
    restarts;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  let problems = check runs @ check_restarts restarts in
  if problems <> [] then begin
    List.iter (Printf.printf "async bench: %s\n%!") problems;
    failwith "async bench: windowed-transport contract violated"
  end

(* CI smoke: the same sweep on the fast test-size groups plus one
   mid-run restart each, no JSON. *)
let smoke () =
  Printf.printf
    "\n== Async smoke (window sweep + mid-run restart conformance) ==\n%!";
  let groups =
    [ Ppgr_group.Dl_group.dl_test_64 (); Ppgr_group.Ec_group.ecc_tiny () ]
  in
  let runs = run_matrix groups in
  let restarts = restart_matrix groups in
  let problems = check runs @ check_restarts restarts in
  if problems <> [] then begin
    List.iter (Printf.printf "async smoke: %s\n%!") problems;
    failwith "async smoke: windowed-transport contract violated"
  end;
  Printf.printf
    "async smoke OK: %d sweep runs window-invariant, %d restarts \
     byte-identical\n%!"
    (List.length runs) (List.length restarts)
