(* The ranking benchmark.

     ppgr_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--commit ID]

   One process, Pool jobs = 2, one closed-loop client: the next session
   starts when the previous one returns.  With --trace 0 it reports the
   end-to-end metrics of untraced sessions; with --trace 1 it alternates
   untraced and traced sessions and reports the per-layer metrics.  The
   last line of standard output is the JSON result. *)

module W = Workload

let jobs = 2

(* Distinct input sets per run.  The network figures vary with the
   input set (the lossy workload's fault plan most), so a run averages
   them over as many sets as its sessions reach.  Sessions cycle through
   the sets; a run that gets past [inputs_per_run] sessions repeats a
   set and compares the two transcript digests. *)
let inputs_per_run = 4
let min_sessions = 3

(* Set-up repeats: at least [setup_min], then more while under
   [setup_budget_s], so a cheap set-up (the sharded one takes a few ms)
   still reports a steady median. *)
let setup_min = 3
let setup_max = 50
let setup_budget_s = 1.0

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: ppgr_bench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and commit = ref "unknown" in
  let rec go = function
    | "--workload" :: v :: tl -> workload := v; go tl
    | "--seed" :: v :: tl -> seed := int_of_string_opt v; go tl
    | "--seconds" :: v :: tl -> seconds := float_of_string_opt v; go tl
    | "--trace" :: (("0" | "1") as v) :: tl -> trace := Some (v = "1"); go tl
    | "--commit" :: v :: tl -> commit := v; go tl
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (W.find !workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
      { workload; seed; seconds; trace; commit = !commit }
  | _ -> usage ()

open Common

(* ---- End-to-end run (--trace 0) ---- *)

let end_to_end a (env : W.env) ~setup_s inputs =
  let digests = Hashtbl.create 4 in
  let deadline = Unix.gettimeofday () +. a.seconds in
  let ok = ref [] and attempted = ref 0 in
  while Unix.gettimeofday () < deadline || !attempted < min_sessions do
    let index = !attempted mod inputs_per_run in
    incr attempted;
    let c0 = cpu_s () in
    match attempt env inputs digests ~index ~run:(fun session -> (session (), ())) with
    | Some (s, ()) ->
        Printf.printf "  session %d on input %d: %.4f s wall, %.4f s cpu\n%!" !attempted index
          s.wall_s (cpu_s () -. c0);
        ok := s :: !ok
    | None -> ()
  done;
  let ok = Array.of_list (List.rev !ok) in
  let failed = !attempted - Array.length ok in
  let walls = Array.map (fun s -> s.wall_s) ok in
  (* The network figures are deterministic per input set: average one
     sample per distinct set. *)
  let per_input f =
    let firsts =
      List.filter_map
        (fun i -> Array.find_opt (fun s -> s.index = i) ok)
        (List.init inputs_per_run Fun.id)
    in
    if firsts = [] then 0.
    else Stats.mean (Array.of_list (List.map (fun s -> f s.outcome) firsts))
  in
  let gc = Gc.quick_stat () in
  let peak_heap_mb =
    float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let session_s = if walls = [||] then 0. else Stats.median walls in
  Printf.printf "sessions: %d attempted, %d failed (failed_frac %.3f)\n" !attempted failed
    (float_of_int failed /. float_of_int !attempted);
  if walls <> [||] then
    Printf.printf "session_s: median %.4f s, max %.4f s (p100; %d samples)\n" session_s
      (Stats.quantile walls 1.0) (Array.length walls);
  let metrics =
    [
      { name = "session_s"; unit_ = "s"; value = session_s };
      { name = "setup_s"; unit_ = "s"; value = setup_s };
      { name = "net_ticks"; unit_ = "ticks"; value = per_input (fun o -> float_of_int o.W.net_ticks) };
      { name = "net_s"; unit_ = "sim_s"; value = per_input (fun o -> o.W.net_s) };
      { name = "wire_bytes"; unit_ = "bytes"; value = per_input (fun o -> float_of_int o.W.wire_bytes) };
      { name = "peak_heap_mb"; unit_ = "MB"; value = peak_heap_mb };
    ]
  in
  report metrics;
  print_result ~correct:(failed = 0) ~attempted:!attempted ~failed metrics

(* ---- Main ---- *)

let () =
  let a = parse_args () in
  Ppgr_exec.Pool.set_jobs jobs;
  let w = a.workload in
  Printf.printf "workload %s, seed %d, %g s, trace %d\n" w.W.name a.seed a.seconds
    (if a.trace then 1 else 0);
  Printf.printf
    "provenance: {\"commit\": %S, \"cores_detected\": %d, \"jobs\": %d, \"workload\": %S, \"seed\": %d}\n%!"
    a.commit (Domain.recommended_domain_count ()) jobs w.W.name a.seed;
  let inputs = Array.init inputs_per_run (fun index -> W.inputs w ~seed:a.seed ~index) in
  let rec set_up times spent =
    let t0 = Unix.gettimeofday () in
    let env = W.prepare w ~seed:a.seed in
    let dt = Unix.gettimeofday () -. t0 in
    let times = dt :: times and spent = spent +. dt in
    let count = List.length times in
    if count >= setup_max || (count >= setup_min && spent >= setup_budget_s) then (times, env)
    else set_up times spent
  in
  let times, env = set_up [] 0. in
  let setup_s = Stats.median (Array.of_list times) in
  Printf.printf "group %s; setup_s median %.6f s over %d set-ups\n%!" env.W.group_name setup_s
    (List.length times);
  if a.trace then Layers.run ~seconds:a.seconds ~jobs w env inputs
  else end_to_end a env ~setup_s inputs;
  Ppgr_exec.Pool.shutdown ()
