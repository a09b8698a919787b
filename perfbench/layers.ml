(* The traced run (--trace 1): per-layer metrics.

   Untraced and traced sessions alternate on the same inputs.  The
   traced ones run under Trace.capture with three probes registered —
   process CPU time, group multiplications and logical exponentiations —
   so every span the library already emits (phase1, runtime and its
   steps, shard.merge) carries their deltas.  Nothing is instrumented
   inside the library.  Unit costs of the single operations are measured
   in the same process, and each step's meter counts are priced with
   them: the attribution residual is the share of the step's measured
   CPU time that the counts do not explain. *)

open Common
module Trace = Ppgr_obs.Trace
module Metrics = Ppgr_obs.Metrics
module Summary = Ppgr_obs.Summary

let steps = [ "keygen"; "encrypt"; "compare"; "ring"; "count" ]

let named spans name = List.filter (fun (s : Trace.span) -> s.Trace.name = name) spans
let wall_s spans = List.fold_left (fun a (s : Trace.span) -> a +. (s.Trace.dur_us /. 1e6)) 0. spans

let attr key spans =
  List.fold_left
    (fun a (s : Trace.span) ->
      match List.assoc_opt key s.Trace.attrs with Some (Trace.Int v) -> a + v | _ -> a)
    0 spans

(* What one traced session's spans say, per layer. *)
type traced = {
  t_wall : float; (* the whole session, traced *)
  phase1 : float;
  rings : float; (* every Runtime.run span: one ring, or one per shard *)
  ring_max : float;
  step_wall : (string * float) list;
  step_cpu : (string * float) list; (* seconds of process CPU, all domains *)
  step_mults : (string * int) list;
  runtime_mults : int;
  runtime_exps : int;
  merge_wall : float;
  merge_cpu : float;
  merge_field_mults : int; (* the merge engine's local field mults *)
}

(* The Runtime step spans are party-attributed, so [Summary] folds them
   into one row per step; the container spans (phase1, runtime,
   shard.merge) are read directly. *)
let read_spans ((wall, o) : float * W.outcome) spans =
  let runtime = named spans "runtime" in
  let rows = Summary.by_phase (Summary.rows spans) in
  let per_step f =
    List.map
      (fun st ->
        match List.find_opt (fun r -> r.Summary.phase = "runtime." ^ st) rows with
        | Some r -> (st, f r)
        | None -> failwith ("the trace has no runtime." ^ st ^ " span"))
      steps
  in
  let metric key (r : Summary.row) = Option.value ~default:0 (List.assoc_opt key r.Summary.metrics) in
  let cpu spans = float_of_int (attr "cpu_us" spans) /. 1e6 in
  let merge = named spans "shard.merge" in
  {
    t_wall = wall;
    phase1 = wall_s (named spans "phase1");
    rings = wall_s runtime;
    ring_max = List.fold_left (fun a (s : Trace.span) -> Float.max a (s.Trace.dur_us /. 1e6)) 0. runtime;
    step_wall = per_step (fun r -> r.Summary.wall_us /. 1e6);
    step_cpu = per_step (fun r -> float_of_int (metric "cpu_us" r) /. 1e6);
    step_mults = per_step (metric "group_mults");
    runtime_mults = attr "group_mults" runtime;
    runtime_exps = attr "exps" runtime;
    merge_wall = wall_s merge;
    merge_cpu = cpu merge;
    merge_field_mults =
      (match o.W.merge with Some (_, c) -> c.Ppgr_shamir.Engine.c_field_mults | None -> 0);
  }

(* What an untraced session of the same run costs the process. *)
type plain = { p_wall : float; p_cpu : float; minor_words : float; major : int }

let measured session =
  let g0 = Gc.quick_stat () and c0 = cpu_s () in
  let ((wall, _) as r) = session () in
  let g1 = Gc.quick_stat () and c1 = cpu_s () in
  ( r,
    {
      p_wall = wall;
      p_cpu = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let run ~seconds ~jobs (w : W.t) (env : W.env) inputs =
  Metrics.register ~name:"cpu_us" (fun () -> int_of_float (cpu_s () *. 1e6));
  List.iter (fun (name, read) -> Metrics.register ~name read) env.W.probes;
  let digests = Hashtbl.create 4 in
  let plains = ref [] and traceds = ref [] and last = ref None in
  let attempted = ref 0 and failed = ref 0 in
  let deadline = Unix.gettimeofday () +. seconds in
  let pairs = ref 0 in
  let once index run =
    incr attempted;
    match attempt env inputs digests ~index ~run with
    | Some (s, extra) ->
        last := Some s.outcome;
        Some extra
    | None ->
        incr failed;
        None
  in
  while Unix.gettimeofday () < deadline || !pairs < 2 do
    let index = !pairs mod Array.length inputs in
    incr pairs;
    (match once index measured with
    | Some p -> plains := p :: !plains
    | None -> ());
    match
      once index (fun session ->
          let r, spans = Trace.capture session in
          (r, read_spans r spans))
    with
    | Some t -> traceds := t :: !traceds
    | None -> ()
  done;
  (* Unit costs on a compacted heap, so session garbage does not tax them. *)
  Gc.compact ();
  let units = env.W.unit_ops () in
  let unit name = List.assoc name units in
  let plains = Array.of_list !plains and traceds = Array.of_list !traceds in
  let med f a = if a = [||] then 0. else Stats.median (Array.map f a) in
  let step_med field st = med (fun t -> List.assoc st (field t)) traceds in
  let o = !last in
  let count f = match o with Some o -> float_of_int (f o) | None -> 0. in
  let tr f = count (fun o -> f o.W.tr) in
  let merge f = count (fun o -> match o.W.merge with Some m -> f m | None -> 0) in
  let costs f = merge (fun (_, c) -> f c) in
  (* Per traced session: (measured CPU - counts x unit cost) / measured. *)
  let residual ~measured ~count ~unit_ns =
    if measured <= 0. then 0. else (measured -. (float_of_int count *. unit_ns *. 1e-9)) /. measured
  in
  let step_attrib st =
    med
      (fun t ->
        residual ~measured:(List.assoc st t.step_cpu) ~count:(List.assoc st t.step_mults)
          ~unit_ns:(unit "group.mul_ns"))
      traceds
  in
  let merge_attrib =
    med
      (fun t ->
        residual ~measured:t.merge_cpu ~count:t.merge_field_mults ~unit_ns:(unit "zfield.mul_ns"))
      traceds
  in
  let s name value = { name; unit_ = "s"; value } in
  let c name value = { name; unit_ = "count"; value } in
  let r name value = { name; unit_ = "ratio"; value } in
  let untraced_wall = med (fun p -> p.p_wall) plains in
  let metrics =
    [ s "phase1.s" (med (fun t -> t.phase1) traceds);
      c "phase1.field_mults" (count (fun o -> o.W.phase1_field_mults)) ]
    @ List.map (fun st -> s ("runtime." ^ st ^ ".s") (step_med (fun t -> t.step_wall) st)) steps
    @ [
        s "runtime.other.s"
          (med (fun t -> t.rings -. List.fold_left (fun a (_, v) -> a +. v) 0. t.step_wall) traceds);
        c "runtime.group_mults" (med (fun t -> float_of_int t.runtime_mults) traceds);
        c "runtime.exps" (med (fun t -> float_of_int t.runtime_exps) traceds);
      ]
    @ List.map (fun (name, v) -> { name; unit_ = "ns"; value = v }) units
    @ [
        c "zfield.mults" (costs (fun c -> c.Ppgr_shamir.Engine.c_field_mults));
        c "engine.mults" (costs (fun c -> c.Ppgr_shamir.Engine.c_mults));
        c "engine.rounds" (costs (fun c -> c.Ppgr_shamir.Engine.c_rounds));
        c "engine.opens" (costs (fun c -> c.Ppgr_shamir.Engine.c_opens));
        c "engine.elements" (costs (fun c -> c.Ppgr_shamir.Engine.c_elements));
        c "shard.candidates" (merge fst);
        s "shard.merge.s" (med (fun t -> t.merge_wall) traceds);
        s "shard.rings.s" (med (fun t -> t.rings) traceds);
        s "shard.ring_max_s" (med (fun t -> t.ring_max) traceds);
        c "transport.phys_messages" (tr (fun t -> t.W.phys_messages));
        c "transport.retransmits" (tr (fun t -> t.W.retransmits));
        c "transport.drops" (tr (fun t -> t.W.drops));
        c "transport.crc_rejects" (tr (fun t -> t.W.crc_rejects));
        c "transport.dup_suppressed" (tr (fun t -> t.W.dup_suppressed));
        c "transport.backoff_ticks" (tr (fun t -> t.W.backoff_ticks));
        c "transport.acks" (tr (fun t -> t.W.acks));
        r "transport.goodput"
          (let phys = tr (fun t -> t.W.phys_bytes) in
           if phys = 0. then 0. else tr (fun t -> t.W.logical_bytes) /. phys);
        r "pool.busy_frac" (med (fun p -> p.p_cpu /. (p.p_wall *. float_of_int jobs)) plains);
        { name = "gc.minor_words"; unit_ = "words"; value = med (fun p -> p.minor_words) plains };
        c "gc.major_collections" (med (fun p -> float_of_int p.major) plains);
      ]
    @ List.map (fun st -> r ("attrib." ^ st ^ ".residual_frac") (step_attrib st)) steps
    @ [
        r "attrib.merge.residual_frac" merge_attrib;
        r "trace.overhead_frac"
          (if untraced_wall = 0. then 0. else (med (fun t -> t.t_wall) traceds /. untraced_wall) -. 1.);
      ]
  in
  Printf.printf "%s: %d untraced + %d traced sessions, %d failed; unit costs on %s\n" w.W.name
    (Array.length plains) (Array.length traceds) !failed env.W.group_name;
  report metrics;
  print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics
