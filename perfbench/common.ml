(* Shared by the end-to-end and the traced run: the result line, and
   one checked session attempt. *)

module W = Workload

(* ---- Result line ---- *)

type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let report metrics =
  List.iter (fun m -> Printf.printf "  %-32s %18s %s\n" m.name (json_number m.value) m.unit_) metrics

(* ---- Sessions ---- *)

type sample = { index : int; wall_s : float; outcome : W.outcome }

(* Run one session; a wrong answer, a raised exception (Party_dropped
   included) or a digest that differs from an earlier session on the
   same input set is a failure. *)
let attempt (env : W.env) inputs digests ~index ~run =
  match run (fun () -> env.W.session inputs.(index)) with
  | exception e ->
      Printf.printf "  session on input %d FAILED: %s\n%!" index (Printexc.to_string e);
      None
  | (wall_s, (o : W.outcome)), extra -> (
      let digest_wrong =
        match Hashtbl.find_opt digests index with
        | Some d when d <> o.W.digest -> Some "transcript digest differs from an earlier session on the same inputs"
        | _ ->
            Hashtbl.replace digests index o.W.digest;
            None
      in
      match W.first_some [ o.W.wrong; digest_wrong ] with
      | Some why ->
          Printf.printf "  session on input %d FAILED: %s\n%!" index why;
          None
      | None -> Some ({ index; wall_s; outcome = o }, extra))

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

