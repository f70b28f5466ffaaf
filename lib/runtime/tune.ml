open Mpas_swe

let default_candidates =
  [ 0.; 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875; 1. ]

(* The tuner used to return the fastest candidate unconditionally —
   and on a host whose lanes outnumber its cores, the "winner" (often
   f = 1.0, everything on the host lanes) was still slower than not
   splitting at all.  So the unsplit engine (no plan, every lane a
   peer) is measured with the same protocol as the candidates, and a
   split is only recommended when it actually beats that baseline. *)
let best_split ?(candidates = default_candidates) ?(steps = 3) ?host_lanes
    ?recon ?time_fn ~pool ~plan cfg m ~b ~dt state =
  if candidates = [] then invalid_arg "Mpas_runtime.Tune.best_split: no candidates";
  if steps < 1 then invalid_arg "Mpas_runtime.Tune.best_split: steps < 1";
  let measure split =
    let state = Fields.copy_state state in
    let work = Timestep.alloc_workspace ~n_tracers:(Fields.n_tracers state) m in
    let eng =
      match split with
      | None -> Engine.create ~pool ()
      | Some split ->
          Engine.create ~pool ~plan ~split ?host_lanes ()
    in
    let te = Engine.timestep_engine eng in
    Timestep.init_diagnostics te cfg m ~dt ~state ~work;
    (* Warm-up step: compiles the program and faults the arrays in. *)
    Timestep.step te cfg m ~b ?recon ~dt ~state ~work ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to steps do
      Timestep.step te cfg m ~b ?recon ~dt ~state ~work ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int steps
  in
  let time_one = match time_fn with Some f -> f | None -> measure in
  let baseline = time_one None in
  let best_s, best_t =
    match candidates with
    | [] -> assert false
    | first :: rest ->
        List.fold_left
          (fun (bs, bt) s ->
            let t = time_one (Some s) in
            if t < bt then (s, t) else (bs, bt))
          (first, time_one (Some first))
          rest
  in
  if best_t < baseline then Some (best_s, best_t) else None
