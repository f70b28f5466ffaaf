(* Smoke check for the dataflow task runtime: a few RK-4 steps on a
   tiny mesh must reproduce the sequential engine bit for bit under
   (1) the unfused work-stealing DAG engine on two domains with the
   pattern-driven plan and a real 0.5 split, and (2) the full
   optimisation stack — fused super-tasks, cache-aware tiling and
   work-stealing lanes on four domains.  Wired to the [runtime-smoke]
   dune alias, which CI builds on every push. *)

open Mpas_swe

let () =
  let m = Mpas_mesh.Build.icosahedral ~level:2 () in
  let steps = 5 in
  let reference = Model.init ~engine:Timestep.refactored Williamson.Tc5 m in
  Model.run reference ~steps;
  let same a b =
    Array.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      a b
  in
  let matches eng =
    let model =
      Model.init ~engine:(Mpas_runtime.Engine.timestep_engine eng)
        Williamson.Tc5 m
    in
    Model.run model ~steps;
    same reference.Model.state.Fields.h model.Model.state.Fields.h
    && same reference.Model.state.Fields.u model.Model.state.Fields.u
  in
  let check name ok =
    if ok then Printf.printf "runtime-smoke ok: %s\n%!" name
    else begin
      Printf.eprintf "runtime-smoke FAILED: %s diverged from sequential\n%!"
        name;
      exit 1
    end
  in
  Mpas_par.Pool.with_pool ~n_domains:2 (fun pool ->
      check "unfused stealing DAG engine (2 domains, split 0.5)"
        (matches
           (Mpas_runtime.Engine.create ~mode:Mpas_runtime.Exec.Steal ~pool
              ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.5 ())));
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      check "fused+stealing+tiled engine (4 domains)"
        (matches
           (Mpas_runtime.Engine.create ~mode:Mpas_runtime.Exec.Steal ~pool
              ~fuse:true ~tiling:`Auto ())));
  print_endline
    "runtime-smoke ok: all engines bit-identical to sequential (5 steps)"
