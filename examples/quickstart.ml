(* Quickstart: build a small SCVT mesh, run the shallow-water model on
   the Williamson mountain test case for a simulated hour, and print
   the conservation diagnostics.

   Run with: dune exec examples/quickstart.exe *)

open Mpas_swe

let () =
  (* 1. An icosahedral SCVT mesh: level 4 = 2562 cells (~480 km). *)
  let mesh = Mpas_mesh.Build.icosahedral ~level:4 ~lloyd_iters:3 () in
  Printf.printf "mesh: %d cells, %d edges, %d vertices\n" mesh.n_cells
    mesh.n_edges mesh.n_vertices;

  (* 2. A model initialized from Williamson test case 5 (zonal flow
     over an isolated mountain), with an automatic CFL-based step.  It
     runs the default engine, Timestep.fused: the step's kernels packed
     into fused super-kernel chains on one core. *)
  let model = Model.init Williamson.Tc5 mesh in
  Printf.printf "dt = %.0f s\n" model.dt;

  (* 3. Integrate one simulated hour and check the invariants. *)
  let before = Model.invariants model in
  let steps = int_of_float (3600. /. model.dt) + 1 in
  Model.run model ~steps;
  let drift = Conservation.drift ~reference:before (Model.invariants model) in
  Printf.printf "after %.1f min: mass drift %.2e, energy drift %.2e\n"
    (Model.time model /. 60.)
    drift.mass drift.energy;

  (* 4. The same model runs on a pool of OCaml domains: the task
     runtime schedules the fused (race-free) kernel chains over
     work-stealing lanes — same answer, bit for bit. *)
  let h_serial = Array.copy model.state.h in
  let model2 = Model.init Williamson.Tc5 mesh in
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      Model.set_engine model2
        Mpas_runtime.(
          Engine.timestep_engine
            (Engine.create ~mode:Exec.Steal ~fuse:true ~tiling:`Auto
               ~pool ()));
      Model.run model2 ~steps);
  Printf.printf "serial vs 4-domain max |dh| = %.3e m\n"
    (Mpas_numerics.Stats.max_abs_diff h_serial model2.state.h)
