(* Run the shallow-water model on a Williamson test case and report
   timing and conservation. *)

open Cmdliner
open Mpas_swe

let case_of_string = function
  | "tc2" -> Ok Williamson.Tc2
  | "tc2r" -> Ok Williamson.Tc2_rotated
  | "tc5" -> Ok Williamson.Tc5
  | "tc6" -> Ok Williamson.Tc6
  | "galewsky" -> Ok Williamson.Galewsky
  | "galewsky-balanced" -> Ok Williamson.Galewsky_balanced
  | other -> Error (`Msg ("unknown test case: " ^ other))

let engine_of_string = function
  | "fused" -> Ok `Fused
  | "original" -> Ok `Original
  | "refactored" -> Ok `Refactored
  | "parallel" -> Ok `Parallel
  | "distributed" -> Ok `Distributed
  | other -> Error (`Msg ("unknown engine: " ^ other))

let dump_csv (model : Model.t) path =
  let m = model.Model.mesh in
  let th = Model.total_height model in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "lon,lat,h,total_height,b\n";
      for c = 0 to m.Mpas_mesh.Mesh.n_cells - 1 do
        Printf.fprintf oc "%.6f,%.6f,%.3f,%.3f,%.3f\n"
          m.Mpas_mesh.Mesh.lon_cell.(c) m.Mpas_mesh.Mesh.lat_cell.(c)
          model.Model.state.Mpas_swe.Fields.h.(c)
          th.(c) model.Model.b.(c)
      done)

let run case level lloyd hours dt engine domains dump checkpoint restart vtk =
  let mesh = Mpas_mesh.Build.icosahedral ~level ~lloyd_iters:lloyd () in
  Printf.printf "mesh: %d cells, %d edges, mean spacing %.0f km\n%!"
    mesh.Mpas_mesh.Mesh.n_cells mesh.Mpas_mesh.Mesh.n_edges
    (Mpas_mesh.Mesh.mean_spacing mesh /. 1000.);
  let model =
    match restart with
    | Some path ->
        let state = State_io.load path in
        let prepared = Williamson.prepare_mesh case mesh in
        let _, b = Williamson.init case prepared in
        let dt =
          match dt with
          | Some d -> d
          | None -> Williamson.recommended_dt case prepared
        in
        Printf.printf "restarting from %s\n%!" path;
        Model.of_state ~dt ~b prepared state
    | None -> (
        match dt with
        | Some dt -> Model.init ~dt case mesh
        | None -> Model.init case mesh)
  in
  let steps =
    Int.max 1 (int_of_float (Float.round (hours *. 3600. /. model.Model.dt)))
  in
  Printf.printf "%s: dt = %.1f s, %d steps (%.1f h)\n%!"
    (Williamson.case_name case) model.Model.dt steps hours;
  let inv0 = Model.invariants model in
  let wall = Unix.gettimeofday () in
  (match engine with
  | `Original ->
      Model.set_engine model Timestep.original;
      Model.run model ~steps
  | `Fused -> Model.run model ~steps
  | `Refactored ->
      Model.set_engine model Timestep.refactored;
      Model.run model ~steps
  | `Parallel ->
      (* The fused task program on work-stealing lanes; configurations
         outside it fall back to the sequential classic driver. *)
      Mpas_par.Pool.with_pool ~n_domains:domains (fun pool ->
          Model.set_engine model
            Mpas_runtime.(
              Engine.timestep_engine
                (Engine.create ~mode:Exec.Steal ~fuse:true ~tiling:`Auto
                   ~pool ()));
          Model.run model ~steps)
  | `Distributed ->
      (* Simulated MPI over [domains] ranks; results are bitwise equal
         to the serial engines, so copy the gathered state back. *)
      let dist =
        Mpas_dist.Driver.of_state ~config:model.Model.config
          ~n_ranks:domains ~dt:model.Model.dt ~b:model.Model.b
          model.Model.mesh model.Model.state
      in
      Mpas_dist.Driver.run dist ~steps;
      Mpas_swe.Fields.blit_state
        ~src:(Mpas_dist.Driver.gather_state dist)
        ~dst:model.Model.state;
      Printf.printf "halo traffic: %.2f MB over %d exchanges\n"
        (Mpas_dist.Exchange.bytes_moved dist.Mpas_dist.Driver.exchange /. 1e6)
        dist.Mpas_dist.Driver.exchange.Mpas_dist.Exchange.exchanges);
  let wall = Unix.gettimeofday () -. wall in
  let drift = Conservation.drift ~reference:inv0 (Model.invariants model) in
  let th = Model.total_height model in
  let lo, hi = Mpas_numerics.Stats.min_max th in
  Printf.printf "wall time: %.2f s (%.4f s/step)\n" wall
    (wall /. float_of_int steps);
  Printf.printf "total height range: [%.1f, %.1f] m\n" lo hi;
  Printf.printf "mass drift: %.3e  energy drift: %.3e  enstrophy drift: %.3e\n"
    drift.Conservation.mass drift.Conservation.energy
    drift.Conservation.potential_enstrophy;
  (match dump with
  | Some path ->
      dump_csv model path;
      Printf.printf "height field written to %s\n" path
  | None -> ());
  (match checkpoint with
  | Some path ->
      State_io.save model.Model.state path;
      Printf.printf "checkpoint written to %s\n" path
  | None -> ());
  (match vtk with
  | Some path ->
      Mpas_mesh.Vtk.save model.Model.mesh
        [ ("h", model.Model.state.Mpas_swe.Fields.h);
          ("total_height", Model.total_height model);
          ("bottom", model.Model.b) ]
        path;
      Printf.printf "VTK file written to %s\n" path
  | None -> ());
  0

(* [base] restricted to the values [ok] accepts: anything else is a
   command-line error (exit 124) naming the option. *)
let restrict base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S: expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int =
  restrict Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let non_negative_int =
  restrict Arg.int ~expected:"a non-negative integer" (fun n -> n >= 0)

let positive_float =
  restrict Arg.float ~expected:"a finite positive number" (fun x ->
      Float.is_finite x && x > 0.)

let case =
  Arg.(value
       & opt (conv (case_of_string, fun ppf _ -> Format.fprintf ppf "case"))
           Williamson.Tc5
       & info [ "case" ] ~docv:"CASE" ~doc:"Test case: tc2, tc2r (rotated), tc5, tc6, galewsky or \
                 galewsky-balanced.")

let level =
  Arg.(value & opt non_negative_int 4
       & info [ "level" ] ~docv:"N" ~doc:"Icosahedral bisection level.")

let lloyd =
  Arg.(value & opt non_negative_int 3
       & info [ "lloyd" ] ~docv:"N" ~doc:"Lloyd (SCVT) relaxation iterations.")

let hours =
  Arg.(value & opt positive_float 6.
       & info [ "hours" ] ~docv:"H" ~doc:"Simulated hours.")

let dt =
  Arg.(value & opt (some positive_float) None
       & info [ "dt" ] ~docv:"S" ~doc:"Time step override in seconds.")

let engine =
  Arg.(value
       & opt (conv (engine_of_string, fun ppf _ -> Format.fprintf ppf "engine"))
           `Fused
       & info [ "engine" ] ~docv:"E"
           ~doc:"Execution engine: fused (the default: sequential fused \
                 super-kernels), refactored (unfused gather loops), \
                 original (scatter loops), parallel (the fused task \
                 program on work-stealing lanes over a --domains pool) or \
                 distributed (simulated MPI over --domains ranks).")

let domains =
  Arg.(value & opt positive_int 4
       & info [ "domains" ] ~docv:"N"
           ~doc:"Domain-pool size (workers plus the caller) for the parallel \
                 engine; rank count for the distributed engine.")

let dump =
  Arg.(value & opt (some string) None
       & info [ "dump" ] ~docv:"PATH"
           ~doc:"Write the final height field as CSV (lon,lat,h,h+b,b).")

let checkpoint =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"PATH"
           ~doc:"Save the final prognostic state for later --restart.")

let restart =
  Arg.(value & opt (some string) None
       & info [ "restart" ] ~docv:"PATH"
           ~doc:"Resume from a state saved with --checkpoint (the mesh \
                 options must match).")

let vtk =
  Arg.(value & opt (some string) None
       & info [ "vtk" ] ~docv:"PATH"
           ~doc:"Write the mesh and final height fields as a legacy VTK \
                 PolyData file for ParaView.")

let cmd =
  Cmd.v
    (Cmd.info "mpas_swe_run" ~doc:"Run the MPAS shallow-water model")
    Term.(const run $ case $ level $ lloyd $ hours $ dt $ engine $ domains
          $ dump $ checkpoint $ restart $ vtk)

let () = exit (Cmd.eval' cmd)
