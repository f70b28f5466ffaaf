open Mpas_numerics
open Mpas_patterns
open Mpas_machine
open Mpas_hybrid

(* --- Table I ------------------------------------------------------------- *)

let table1 () =
  let rows =
    List.map
      (fun (i : Pattern.instance) ->
        [
          Pattern.kernel_name i.Pattern.kernel;
          i.Pattern.id;
          Pattern.kind_name i.Pattern.kind;
          String.concat ", " i.Pattern.inputs;
          String.concat ", " i.Pattern.outputs;
          (if i.Pattern.irregular then "yes" else "no");
        ])
      Registry.instances
  in
  Report.make ~title:"Table I: pattern instances and their variables"
    ~headers:[ "kernel"; "pattern"; "kind"; "inputs"; "outputs"; "irregular" ]
    ~notes:
      [
        "stencil letters follow Figure 3: A mass<-velocity, B velocity<-mass, \
         C vorticity<-mass, D vorticity<-velocity, E mass<-vorticity, F \
         velocity<-vorticity, G velocity<-velocity, H mass<-mass";
        "irregular = edge/vertex-order reduction in the original code \
         (Algorithm 2), refactored per Algorithm 3/4";
      ]
    rows

(* --- Table II ------------------------------------------------------------ *)

let table2 () =
  let dev_rows (d : Hw.device) =
    [
      d.Hw.name;
      string_of_int d.Hw.cores ^ "/" ^ string_of_int (Hw.threads d);
      Format.sprintf "%.1f GHz" d.Hw.freq_ghz;
      string_of_int d.Hw.simd_width_dp ^ " dp";
      Format.sprintf "%.1f" d.Hw.peak_gflops;
      Format.sprintf "%.0f GB/s" d.Hw.mem_bw_gbs;
    ]
  in
  Report.make ~title:"Table II: modelled platform configuration"
    ~headers:
      [ "device"; "cores/threads"; "frequency"; "SIMD"; "peak DP GF"; "mem BW" ]
    ~notes:
      [ "one MPI process = one 10-core CPU + one Xeon Phi (paper SS V)" ]
    [ dev_rows Hw.xeon_e5_2680_v2; dev_rows Hw.xeon_phi_5110p ]

(* --- Table III ----------------------------------------------------------- *)

let table3 () =
  let rows =
    List.map
      (fun (name, level) ->
        let s = Cost.stats_of_level level in
        [
          name;
          string_of_int level;
          string_of_int s.Cost.n_cells;
          string_of_int s.Cost.n_edges;
          string_of_int s.Cost.n_vertices;
        ])
      Cost.table3_meshes
  in
  Report.make ~title:"Table III: quasi-uniform SCVT meshes"
    ~headers:[ "resolution"; "bisection level"; "cells"; "edges"; "vertices" ]
    ~notes:[ "cell counts match the paper's 40962 / 163842 / 655362 / 2621442" ]
    rows

(* --- Figure 5 ------------------------------------------------------------ *)

let fig5 ?(level = 4) ?(lloyd_iters = 3) ?(hours = 6.) ?(domains = 4) () =
  let open Mpas_swe in
  let mesh = Mpas_mesh.Build.icosahedral ~level ~lloyd_iters () in
  let original = Model.init ~engine:Timestep.original Williamson.Tc5 mesh in
  let hybrid = Model.init Williamson.Tc5 mesh in
  let steps =
    Int.max 1 (int_of_float (Float.round (hours *. 3600. /. original.Model.dt)))
  in
  Model.run original ~steps;
  Mpas_par.Pool.with_pool ~n_domains:domains (fun pool ->
      Model.set_engine hybrid
        Mpas_runtime.(
          Engine.timestep_engine
            (Engine.create ~mode:Exec.Steal ~fuse:true ~tiling:`Auto
               ~pool ()));
      Model.run hybrid ~steps);
  let th_original = Model.total_height original in
  let th_hybrid = Model.total_height hybrid in
  let lo, hi = Stats.min_max th_original in
  let max_diff = Stats.max_abs_diff th_original th_hybrid in
  let rms_diff =
    Stats.l2_diff th_original th_hybrid /. sqrt (float_of_int mesh.n_cells)
  in
  let drift =
    Conservation.drift
      ~reference:(Model.invariants original)
      (Model.invariants hybrid)
  in
  Report.make
    ~title:
      (Format.sprintf
         "Figure 5: TC5 total height h+b after %.1f h, original vs \
          hybrid/parallel (level %d, %d cells, %d steps)"
         hours level mesh.n_cells steps)
    ~headers:[ "quantity"; "value" ]
    ~notes:
      [
        "paper: the two results differ within machine precision relative to \
         the field magnitude; so do ours";
        "the parallel engine runs the fused task program (refactored \
         Algorithm 3/4 loops) over work-stealing lanes on a domain pool";
      ]
    [
      [ "total height min"; Report.f3 lo ];
      [ "total height max"; Report.f3 hi ];
      [ "max |difference|"; Format.sprintf "%.3e" max_diff ];
      [ "rms difference"; Format.sprintf "%.3e" rms_diff ];
      [ "relative max diff"; Format.sprintf "%.3e" (max_diff /. hi) ];
      [ "mass drift between engines"; Format.sprintf "%.3e" drift.Conservation.mass ];
      [ "energy drift between engines"; Format.sprintf "%.3e" drift.Conservation.energy ];
    ]

(* --- Figure 6 ------------------------------------------------------------ *)

let fig6 () =
  let stats = Cost.stats_of_level 8 in
  let p = Costmodel.default_params in
  let mic = Hw.xeon_phi_5110p in
  let base = Costmodel.step_time_single_device mic p Costmodel.baseline stats in
  let paper = Calibration.fig6_anchor_speedups in
  let rows =
    List.map2
      (fun (name, flags) (_, anchor) ->
        let t = Costmodel.step_time_single_device mic p flags stats in
        [
          name;
          Report.f3 t;
          Report.speedup (base /. t);
          Report.speedup anchor;
        ])
      Costmodel.fig6_ladder paper
  in
  Report.make
    ~title:
      "Figure 6: cumulative optimizations on one Xeon Phi (30-km mesh, \
       655362 cells)"
    ~headers:[ "stage"; "s/step (model)"; "speedup (model)"; "speedup (paper)" ]
    ~notes:
      [
        "speedups are over the single-core unoptimized MIC baseline, as in \
         the paper";
      ]
    rows

(* --- Figure 7 ------------------------------------------------------------ *)

let paper_fig7 =
  (* (cpu, kernel-level, pattern-driven) seconds per step. *)
  [
    ("120-km", (0.271, 0.059, 0.045));
    ("60-km", (1.115, 0.198, 0.143));
    ("30-km", (4.434, 0.741, 0.532));
    ("15-km", (17.528, 2.896, 2.102));
  ]

let fig7 () =
  let p = Costmodel.default_params in
  let cfg = Schedule.default_config ~split:0. in
  let rows =
    List.map
      (fun (name, level) ->
        let stats = Cost.stats_of_level level in
        let cpu =
          Costmodel.step_time_single_device Hw.xeon_e5_2680_v2 p
            Costmodel.baseline stats
        in
        let kernel = Schedule.step_time cfg stats Plan.kernel_level in
        let split, pattern =
          Schedule.optimize_split cfg stats Plan.pattern_driven
        in
        let pc, pk, pp = List.assoc name paper_fig7 in
        [
          name;
          Report.f3 cpu;
          Report.f3 kernel;
          Report.f3 pattern;
          Report.speedup (cpu /. kernel);
          Report.speedup (cpu /. pattern);
          Format.sprintf "%.2f" split;
          Format.sprintf "%.2fx / %.2fx" (pc /. pk) (pc /. pp);
        ])
      Cost.table3_meshes
  in
  Report.make
    ~title:
      "Figure 7: per-step time and speedup of the hybrid designs vs the \
       single-core CPU code"
    ~headers:
      [
        "mesh"; "cpu s/step"; "kernel s/step"; "pattern s/step";
        "kernel speedup"; "pattern speedup"; "best split"; "paper speedups";
      ]
    ~notes:
      [
        "the adjustable split is re-optimized per mesh (paper SSIII-C: \
         'adaptively controlled according to the configuration')";
      ]
    rows

(* --- Figures 8 and 9 ------------------------------------------------------ *)

let procs = [ 1; 2; 4; 8; 16; 32; 64 ]

let scaled_stats stats ranks =
  let f n = Int.max 1 (n / ranks) in
  {
    stats with
    Cost.n_cells = f stats.Cost.n_cells;
    n_edges = f stats.Cost.n_edges;
    n_vertices = f stats.Cost.n_vertices;
  }

let hybrid_step_time cfg stats =
  snd (Schedule.optimize_split ~grid:20 cfg stats Plan.pattern_driven)

let strong_rows level =
  let stats = Cost.stats_of_level level in
  let p = Costmodel.default_params in
  let net = Hw.fdr_infiniband in
  let cfg = Schedule.default_config ~split:0. in
  List.map
    (fun ranks ->
      let local = scaled_stats stats ranks in
      let patch = Netmodel.analytic_patch ~cells:stats.Cost.n_cells ~ranks in
      let cpu =
        Costmodel.step_time_single_device Hw.xeon_e5_2680_v2 p
          Costmodel.baseline local
        +. Netmodel.comm_time_per_step net patch
      in
      let hybrid =
        hybrid_step_time cfg local
        +. Netmodel.comm_time_per_step net ~device_link:Hw.pcie_gen2_x16 patch
      in
      (ranks, cpu, hybrid))
    procs

let fig8 () =
  let rows =
    List.concat_map
      (fun (name, level) ->
        List.map
          (fun (ranks, cpu, hybrid) ->
            [
              name;
              string_of_int ranks;
              Report.f3 cpu;
              Report.f3 hybrid;
              Report.speedup (cpu /. hybrid);
            ])
          (strong_rows level))
      [ ("30-km", 8); ("15-km", 9) ]
  in
  Report.make
    ~title:"Figure 8: strong scaling, 1-64 MPI processes"
    ~headers:
      [ "mesh"; "processes"; "cpu s/step"; "hybrid s/step"; "hybrid/cpu" ]
    ~notes:
      [
        "paper: hybrid outperforms the CPU code by nearly one order of \
         magnitude on the 15-km mesh and keeps comparable parallel \
         efficiency; the small mesh loses efficiency at high process counts";
      ]
    rows

let fig9 () =
  let per_proc = Cost.stats_of_level 6 in
  let p = Costmodel.default_params in
  let net = Hw.fdr_infiniband in
  let cfg = Schedule.default_config ~split:0. in
  let rows =
    List.filter_map
      (fun ranks ->
        if ranks > 64 then None
        else begin
          let total_cells = per_proc.Cost.n_cells * ranks in
          let patch = Netmodel.analytic_patch ~cells:total_cells ~ranks in
          let cpu =
            Costmodel.step_time_single_device Hw.xeon_e5_2680_v2 p
              Costmodel.baseline per_proc
            +. Netmodel.comm_time_per_step net patch
          in
          let hybrid =
            hybrid_step_time cfg per_proc
            +. Netmodel.comm_time_per_step net ~device_link:Hw.pcie_gen2_x16
                 patch
          in
          Some
            [
              string_of_int ranks;
              string_of_int total_cells;
              Report.f3 cpu;
              Report.f3 hybrid;
            ]
        end)
      [ 1; 4; 16; 64 ]
  in
  Report.make
    ~title:"Figure 9: weak scaling at ~40962 cells per process"
    ~headers:[ "processes"; "total cells"; "cpu s/step"; "hybrid s/step" ]
    ~notes:
      [
        "paper: both codes stay nearly flat (CPU ~0.271-0.274 s, hybrid \
         ~0.045-0.047 s)";
      ]
    rows


(* --- ablations beyond the paper's figures -------------------------------- *)

let ablation_device_ratio () =
  (* SS II-C claims the hybrid method suits "any heterogeneous
     architecture with arbitrary host-to-device ratios": vary the
     accelerator and watch the optimal adjustable split adapt. *)
  let stats = Cost.stats_of_level 8 in
  let p = Costmodel.default_params in
  let cpu_serial =
    Costmodel.step_time_single_device Hw.xeon_e5_2680_v2 p Costmodel.baseline
      stats
  in
  let weak_phi =
    { Hw.xeon_phi_5110p with
      Hw.name = "half-size Xeon Phi";
      cores = 30;
      peak_gflops = Hw.xeon_phi_5110p.Hw.peak_gflops /. 2.;
      mem_bw_gbs = Hw.xeon_phi_5110p.Hw.mem_bw_gbs /. 2. }
  in
  let rows =
    List.map
      (fun acc ->
        let cfg =
          { (Schedule.default_config ~split:0.) with
            Schedule.node = { Hw.paper_node with Hw.acc } }
        in
        let split, t = Schedule.optimize_split cfg stats Plan.pattern_driven in
        [
          acc.Hw.name;
          Format.sprintf "%.0f GF / %.0f GB/s" acc.Hw.peak_gflops
            acc.Hw.mem_bw_gbs;
          Format.sprintf "%.2f" split;
          Report.f3 t;
          Report.speedup (cpu_serial /. t);
        ])
      [ weak_phi; Hw.xeon_phi_5110p; Hw.tesla_k20x ]
  in
  Report.make
    ~title:
      "Ablation: the adjustable split adapts to the host/device ratio \
       (30-km mesh)"
    ~headers:[ "accelerator"; "strength"; "best split"; "s/step"; "speedup" ]
    ~notes:
      [
        "weaker accelerators push more adjustable work onto the host \
         (larger split), stronger ones pull it back — SS II-C's \
         'arbitrary host-to-device ratios'";
      ]
    rows

let ablation_residency () =
  (* SS IV-A: up-front data residency vs on-demand transfers. *)
  let rows =
    List.map
      (fun (name, level) ->
        let stats = Cost.stats_of_level level in
        let cfg = Schedule.default_config ~split:0.55 in
        let on = Schedule.step_result cfg stats Plan.pattern_driven in
        let off =
          Schedule.step_result
            { cfg with Schedule.residency = false }
            stats Plan.pattern_driven
        in
        [
          name;
          Report.f3 on.Simulate.link_busy;
          Report.f3 off.Simulate.link_busy;
          Report.speedup
            (off.Simulate.link_busy /. on.Simulate.link_busy);
          Report.speedup (off.Simulate.makespan /. on.Simulate.makespan);
        ])
      Cost.table3_meshes
  in
  Report.make
    ~title:"Ablation: device residency vs on-demand transfers (SS IV-A)"
    ~headers:
      [ "mesh"; "link busy resident (s)"; "link busy on-demand (s)";
        "traffic ratio"; "step slowdown" ]
    ~notes:
      [ "the paper reports the resident design moves at least 4x less data" ]
    rows

let all ?(fig5_level = 4) ?(fig5_hours = 6.) () =
  [
    table1 ();
    table2 ();
    table3 ();
    fig5 ~level:fig5_level ~hours:fig5_hours ();
    fig6 ();
    fig7 ();
    fig8 ();
    fig9 ();
    ablation_device_ratio ();
    ablation_residency ();
  ]

let convergence ?(levels = [ 2; 3; 4; 5 ]) ?(hours = 3.) () =
  (* Spatial accuracy against the analytic TC2 steady state: the
     discrete solution drifts from the exact one by the truncation
     error, so the error after a fixed simulated time measures the
     spatial order of the TRiSK scheme on quasi-uniform SCVT grids. *)
  let open Mpas_swe in
  let errs =
    List.map
      (fun level ->
        let mesh = Mpas_mesh.Build.icosahedral ~level ~lloyd_iters:4 () in
        let model = Model.init Williamson.Tc2 mesh in
        let exact = Array.copy model.Model.state.Fields.h in
        let steps =
          Int.max 1 (int_of_float (hours *. 3600. /. model.Model.dt))
        in
        Model.run model ~steps;
        let l2 =
          Stats.l2_diff exact model.Model.state.Fields.h
          /. Stats.l2_norm exact
        in
        let linf = Stats.max_abs_diff exact model.Model.state.Fields.h in
        (level, Mpas_mesh.Mesh.mean_spacing mesh /. 1000., l2, linf))
      levels
  in
  let rows =
    List.mapi
      (fun i (level, spacing, l2, linf) ->
        let order =
          if i = 0 then "-"
          else begin
            let _, _, prev, _ = List.nth errs (i - 1) in
            Format.sprintf "%.2f" (Float.log (prev /. l2) /. Float.log 2.)
          end
        in
        [
          string_of_int level;
          Format.sprintf "%.0f km" spacing;
          Format.sprintf "%.3e" l2;
          Format.sprintf "%.3f m" linf;
          order;
        ])
      errs
  in
  Report.make
    ~title:
      (Format.sprintf
         "Convergence: TC2 steady-state error after %.1f h vs resolution"
         hours)
    ~headers:[ "level"; "spacing"; "relative l2(h) error"; "linf(h)"; "order" ]
    ~notes:
      [
        "an extension of the paper's correctness validation: the TRiSK \
         scheme converges at first-to-second order on these quasi-uniform \
         grids";
      ]
    rows

let model_vs_measured ?(level = 4) ?(steps = 5) () =
  (* Grounding the cost model: its predicted per-kernel shares of a
     serial step should match the shares actually measured when the
     real solver runs on this machine.  Absolute times differ (the
     model is calibrated to the paper's Xeon, not this container); the
     distribution across kernels is the testable part. *)
  let open Mpas_swe in
  let mesh = Mpas_mesh.Build.icosahedral ~level ~lloyd_iters:2 () in
  let model = Model.init ~engine:Timestep.refactored Williamson.Tc5 mesh in
  let profile = Profile.measure model ~steps in
  let measured_total = Profile.total profile in
  let stats = Cost.stats_of_mesh mesh in
  let p = Costmodel.default_params in
  let predicted k =
    float_of_int (Cost.kernel_calls_per_step k)
    *. List.fold_left
         (fun acc (i : Pattern.instance) ->
           acc
           +. Costmodel.instance_time_by_id Hw.xeon_e5_2680_v2 p
                Costmodel.baseline stats i.Pattern.id)
         0. (Registry.of_kernel k)
  in
  let predicted_total =
    List.fold_left (fun acc k -> acc +. predicted k) 0. Pattern.all_kernels
  in
  let swe_kernel_of = function
    | Pattern.Compute_tend -> Timestep.Compute_tend
    | Pattern.Enforce_boundary_edge -> Timestep.Enforce_boundary_edge
    | Pattern.Compute_next_substep_state -> Timestep.Compute_next_substep_state
    | Pattern.Compute_solve_diagnostics -> Timestep.Compute_solve_diagnostics
    | Pattern.Accumulative_update -> Timestep.Accumulative_update
    | Pattern.Mpas_reconstruct -> Timestep.Mpas_reconstruct
    | Pattern.Halo_exchange -> Timestep.Halo_exchange
  in
  let rows =
    List.map
      (fun k ->
        let measured = List.assoc (swe_kernel_of k) profile in
        [
          Pattern.kernel_name k;
          Format.sprintf "%.1f%%" (100. *. measured /. measured_total);
          Format.sprintf "%.1f%%" (100. *. predicted k /. predicted_total);
        ])
      Pattern.all_kernels
  in
  Report.make
    ~title:
      (Format.sprintf
         "Validation: measured vs modelled per-kernel share of a serial \
          step (level %d, %d steps)"
         level steps)
    ~headers:[ "kernel"; "measured share"; "modelled share" ]
    ~notes:
      [
        "measured on this machine with Mpas_swe.Profile; modelled with the \
         paper-calibrated cost model — only the distribution is comparable";
      ]
    rows

let convergence_tc5 ?(levels = [ 2; 3 ]) ?(reference_level = 4) ?(hours = 6.)
    () =
  (* Unsteady convergence: TC5 has no closed-form solution, so each
     coarse run is remapped onto a fine reference run's mesh and
     compared there (Mpas_mesh.Remap). *)
  let open Mpas_swe in
  let run level =
    let mesh = Mpas_mesh.Build.icosahedral ~level ~lloyd_iters:3 () in
    let model = Model.init Williamson.Tc5 mesh in
    let steps = Int.max 1 (int_of_float (hours *. 3600. /. model.Model.dt)) in
    Model.run model ~steps;
    (mesh, model.Model.state.Fields.h)
  in
  let fine_mesh, reference = run reference_level in
  let rows =
    List.map
      (fun level ->
        let coarse_mesh, h = run level in
        let err =
          Mpas_mesh.Remap.l2_error ~coarse:coarse_mesh ~fine:fine_mesh
            ~field:h ~reference
        in
        [
          string_of_int level;
          Format.sprintf "%.0f km"
            (Mpas_mesh.Mesh.mean_spacing coarse_mesh /. 1000.);
          Format.sprintf "%.3e" err;
        ])
      levels
  in
  Report.make
    ~title:
      (Format.sprintf
         "Convergence (unsteady): TC5 height error after %.1f h vs a \
          level-%d reference"
         hours reference_level)
    ~headers:[ "level"; "spacing"; "relative l2(h) error vs reference" ]
    ~notes:
      [ "coarse solutions are remapped onto the reference mesh before \
         comparison" ]
    rows

let stability ?(levels = [ 2; 3; 4 ]) () =
  (* CFL validation: bisect the largest stable RK-4 step on each mesh
     and check it scales linearly with the spacing.  "Stable" = the
     height field stays finite and within physical bounds over a short
     burst of steps. *)
  let open Mpas_swe in
  let stable mesh dt =
    let model = Model.init ~dt Williamson.Tc5 mesh in
    (try Model.run model ~steps:12 with _ -> ());
    Array.for_all
      (fun h -> Float.is_finite h && h > 1000. && h < 12000.)
      model.Model.state.Fields.h
  in
  let rows =
    List.map
      (fun level ->
        let mesh = Mpas_mesh.Build.icosahedral ~level ~lloyd_iters:3 () in
        let lo = ref (Williamson.recommended_dt Williamson.Tc5 mesh /. 4.) in
        let hi = ref (Williamson.recommended_dt Williamson.Tc5 mesh *. 16.) in
        for _ = 1 to 12 do
          let mid = 0.5 *. (!lo +. !hi) in
          if stable mesh mid then lo := mid else hi := mid
        done;
        let dc_min =
          Array.fold_left Float.min Float.infinity mesh.Mpas_mesh.Mesh.dc_edge
        in
        let wave = sqrt (9.80616 *. 5960.) in
        [
          string_of_int level;
          Format.sprintf "%.0f km"
            (Mpas_mesh.Mesh.mean_spacing mesh /. 1000.);
          Format.sprintf "%.0f s" !lo;
          Format.sprintf "%.2f" (!lo *. wave /. dc_min);
        ])
      levels
  in
  Report.make
    ~title:"Stability: largest stable RK-4 step on TC5 (bisected)"
    ~headers:[ "level"; "spacing"; "max stable dt"; "implied CFL" ]
    ~notes:
      [
        "the max stable dt halves with the spacing, i.e. the implied \
         gravity-wave CFL number stays roughly constant (RK-4 linear \
         stability allows CFL up to ~2.8)";
      ]
    rows
