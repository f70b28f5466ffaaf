type kernel =
  | Compute_tend
  | Enforce_boundary_edge
  | Compute_next_substep_state
  | Compute_solve_diagnostics
  | Accumulative_update
  | Mpas_reconstruct
  | Halo_exchange

let kernel_name = function
  | Compute_tend -> "compute_tend"
  | Enforce_boundary_edge -> "enforce_boundary_edge"
  | Compute_next_substep_state -> "compute_next_substep_state"
  | Compute_solve_diagnostics -> "compute_solve_diagnostics"
  | Accumulative_update -> "accumulative_update"
  | Mpas_reconstruct -> "mpas_reconstruct"
  | Halo_exchange -> "halo_exchange"

(* Halo_exchange carries no serial profile row: only the distributed
   runtime issues it. *)
let all_kernels =
  [ Compute_tend; Enforce_boundary_edge; Compute_next_substep_state;
    Compute_solve_diagnostics; Accumulative_update; Mpas_reconstruct ]

type workspace = {
  provis : Fields.state;
  tend : Fields.tendencies;
  accum : Fields.state;
  diag : Fields.diagnostics;
  recon : Fields.reconstruction;
}

type engine = {
  gather : bool;
  instrument : kernel -> (unit -> unit) -> unit;
  custom : custom option;
}

and custom =
  engine ->
  Config.t ->
  Mpas_mesh.Mesh.t ->
  b:float array ->
  recon:Reconstruct.t option ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit

let no_instrument _ f = f ()

let original = { gather = false; instrument = no_instrument; custom = None }
let refactored = { gather = true; instrument = no_instrument; custom = None }

let with_instrument e instrument = { e with instrument }
let with_custom e custom = { e with custom = Some custom }

let observed ?(registry = Mpas_obs.Metrics.default) e =
  let open Mpas_obs in
  (* One timer per kernel, resolved once; the span arguments record the
     engine variant the measurement was taken under. *)
  let timers =
    List.map
      (fun k -> (k, Metrics.timer ~registry ("swe.kernel." ^ kernel_name k)))
      all_kernels
  in
  let args = [ ("layout", if e.gather then "csr" else "ragged") ] in
  let base = e.instrument in
  with_instrument e (fun kernel f ->
      Metrics.Timer.time (List.assq kernel timers) (fun () ->
          Trace.with_span ~cat:"kernel" ~args (kernel_name kernel) (fun () ->
              base kernel f)))

let alloc_workspace ?(n_tracers = 0) m =
  {
    provis = Fields.alloc_state ~n_tracers m;
    tend = Fields.alloc_tendencies ~n_tracers m;
    accum = Fields.alloc_state ~n_tracers m;
    diag = Fields.alloc_diagnostics ~n_tracers m;
    recon = Fields.alloc_reconstruction m;
  }

(* --- kernels ----------------------------------------------------------- *)

let compute_solve_diagnostics e (cfg : Config.t) m ~dt ~(state : Fields.state)
    ~(diag : Fields.diagnostics) =
  let h = state.h and u = state.u in
  if e.gather then begin
    (match cfg.h_adv_order with
    | Config.Second -> ()
    | Config.Fourth -> Operators.d2fdx2 m ~h ~out:diag.d2fdx2_cell);
    Operators.h_edge m ~order:cfg.h_adv_order ~h
      ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge;
    Operators.kinetic_energy m ~u ~out:diag.ke;
    Operators.divergence m ~u ~out:diag.divergence;
    Operators.vorticity m ~u ~out:diag.vorticity;
    Operators.h_vertex m ~h ~out:diag.h_vertex
  end
  else begin
    (match cfg.h_adv_order with
    | Config.Second -> ()
    | Config.Fourth -> Operators.d2fdx2_scatter m ~h ~out:diag.d2fdx2_cell);
    Operators.h_edge m ~order:cfg.h_adv_order ~h
      ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge;
    Operators.kinetic_energy_scatter m ~u ~out:diag.ke;
    Operators.divergence_scatter m ~u ~out:diag.divergence;
    Operators.vorticity_scatter m ~u ~out:diag.vorticity;
    Operators.h_vertex m ~h ~out:diag.h_vertex
  end;
  Operators.pv_vertex m ~vorticity:diag.vorticity ~h_vertex:diag.h_vertex
    ~out:diag.pv_vertex;
  (if e.gather then
     Operators.pv_cell m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell
   else Operators.pv_cell_scatter m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell);
  Operators.tangential_velocity m ~u ~out:diag.v_tangential;
  Operators.grad_pv m ~pv_cell:diag.pv_cell ~pv_vertex:diag.pv_vertex
    ~out_n:diag.grad_pv_n ~out_t:diag.grad_pv_t;
  Operators.pv_edge m ~apvm_factor:cfg.apvm_factor ~dt
    ~pv_vertex:diag.pv_vertex ~grad_pv_n:diag.grad_pv_n
    ~grad_pv_t:diag.grad_pv_t ~u ~v_tangential:diag.v_tangential
    ~out:diag.pv_edge;
  Array.iteri
    (fun k tracer ->
      Operators.tracer_edge m ~scheme:cfg.tracer_adv ~tracer ~u
        ~out:diag.tracer_edge.(k))
    state.Fields.tracers

let compute_tend e (cfg : Config.t) m ~b ~(state : Fields.state)
    ~(diag : Fields.diagnostics) ~(tend : Fields.tendencies) =
  (if e.gather then
     Operators.tend_h m ~h_edge:diag.h_edge ~u:state.u ~out:tend.tend_h
   else
     Operators.tend_h_scatter m ~h_edge:diag.h_edge ~u:state.u
       ~out:tend.tend_h);
  Operators.tend_u ~pv_average:cfg.pv_average m ~gravity:cfg.gravity
    ~h:state.h ~b ~ke:diag.ke ~h_edge:diag.h_edge ~u:state.u
    ~pv_edge:diag.pv_edge ~out:tend.tend_u;
  Operators.dissipation m ~visc2:cfg.visc2 ~divergence:diag.divergence
    ~vorticity:diag.vorticity ~tend_u:tend.tend_u;
  Operators.local_forcing m ~drag:cfg.bottom_drag ~u:state.u
    ~tend_u:tend.tend_u;
  (* Biharmonic diffusion (extension): two more Laplacian sweeps. *)
  if cfg.visc4 <> 0. then begin
    Operators.velocity_laplacian m ~divergence:diag.divergence
      ~vorticity:diag.vorticity ~out:diag.lap_u;
    (if e.gather then begin
       Operators.divergence m ~u:diag.lap_u ~out:diag.div_lap;
       Operators.vorticity m ~u:diag.lap_u ~out:diag.vort_lap
     end
     else begin
       Operators.divergence_scatter m ~u:diag.lap_u ~out:diag.div_lap;
       Operators.vorticity_scatter m ~u:diag.lap_u ~out:diag.vort_lap
     end);
    Operators.del4_dissipation m ~visc4:cfg.visc4 ~div_lap:diag.div_lap
      ~vort_lap:diag.vort_lap ~tend_u:tend.tend_u
  end;
  (* Tracer transport (extension): conservative flux divergence. *)
  Array.iteri
    (fun k tracer_edge ->
      if e.gather then
        Operators.tend_tracer m ~h_edge:diag.h_edge ~u:state.u
          ~tracer_edge ~out:tend.tend_tracers.(k)
      else
        Operators.tend_tracer_scatter m ~h_edge:diag.h_edge ~u:state.u
          ~tracer_edge ~out:tend.tend_tracers.(k))
    diag.tracer_edge

(* --- driver ------------------------------------------------------------- *)

let init_diagnostics e cfg m ~dt ~state ~work =
  compute_solve_diagnostics e cfg m ~dt ~state ~diag:work.diag

let rk4_step e cfg m ~b ?recon ~dt ~(state : Fields.state) ~work () =
  let substep_coef = [| dt /. 2.; dt /. 2.; dt |] in
  let accum_coef = [| dt /. 6.; dt /. 3.; dt /. 3.; dt /. 6. |] in
  Fields.blit_state ~src:state ~dst:work.accum;
  Fields.blit_state ~src:state ~dst:work.provis;
  (* Tracer accumulators carry the conservative quantity h * tracer. *)
  Operators.seed_tracer_accumulator m ~state ~accum:work.accum;
  (* Invariant: work.diag matches work.provis at every compute_tend. *)
  for rk = 0 to 3 do
    e.instrument Compute_tend (fun () ->
        compute_tend e cfg m ~b ~state:work.provis ~diag:work.diag
          ~tend:work.tend);
    e.instrument Enforce_boundary_edge (fun () ->
        Operators.enforce_boundary_edge m ~tend_u:work.tend.tend_u);
    if rk < 3 then begin
      e.instrument Compute_next_substep_state (fun () ->
          Operators.next_substep_state m ~coef:substep_coef.(rk)
            ~base:state ~tend:work.tend ~provis:work.provis;
          Operators.next_substep_tracers m
            ~coef:substep_coef.(rk) ~base:state ~tend:work.tend
            ~provis:work.provis);
      e.instrument Compute_solve_diagnostics (fun () ->
          compute_solve_diagnostics e cfg m ~dt ~state:work.provis
            ~diag:work.diag);
      e.instrument Accumulative_update (fun () ->
          Operators.accumulate m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum;
          Operators.accumulate_tracers m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum)
    end
    else begin
      e.instrument Accumulative_update (fun () ->
          Operators.accumulate m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum;
          Operators.accumulate_tracers m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum);
      Fields.blit_state ~src:work.accum ~dst:state;
      Operators.finalize_tracers m ~state;
      e.instrument Compute_solve_diagnostics (fun () ->
          compute_solve_diagnostics e cfg m ~dt ~state ~diag:work.diag);
      match recon with
      | None -> ()
      | Some r ->
          e.instrument Mpas_reconstruct (fun () ->
              Reconstruct.run r m ~u:state.u ~out:work.recon)
    end
  done

(* Strong-stability-preserving RK-3 (Shu & Osher 1988):
     s1 = state + dt L(state)
     s2 = 3/4 state + 1/4 (s1 + dt L(s1))
     new = 1/3 state + 2/3 (s2 + dt L(s2))
   The same six kernels as Algorithm 1 in a different driver loop; the
   paper's registry and data-flow diagram are untouched. *)
let ssprk3_step e cfg m ~b ?recon ~dt ~(state : Fields.state) ~work () =
  let stage ~a ~bcoef ~c ~from ~out =
    e.instrument Compute_tend (fun () ->
        compute_tend e cfg m ~b ~state:from ~diag:work.diag ~tend:work.tend);
    e.instrument Enforce_boundary_edge (fun () ->
        Operators.enforce_boundary_edge m ~tend_u:work.tend.tend_u);
    e.instrument Compute_next_substep_state (fun () ->
        Operators.blend m ~a ~base:state ~b:bcoef ~other:from ~c
          ~tend:work.tend ~out);
    e.instrument Compute_solve_diagnostics (fun () ->
        compute_solve_diagnostics e cfg m ~dt ~state:out ~diag:work.diag)
  in
  (* Diagnostics entering the step describe [state]. *)
  Fields.blit_state ~src:state ~dst:work.provis;
  stage ~a:1. ~bcoef:0. ~c:dt ~from:work.provis ~out:work.accum;
  stage ~a:(3. /. 4.) ~bcoef:(1. /. 4.) ~c:(dt /. 4.) ~from:work.accum
    ~out:work.provis;
  stage ~a:(1. /. 3.) ~bcoef:(2. /. 3.) ~c:(2. *. dt /. 3.) ~from:work.provis
    ~out:work.accum;
  Fields.blit_state ~src:work.accum ~dst:state;
  match recon with
  | None -> ()
  | Some r ->
      e.instrument Mpas_reconstruct (fun () ->
          Reconstruct.run r m ~u:state.Fields.u ~out:work.recon)

(* Dispatch: a custom step (the dataflow task runtime) takes the whole
   step over; otherwise select the configured integrator. *)
let step e (cfg : Config.t) m ~b ?recon ~dt ~state ~work () =
  match e.custom with
  | Some f -> f e cfg m ~b ~recon ~dt ~state ~work
  | None -> (
      match cfg.Config.integrator with
      | Config.Rk4 -> rk4_step e cfg m ~b ?recon ~dt ~state ~work ()
      | Config.Ssprk3 -> ssprk3_step e cfg m ~b ?recon ~dt ~state ~work ())

(* --- fused straight-line RK-4 ------------------------------------------- *)

(* The configurations the fused chains cover.  Both fused paths — [fused]
   below and the task runtime's fused program — fall back to the classic
   driver outside it. *)
let fusable (cfg : Config.t) (state : Fields.state) =
  cfg.Config.integrator = Config.Rk4
  && cfg.Config.visc4 = 0.
  && Fields.n_tracers state = 0

(* One RK-4 step as a straight line of {!Fused} chains over full ranges,
   in the order of the runtime's fused program:
     early  A1 | B1+C1+X1+X2 | X3 | H2+A2+A3+X4 | B2+G+X5 | D1+C2+D2 | E | H1+F
     final  A1+X4 | B1+C1+X1+X2+X5 | H2+A2+A3 | A4+X6 | B2+G | D1+C2+D2 | E | H1+F
   In the final substep X4/X5 publish the accumulator into the state and
   the diagnostics read the state.  Each chain is timed under the kernel
   of its first member, as the runtime attributes a fused task; the
   passes left outside the chains (the accumulator and provisional
   seeds, the scan for boundary edges) are timed under their own
   kernels, so every kernel timer of a step stays live. *)
let fused_rk4 e (cfg : Config.t) (m : Mpas_mesh.Mesh.t) ~b ~recon ~dt
    ~(state : Fields.state) ~work =
  let { provis; tend; accum; diag; recon = rout } = work in
  let nc = m.n_cells and ne = m.n_edges and nv = m.n_vertices in
  let substep_coef = [| dt /. 2.; dt /. 2.; dt |] in
  let accum_coef = [| dt /. 6.; dt /. 3.; dt /. 3.; dt /. 6. |] in
  let dissip =
    if cfg.visc2 <> 0. then Some (cfg.visc2, diag.divergence, diag.vorticity)
    else None
  in
  let d2 =
    match cfg.h_adv_order with
    | Config.Second -> None
    | Config.Fourth -> Some diag.d2fdx2_cell
  in
  let boundary = ref false in
  e.instrument Enforce_boundary_edge (fun () ->
      let mask = m.boundary_edge in
      let rec any i = i < Array.length mask && (mask.(i) || any (i + 1)) in
      boundary := any 0);
  e.instrument Accumulative_update (fun () ->
      Fields.blit_state ~src:state ~dst:accum);
  e.instrument Compute_next_substep_state (fun () ->
      Fields.blit_state ~src:state ~dst:provis);
  for rk = 0 to 3 do
    let final = rk = 3 in
    let src = if final then state else provis in
    let publish a = if final then Some a else None in
    let x4 = Some (accum_coef.(rk), accum.h, publish state.h) in
    let x5 = Some (accum_coef.(rk), accum.u, publish state.u) in
    e.instrument Compute_tend (fun () ->
        Fused.tend_h_chain m ~h_edge:diag.h_edge ~u:provis.u ~out:tend.tend_h
          ~x4:(if final then x4 else None) ~lo:0 ~hi:nc);
    e.instrument Compute_tend (fun () ->
        Fused.tend_u_chain m ~pv_average:cfg.pv_average ~gravity:cfg.gravity
          ~h:provis.h ~b ~ke:diag.ke ~h_edge:diag.h_edge ~u:provis.u
          ~pv_edge:diag.pv_edge ~out:tend.tend_u ~dissip ~drag:cfg.bottom_drag
          ~boundary:!boundary ~x5:(if final then x5 else None) ~lo:0 ~hi:ne);
    if not final then
      e.instrument Compute_next_substep_state (fun () ->
          Fused.next_substep_range m ~coef:substep_coef.(rk) ~base:state ~tend
            ~provis ~clo:0 ~chi:nc ~elo:0 ~ehi:ne);
    e.instrument Compute_solve_diagnostics (fun () ->
        Fused.diag_cells_chain m ~h:src.h ~u:src.u ~d2 ~ke_out:(Some diag.ke)
          ~div_out:(Some diag.divergence) ~x4:(if final then None else x4)
          ~tend_h:tend.tend_h ~lo:0 ~hi:nc);
    (match recon with
    | Some r when final ->
        e.instrument Mpas_reconstruct (fun () ->
            Reconstruct.run_range r m ~u:state.u ~out:rout ~x6:true ~lo:0 ~hi:nc)
    | _ -> ());
    e.instrument Compute_solve_diagnostics (fun () ->
        Fused.diag_edges_chain m ~order:cfg.h_adv_order ~h:src.h
          ~d2fdx2_cell:diag.d2fdx2_cell ~h_edge_out:diag.h_edge
          ~g:(Some (src.u, diag.v_tangential))
          ~x5:(if final then None else x5) ~tend_u:tend.tend_u ~lo:0 ~hi:ne);
    e.instrument Compute_solve_diagnostics (fun () ->
        Fused.vortex_chain m ~u:src.u ~h:src.h ~vort_out:diag.vorticity
          ~hv_out:(Some diag.h_vertex) ~pv_out:(Some diag.pv_vertex) ~lo:0
          ~hi:nv);
    e.instrument Compute_solve_diagnostics (fun () ->
        Fused.pv_cell_range m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell ~lo:0
          ~hi:nc);
    e.instrument Compute_solve_diagnostics (fun () ->
        Fused.pv_edge_chain m ~g:None ~pv_cell:diag.pv_cell
          ~pv_vertex:diag.pv_vertex ~gn_out:diag.grad_pv_n
          ~gt_out:diag.grad_pv_t
          ~f:(Some (cfg.apvm_factor, dt, src.u, diag.v_tangential, diag.pv_edge))
          ~lo:0 ~hi:ne)
  done

let fused =
  let custom e cfg m ~b ~recon ~dt ~state ~work =
    if fusable cfg state then fused_rk4 e cfg m ~b ~recon ~dt ~state ~work
    else step { e with custom = None } cfg m ~b ?recon ~dt ~state ~work ()
  in
  with_custom refactored custom
