(** The RK-4 time stepping driver (paper Algorithm 1) over the six
    model kernels, with pluggable execution engines.

    Engines differ exactly along the axes the paper studies:
    - [original]: the pre-refactoring code path — irregular reductions
      run in their scatter (edge/vertex-order) form, sequentially;
    - [refactored]: all loops in regularity-aware gather form
      (Algorithm 3), sequential;
    - [fused]: the gather form with the kernels packed into the fused
      super-kernel chains of {!Fused} (the paper's loop fusion),
      sequential.  The default engine of [Model]; [refactored] is its
      unfused oracle.

    Parallel execution plugs in through [custom]: the task runtime
    ([Mpas_runtime.Engine]) runs the fused program over a domain
    pool. *)

open Mpas_mesh

type kernel =
  | Compute_tend
  | Enforce_boundary_edge
  | Compute_next_substep_state
  | Compute_solve_diagnostics
  | Accumulative_update
  | Mpas_reconstruct
  | Halo_exchange
      (** communication pseudo-kernel of the distributed runtime; never
          issued by the serial drivers and absent from [all_kernels] *)

val kernel_name : kernel -> string
val all_kernels : kernel list

type workspace = {
  provis : Fields.state;
  tend : Fields.tendencies;
  accum : Fields.state;
  diag : Fields.diagnostics;
  recon : Fields.reconstruction;
}

type engine = {
  gather : bool;  (** false = original scatter loops *)
  instrument : kernel -> (unit -> unit) -> unit;
      (** wraps every kernel invocation; default just runs it.  A
          custom step may invoke it concurrently from several domains,
          so replacement hooks paired with such an engine must be
          thread-safe (the Obs instrumentation of {!observed} is). *)
  custom : custom option;
      (** when set, {!step} hands the whole step to this function — the
          hook through which the dataflow task runtime
          ([Mpas_runtime.Engine]) plugs in without [Model], [Profile]
          or the benches changing.  The current engine is passed back
          in so instrumentation layered on afterwards
          ({!with_instrument}, {!observed}) is visible to the custom
          step. *)
}

and custom =
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  recon:Reconstruct.t option ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit

val original : engine
val refactored : engine

(** True when the configuration lies inside the fused chain set: RK-4,
    no tracers, no biharmonic diffusion ([visc4 = 0]).  Both fused
    paths — {!fused} and the task runtime's fused program — fall back
    to the classic driver outside it. *)
val fusable : Config.t -> Fields.state -> bool

(** Sequential straight-line RK-4 over the {!Fused} chains, in the
    order of the task runtime's fused program; bit-identical to
    [refactored].  Installed through [custom]; configurations outside
    {!fusable} run the classic driver.  Each chain is instrumented
    under the kernel of its first member, so the accumulative updates
    and boundary enforcement (always fused into a [Compute_tend] or
    [Compute_solve_diagnostics] chain) are timed there.
    [Accumulative_update] and [Enforce_boundary_edge] record only the
    once-per-step passes left outside the chains: the accumulator seed
    and the scan for boundary edges. *)
val fused : engine

(** Replace the instrumentation hook. *)
val with_instrument : engine -> (kernel -> (unit -> unit) -> unit) -> engine

(** Install a custom whole-step driver (see {!engine}.[custom]). *)
val with_custom : engine -> custom -> engine

(** [observed e] layers Obs instrumentation over [e]: every kernel
    invocation is timed into a [swe.kernel.<name>] histogram timer in
    [registry] (default: the process-wide registry) and wrapped in a
    trace span (category ["kernel"], arguments recording the
    connectivity layout) when a trace sink is set.
    [e]'s own instrument hook keeps running inside the measurement, so
    observation composes with existing hooks instead of replacing
    them.  With the no-op sink the added cost per kernel call is one
    timer update. *)
val observed : ?registry:Mpas_obs.Metrics.t -> engine -> engine

(** [n_tracers] must match the state the workspace will serve. *)
val alloc_workspace : ?n_tracers:int -> Mesh.t -> workspace

(** Fill [work.diag] from [state] — must run once before the first
    [rk4_step]; every step keeps the diagnostics consistent with the
    state it leaves behind. *)
val init_diagnostics :
  engine -> Config.t -> Mesh.t -> dt:float -> state:Fields.state ->
  work:workspace -> unit

(** Advance [state] by one RK-4 step of size [dt].  [b] is the bottom
    topography at cells; [recon] runs the mpas_reconstruct kernel at
    the end of the step when provided. *)
val rk4_step :
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  ?recon:Reconstruct.t ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit ->
  unit

(** One step of the three-stage SSP RK-3 of Shu & Osher — the same
    kernels driven by a different loop (extension; see
    [Config.integrator]). *)
val ssprk3_step :
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  ?recon:Reconstruct.t ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit ->
  unit

(** Dispatch on [Config.integrator]. *)
val step :
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  ?recon:Reconstruct.t ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit ->
  unit
