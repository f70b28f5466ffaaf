(** Batch-serving engine: many concurrent shallow-water simulations per
    process, each member advanced by the solo fused RK-4 step.

    One [t] owns a fixed-capacity pool of member slots over a single
    immutable mesh (and its memoized CSR).  Each slot owns its member's
    float arrays — prognostic state, {!Mpas_swe.Timestep.workspace},
    bottom topography and a copy of the mesh record carrying the
    member's Coriolis field — allocated once at [create] and reused
    across submit and evict.  A batch step runs
    [Timestep.step Timestep.fused] on every running member in turn, or
    spreads the members over a domain pool.  One production kernel
    serves solo runs and members alike (DESIGN §14 has the
    measurements behind this layout).

    Failure isolation: members share no writable array, so a blow-up
    cannot poison neighbours.  After each member's step its prognostic
    fields are scanned; a non-finite value or non-positive thickness
    flips the member to [Failed] and it is no longer stepped — the
    batch keeps going without it.

    Per-member physics: each member carries its own [Config.t] subset
    (gravity, APVM, [visc2], bottom drag, advection order, PV average),
    time step, bottom topography and Coriolis field, which is how
    perturbed Williamson cases — including the rotated Coriolis
    variants — batch together.  Unsupported configuration (tracers,
    [visc4], non-RK4 integrators) is rejected at submit with counted
    got/expected messages, like [Exchange.exchange] arity errors.

    Every member's trajectory is bit-identical to a solo run of the
    refactored engine with the same config, [dt] and initial state. *)

open Mpas_mesh
open Mpas_swe
open Mpas_par

type t

type status = Running | Done | Failed of string

val status_name : status -> string

type info = {
  i_id : int;  (** the handle [submit] returned *)
  i_tenant : string;
  i_status : status;
  i_steps : int;  (** completed batch steps for this member *)
  i_target : int option;  (** steps after which the member is [Done] *)
}

(** [create mesh] builds an empty engine.

    [capacity] (default 64) is the member-slot count — every slot's
    arrays are allocated up front.  [pool] spreads the running members
    of each batch step over its domains with [Pool.parallel_for]
    (default: step them in turn on the calling domain).  [registry] is
    where observability lands (default [Mpas_obs.Metrics.default]).

    [interrupt] is the serving layer's fault hook, called on the
    orchestrating domain before each member's step — once, at sweep
    entry, with a [pool].  It may raise to abandon the sweep: members
    stepped before the raise keep their step (state, count and
    status), the rest are untouched, and the exception propagates out
    of {!step}. *)
val create :
  ?registry:Mpas_obs.Metrics.t ->
  ?capacity:int ->
  ?pool:Pool.t ->
  ?interrupt:(unit -> unit) ->
  Mesh.t ->
  t

val capacity : t -> int
val mesh : t -> Mesh.t

(** Members currently occupying slots (any status), oldest first. *)
val members : t -> info list

(** Running members / capacity, in [0, 1]. *)
val occupancy : t -> float

(** [submit t ~b state] places a member in a free slot and returns its
    handle.  [state] (tracerless) and [b] must match the engine mesh;
    [f_vertex] (default the mesh's own) carries Coriolis variants;
    [config] must use the RK-4 integrator, no [visc4], no tracer rows;
    [dt] must be finite and positive.
    Initial diagnostics are computed immediately, as [Model.init] does.
    [target] stops the member with status [Done] after that many steps.
    @raise Invalid_argument with a counted got/expected message on any
    shape or config mismatch, or when the batch is full. *)
val submit :
  t ->
  ?tenant:string ->
  ?config:Config.t ->
  ?target:int ->
  ?f_vertex:float array ->
  dt:float ->
  b:float array ->
  Fields.state ->
  int

(** [submit_case t case] initializes a member from a Williamson test
    case on the engine's (spherical) mesh: state and topography from
    [Williamson.init], Coriolis from [Williamson.prepare_mesh] (the
    rotated cases differ only there), [dt] defaulting to
    [Williamson.recommended_dt]. *)
val submit_case :
  t ->
  ?tenant:string ->
  ?config:Config.t ->
  ?dt:float ->
  ?target:int ->
  Williamson.case ->
  int

(** Advance every [Running] member by [n] RK-4 steps (default 1).
    Members that reach their target or fail drop out between steps. *)
val step : t -> ?n:int -> unit -> unit

(** @raise Not_found for ids never issued or already evicted. *)
val query : t -> int -> info

(** Copy out a member's prognostic state (tracerless). *)
val state : t -> int -> Fields.state

(** Overwrite a member's prognostic state in place (warm restart /
    perturbation injection) and recompute its diagnostics.  A [Failed]
    or [Done] member returns to [Running] with its step count kept.
    @raise Invalid_argument on shape mismatch, [Not_found] on a bad id. *)
val set_state : t -> int -> Fields.state -> unit

(** Free the member's slot.  @raise Not_found on a bad id. *)
val evict : t -> int -> unit
