(** Fault-tolerant multi-tenant serving layer over the ensemble engine.

    One [t] turns {!Mpas_ensemble.Ensemble} into a long-running
    service: tenants submit scenario jobs (a Williamson case, a
    perturbed config, a step budget, an optional deadline), an
    admission-controlled scheduler packs them into the batch, periodic
    checkpoints make every job restartable, and a seed-driven fault
    plan exercises the recovery paths deterministically.

    {b Job lifecycle.}  [Queued -> Running -> Completed] is the happy
    path.  A fault mid-batch sends every running job through
    [Delayed] (retry backoff) back to [Queued], resuming from its
    newest valid checkpoint; retries are capped.  Terminal states:
    [Completed] (result kept, bit-identical to an uninterrupted run),
    [Failed] (numerics divergence, exhausted retries, or no valid
    checkpoint — always with a reason), [Shed] (displaced by
    higher-priority load or past deadline), [Cancelled].

    {b Scheduling.}  Admission control is a bounded queue plus a
    per-tenant quota, both rejected deterministically with a typed
    reason.  Admission order is strict across the three priority
    lanes and weighted-fair within one: each tenant carries a virtual
    time advanced by [steps / weight] per admission, and the tenant
    with the smallest virtual time goes first (name-ordered on ties),
    so a heavy tenant cannot starve a light one.  When the queue is
    full, a higher-priority submit sheds the newest lowest-priority
    queued job instead of being rejected.  Past-deadline jobs are
    shed, or — with [finish_over_deadline] — demoted to the [Low]
    lane (the cheap lane: served only when nothing more urgent waits).

    {b Determinism.}  Ticks are the only clock the scheduler uses;
    given the same submissions and the same fault plan, every
    admission, fault, recovery and completion replays identically —
    which is what lets CI assert recovered jobs bit-identical to
    fault-free runs. *)

open Mpas_swe

type t

type priority = High | Normal | Low

val priority_name : priority -> string

type reject =
  | Queue_full of int  (** the queue bound *)
  | Tenant_quota of string * int  (** tenant, its quota *)
  | Unsupported of string  (** config the ensemble engine rejects *)

val reject_message : reject -> string

type status =
  | Queued
  | Delayed of int  (** retry backoff: re-queued at this tick *)
  | Running
  | Completed
  | Failed of string
  | Shed of string
  | Cancelled

val status_name : status -> string

type info = {
  jb_id : int;
  jb_tenant : string;
  jb_priority : priority;
  jb_status : status;
  jb_done : int;  (** completed steps *)
  jb_steps : int;  (** requested steps *)
  jb_retries : int;
  jb_deadline : int option;
}

(** [create mesh] builds a server over a fresh ensemble engine on
    [mesh] (spherical — jobs are Williamson cases).

    [capacity]/[pool] configure the engine as
    {!Mpas_ensemble.Ensemble.create} does.  [queue_limit] bounds
    queued + delayed jobs (default 64); [tenant_quota] bounds one
    tenant's queued + delayed + running jobs (default 16);
    [checkpoint_every] is the checkpoint period in steps (default 5;
    a snapshot is also always taken at first admission);
    [max_retries] caps fault recoveries per job (default 3);
    [finish_over_deadline] (default false) demotes past-deadline
    queued jobs to [Low] instead of shedding them.  [fault] is the
    seeded fault plan to inject (default none).  Metrics land in
    [registry] under [server.*], tenant-labelled where meaningful. *)
val create :
  ?registry:Mpas_obs.Metrics.t ->
  ?capacity:int ->
  ?pool:Mpas_par.Pool.t ->
  ?queue_limit:int ->
  ?tenant_quota:int ->
  ?checkpoint_every:int ->
  ?max_retries:int ->
  ?finish_over_deadline:bool ->
  ?fault:Fault.plan ->
  Mpas_mesh.Mesh.t ->
  t

(** [submit t ~steps case] enqueues a job and returns its id, or a
    typed rejection.  [tenant] (default ["default"]) names the payer;
    [weight] (default 1, sticky per tenant) sets its fair share;
    [priority] (default [Normal]) picks the lane; [deadline] is an
    absolute tick; [config]/[dt] perturb the run exactly as
    {!Mpas_ensemble.Ensemble.submit_case} does.
    @raise Invalid_argument on non-positive [steps], or a [dt] or [weight]
    that is not finite and positive
    (malformed requests are bugs; over-quota requests are [Error]s). *)
val submit :
  t ->
  ?tenant:string ->
  ?weight:float ->
  ?priority:priority ->
  ?deadline:int ->
  ?config:Config.t ->
  ?dt:float ->
  steps:int ->
  Williamson.case ->
  (int, reject) result

val cancel : t -> int -> unit
(** Queued/delayed jobs leave the queue; a running job's member is
    evicted.  Terminal jobs are untouched.  @raise Not_found on an
    unknown id. *)

val query : t -> int -> info
(** @raise Not_found on an unknown id. *)

val jobs : t -> info list
(** Every job ever submitted, by id. *)

val result : t -> int -> Fields.state option
(** Final state of a [Completed] job. *)

val now : t -> int
(** Ticks taken so far. *)

val tick : t -> unit
(** One scheduler round: inject this tick's faults, release backoffs,
    enforce deadlines, admit from the queues, advance the batch one
    step (recovering from injected faults), checkpoint and retire. *)

val drain : t -> ?max_ticks:int -> unit -> bool
(** Tick until no job is queued, delayed or running (true) or
    [max_ticks] (default 10_000) ticks pass (false). *)

val queue_depth : t -> int
(** Queued + delayed jobs right now. *)

val running : t -> int
