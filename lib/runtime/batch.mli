open Mpas_patterns
open Mpas_par

(** Member-axis phase programs for batched (ensemble) execution.

    The solo runtime parallelizes {e within} one simulation by
    splitting kernels over index-space fractions.  An ensemble flips
    the axis: the same kernel chain runs once per {e member block}, and
    blocks — not index ranges — become the part-tasks.  [build] turns a
    straight-line kernel chain into a {!Spec.phase} with one task per
    (block, kernel): within a block the chain is a dependency chain
    (level = position), across blocks there are no edges at all, so
    [Steal] mode schedules whole member blocks concurrently, and the
    PR 6 machinery applies across members for free.  [part] on each
    task records the member fraction [(b/nb, (b+1)/nb)], so the parts
    of one kernel tile the unit interval exactly as {!Spec.check}
    demands. *)

type kernel = {
  bk_id : string;  (** instance id in specs/logs, e.g. ["ens.tend_u"] *)
  bk_kernel : Pattern.kernel;  (** driver-kernel family, for reporting *)
  bk_body : block:int -> unit -> unit;
      (** the batched body for one member block; called once per block
          per phase run *)
}

(** [build ~kernels ~blocks] compiles the chain into a phase program
    plus the aligned body array ([task index = block * n_kernels +
    kernel position]).  The result passes {!Spec.check}.
    @raise Invalid_argument when [kernels] is empty or [blocks < 1]. *)
val build : kernels:kernel list -> blocks:int -> Spec.phase * (unit -> unit) array

(** Run one compiled member-axis phase through {!Exec.run_phase}.
    Defaults: [mode = Sequential], [pool = None], every lane a host
    lane, no instrumentation.  [preempt] is forwarded to
    {!Exec.run_phase} (the cooperative eviction hook — see
    {!Exec.Preempted}). *)
val run :
  ?log:Exec.log ->
  ?preempt:(unit -> bool) ->
  ?mode:Exec.mode ->
  ?pool:Pool.t ->
  ?instrument:(Spec.task -> (unit -> unit) -> unit) ->
  phase:[ `Early | `Final ] ->
  substep:int ->
  Spec.phase ->
  (unit -> unit) array ->
  unit
