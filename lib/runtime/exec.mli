open Mpas_par

(** The dependency-driven executor: runs one compiled phase program
    over the pool's worker lanes.

    Lanes are partitioned into a host set (lanes [0 .. host_lanes-1])
    and a device set (the rest), standing in for the paper's
    CPU-thread / accelerator-stream pair.  The result is bit-identical
    to program order regardless of the lane interleaving, because
    tasks only commute when the spec carries no edge between them. *)

type mode =
  | Sequential  (** program order on the calling domain — the reference *)
  | Steal
      (** dependency-driven over per-lane work-stealing deques: a lane
          pushes the tasks it enables onto its own deque and pops LIFO
          (hottest first); when dry it steals FIFO from a random
          same-class victim, and blocks on a condition variable after a
          fruitless sweep. *)

val mode_name : mode -> string

(** One retired task, for the observability log.  [start_seq] and
    [finish_seq] are draws from one atomic counter shared by the whole
    phase run: task [a] provably finished before task [b] started iff
    [a.finish_seq < b.start_seq] — the happens-before witness the
    scheduling tests check, robust where wall-clock stamps tie. *)
type entry = {
  e_phase : [ `Early | `Final ];
  e_substep : int;
  e_task : int;  (** index into the phase's task array *)
  e_instance : string;  (** instance id, e.g. "B1" *)
  e_lane : int;
  e_start_seq : int;
  e_finish_seq : int;
  e_t0 : float;
  e_t1 : float;
}

type log = entry list ref

(** Online sanitizer hook ([Analysis.Tsan] is the client).  When one is
    installed, {!run_phase} calls [san_phase_begin] once at entry,
    [san_task_begin]/[san_task_end] around {e every} task body (from
    whichever lane runs it — the callbacks must be thread-safe), and
    [san_phase_end] on normal completion.  [task] indexes the phase's
    task array; [lane] is the worker lane.  When none is installed the
    only cost is one ref load and a match per phase run plus a match
    per task — the hot kernels never pay for the hook.

    A phase abandoned by a raising task body skips [san_phase_end];
    monitors must treat [san_phase_begin] as a full reset. *)
type sanitizer = {
  san_phase_begin : phase:[ `Early | `Final ] -> substep:int -> n_tasks:int -> unit;
  san_task_begin : task:int -> lane:int -> unit;
  san_task_end : task:int -> lane:int -> unit;
  san_phase_end : unit -> unit;
}

(** Install (or clear, with [None]) the process-wide sanitizer.  Only
    call between phase runs: {!run_phase} captures the hook at entry,
    so a mid-phase swap is unseen by running lanes. *)
val set_sanitizer : sanitizer option -> unit

(** [run_phase ~mode ~pool ~host_lanes ~phase ~substep ~instrument spec
    bodies] executes [bodies] (aligned with [spec.tasks]) under the
    spec's edges.  [instrument] wraps every task body (it may be called
    concurrently from several lanes).  [pool = None] runs single-lane.
    When a trace sink is set, each task records a span (category
    ["task"]) tagged with instance, substep and lane.  Appends to [log]
    when given, newest first. *)
val run_phase :
  ?log:log ->
  mode:mode ->
  pool:Pool.t option ->
  host_lanes:int ->
  phase:[ `Early | `Final ] ->
  substep:int ->
  instrument:(Spec.task -> (unit -> unit) -> unit) ->
  Spec.phase ->
  (unit -> unit) array ->
  unit
