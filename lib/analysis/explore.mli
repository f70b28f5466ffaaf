(** Bounded interleaving exploration (dscheck/DPOR-style, model level).

    Models are cooperative threads whose shared-state accesses all go
    through {!op}; the explorer enumerates thread interleavings by
    depth-first search over choice traces, replaying the model from
    fresh state per schedule, up to a preemption bound (switching away
    from a still-enabled thread spends budget; forced switches are
    free).  It detects deadlocks, failed final-state checks, and
    escaped exceptions, and reports the failing schedule as a label
    trace.

    {!Models} holds shim-level models of the runtime's concurrency
    protocols — the Chase-Lev deque and the steal/stingy-wakeup
    protocol — each with seeded-bug variants (a dropped fence, skipped
    wakeup signals) that the explorer must catch; the unseeded models
    are proven exactly-once and deadlock-free over every schedule
    within the bound. *)

val op : ?guard:(unit -> bool) -> string -> (unit -> 'a) -> 'a
(** [op label action] is one atomic step of a model thread: the thread
    suspends, and [action] runs when the explorer schedules this
    thread.  [guard] is the enabledness condition (a pure read of model
    state); a thread whose pending op is disabled blocks until some
    other thread's action makes the guard true.  Only call from inside
    a model body. *)

type model = {
  m_name : string;
  m_make : unit -> (string * (unit -> unit)) list * (unit -> string option);
      (** fresh state per schedule: named thread bodies plus a
          final-state check returning [Some error] on violation *)
}

type outcome = {
  oc_model : string;
  oc_schedules : int;  (** complete schedules explored *)
  oc_truncated : bool;  (** hit max_schedules or max_steps *)
  oc_error : string option;  (** first violation found, if any *)
  oc_trace : string list;  (** the failing schedule, as op labels *)
}

val outcome_message : outcome -> string

val run :
  ?preemption_bound:int ->
  ?max_schedules:int ->
  ?max_steps:int ->
  model ->
  outcome
(** Explore every schedule within [preemption_bound] (default 2).
    Deterministic: no randomness, schedules enumerated in a fixed
    order.  [oc_truncated] means the caps cut exploration short and a
    clean result is not a proof. *)

module Models : sig
  type deque_bug = Drop_last_cas
      (** owner's last-element pop takes without the CAS on [top] *)

  type steal_bug =
    | Drop_version_check
        (** sample the wakeup version after the emptiness re-check:
            the classic lost-wakeup window *)
    | Drop_spread_broadcast
        (** cross-class spread without a signal: the sleeping target
            lane never learns of its task *)
    | Drop_retire_broadcast
        (** final retire without a signal: lanes asleep at termination
            never exit *)

  val chase_lev : ?bug:deque_bug -> unit -> model
  (** Owner (2 pushes, 2 pops) vs one thief at CAS granularity; the
      check is conservation: each value taken exactly once or still
      resident. *)

  val steal_wakeup : ?bug:steal_bug -> unit -> model
  (** Three lanes in two classes running a host->device->host task
      chain over per-lane deques with same-class stealing and the
      version/sleepers stingy-wakeup protocol; the check is
      exactly-once, class-correct execution, and the explorer proves
      no lost wakeup (no deadlock) for the unseeded protocol. *)
end
