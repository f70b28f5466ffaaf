(** A small pool of worker domains with chunked parallel loops — the
    OpenMP-substitute substrate of the reproduction (DESIGN.md §3).

    The pool owns [n_domains - 1] persistent worker domains; the caller
    participates in every loop, so [n_domains = 1] degenerates to purely
    sequential execution with no spawned domains.

    Loops divide the index range into chunks of
    [(hi - lo) / (8 * size)] indices handed out dynamically through an
    atomic counter, like an OpenMP [schedule(dynamic)] region.  Loop
    bodies must write disjoint locations for distinct indices — exactly
    the property the paper's regularity-aware loop refactoring
    establishes (Algorithm 3). *)

type t

(** [create ~n_domains] spawns the workers.  [n_domains >= 1]. *)
val create : n_domains:int -> t

(** Number of participating domains (workers + caller). *)
val size : t -> int

(** [parallel_for t ~lo ~hi f] runs [f i] for every [lo <= i < hi].
    Blocks until all iterations complete.  Must not be called
    re-entrantly from inside a loop body. *)
val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit

(** [parallel_for_chunks t ~lo ~hi f] hands out [f ~lo ~hi] on
    half-open sub-ranges; useful when per-chunk setup matters. *)
val parallel_for_chunks :
  t -> lo:int -> hi:int -> (lo:int -> hi:int -> unit) -> unit

(** [run_team t f] runs [f ~lane] once on every domain of the pool
    (workers plus the caller), with [lane] ranging over
    [0 .. size t - 1]; each domain executes exactly one lane, so lane
    bodies may coordinate with each other (locks, conditions, atomics)
    without deadlocking — the substrate of the task runtime's worker
    lanes ([Mpas_runtime.Exec]).  Blocks until every lane returns.
    Lane ids are claimed dynamically and are not stable across calls.
    Must not be called re-entrantly from inside a loop or lane body. *)
val run_team : t -> (lane:int -> unit) -> unit

(** Terminate the worker domains.  The pool must not be used after. *)
val shutdown : t -> unit

(** [with_pool ~n_domains f] creates a pool, runs [f], and always shuts
    the pool down. *)
val with_pool : n_domains:int -> (t -> 'a) -> 'a
