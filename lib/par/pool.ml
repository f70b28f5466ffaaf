(* Always-on counters (atomic increments, one per job / chunk batch)
   plus per-worker spans that only fire when a trace sink is set. *)
let m_jobs = Mpas_obs.Metrics.counter "par.pool.jobs"
let m_chunks = Mpas_obs.Metrics.counter "par.pool.chunks"

type chunked = {
  body : lo:int -> hi:int -> unit;
  lo : int;
  hi : int;
  chunk : int;
  n_chunks : int;
  next : int Atomic.t;
  completed : int Atomic.t;
}

(* A team job hands exactly one lane to each participating domain — the
   substrate of the task runtime's worker lanes.  [tnext] assigns lane
   ids, [tdone] counts finished lanes. *)
type team = {
  tbody : lane:int -> unit;
  tn : int;
  tnext : int Atomic.t;
  tdone : int Atomic.t;
}

type job = Chunked of chunked | Team of team

type t = {
  n_domains : int;
  mutex : Mutex.t;
  wake : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let run_chunks job =
  let traced = Mpas_obs.Trace.enabled () in
  let t0 = if traced then Mpas_obs.Trace.now () else 0. in
  let executed = ref 0 in
  let rec loop () =
    let k = Atomic.fetch_and_add job.next 1 in
    if k < job.n_chunks then begin
      let lo = job.lo + (k * job.chunk) in
      let hi = Int.min job.hi (lo + job.chunk) in
      job.body ~lo ~hi;
      incr executed;
      Atomic.incr job.completed;
      loop ()
    end
  in
  loop ();
  if !executed > 0 then begin
    Mpas_obs.Metrics.Counter.add m_chunks !executed;
    if traced then
      Mpas_obs.Trace.complete ~cat:"pool" ~t0
        ~args:[ ("chunks", string_of_int !executed) ]
        "pool.worker"
  end

(* Take exactly one lane of a team job.  Unlike chunked jobs, a domain
   never runs two lanes: each of the [tn] participants (workers plus the
   submitting caller) claims one distinct lane id, so lane bodies may
   block on each other without deadlocking. *)
let run_team_slot team =
  let k = Atomic.fetch_and_add team.tnext 1 in
  if k < team.tn then begin
    team.tbody ~lane:k;
    Atomic.incr team.tdone
  end

let run_job = function
  | Chunked j -> run_chunks j
  | Team team -> run_team_slot team

let worker t =
  let last_gen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while t.generation = !last_gen && not t.stop do
      Condition.wait t.wake t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      last_gen := t.generation;
      let job = t.job in
      Mutex.unlock t.mutex;
      (match job with Some j -> run_job j | None -> ());
      loop ()
    end
  in
  loop ()

let create ~n_domains =
  if n_domains < 1 then invalid_arg "Pool.create: n_domains must be >= 1";
  let t =
    {
      n_domains;
      mutex = Mutex.create ();
      wake = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init (n_domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.n_domains

(* Roughly 8 chunks per domain bounds scheduling overhead while keeping
   dynamic balance. *)
let chunk_size t ~lo ~hi = Int.max 1 ((hi - lo) / (8 * t.n_domains))

let parallel_for_chunks t ~lo ~hi body =
  if hi > lo then begin
    Mpas_obs.Metrics.Counter.incr m_jobs;
    if t.n_domains = 1 then begin
      Mpas_obs.Metrics.Counter.incr m_chunks;
      body ~lo ~hi
    end
    else begin
      let chunk = chunk_size t ~lo ~hi in
      let n_chunks = (hi - lo + chunk - 1) / chunk in
      let job =
        { body; lo; hi; chunk; n_chunks;
          next = Atomic.make 0; completed = Atomic.make 0 }
      in
      Mutex.lock t.mutex;
      t.job <- Some (Chunked job);
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.mutex;
      run_chunks job;
      (* The caller ran out of chunks; wait for stragglers. *)
      while Atomic.get job.completed < n_chunks do
        Domain.cpu_relax ()
      done
    end
  end

let run_team t body =
  Mpas_obs.Metrics.Counter.incr m_jobs;
  if t.n_domains = 1 then body ~lane:0
  else begin
    let team =
      { tbody = body; tn = t.n_domains;
        tnext = Atomic.make 0; tdone = Atomic.make 0 }
    in
    Mutex.lock t.mutex;
    t.job <- Some (Team team);
    t.generation <- t.generation + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    run_team_slot team;
    (* Wait for every lane: each domain claims exactly one, so the job
       only completes once all [tn] participants have run. *)
    while Atomic.get team.tdone < team.tn do
      Domain.cpu_relax ()
    done
  end

let parallel_for t ~lo ~hi f =
  parallel_for_chunks t ~lo ~hi (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        f i
      done)

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~n_domains f =
  let t = create ~n_domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
