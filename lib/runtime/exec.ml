open Mpas_par
open Mpas_patterns

type mode = Sequential | Steal

let mode_name = function Sequential -> "sequential" | Steal -> "steal"

type entry = {
  e_phase : [ `Early | `Final ];
  e_substep : int;
  e_task : int;
  e_instance : string;
  e_lane : int;
  e_start_seq : int;
  e_finish_seq : int;
  e_t0 : float;
  e_t1 : float;
}

type log = entry list ref

(* Online sanitizer hook (see Analysis.Tsan).  [run_phase] reads the
   installed sanitizer exactly once at phase entry — the off path costs
   one ref load and a match — and the runners call the task callbacks
   around every body, from whichever lane runs it.  Install/remove only
   between phase runs: the runners capture the value at entry, so a
   mid-phase swap is not seen (and would race on the ref). *)
type sanitizer = {
  san_phase_begin : phase:[ `Early | `Final ] -> substep:int -> n_tasks:int -> unit;
  san_task_begin : task:int -> lane:int -> unit;
  san_task_end : task:int -> lane:int -> unit;
  san_phase_end : unit -> unit;
}

let sanitizer_hook : sanitizer option ref = ref None
let set_sanitizer s = sanitizer_hook := s

let now = Mpas_obs.Trace.now

let trace_task (tk : Spec.task) ~substep ~lane ~t0 =
  let id = tk.Spec.instance.Pattern.id in
  Mpas_obs.Trace.complete ~cat:"task" ~t0
    ~args:
      [
        ("instance", id);
        ("substep", string_of_int substep);
        ("lane", string_of_int lane);
        ( "part",
          match tk.Spec.part with
          | None -> "full"
          | Some (f0, f1) -> Printf.sprintf "%g-%g" f0 f1 );
      ]
    ("task." ^ id)

let run_sequential ?log ~san ~phase ~substep ~instrument (spec : Spec.phase)
    bodies =
  let seq = ref 0 in
  Array.iteri
    (fun i (tk : Spec.task) ->
      let s0 = !seq in
      incr seq;
      let t0 = now () in
      (match san with None -> () | Some s -> s.san_task_begin ~task:i ~lane:0);
      instrument tk bodies.(i);
      (match san with None -> () | Some s -> s.san_task_end ~task:i ~lane:0);
      let t1 = now () in
      let s1 = !seq in
      incr seq;
      if Mpas_obs.Trace.enabled () then trace_task tk ~substep ~lane:0 ~t0;
      match log with
      | None -> ()
      | Some l ->
          l :=
            {
              e_phase = phase;
              e_substep = substep;
              e_task = i;
              e_instance = tk.Spec.instance.Pattern.id;
              e_lane = 0;
              e_start_seq = s0;
              e_finish_seq = s1;
              e_t0 = t0;
              e_t1 = t1;
            }
            :: !l)
    spec.Spec.tasks

(* Work-stealing execution: one deque per worker lane.  A lane pushes
   the tasks it enables onto its own deque and pops LIFO from the
   bottom; when dry it steals FIFO from the top of a random same-class
   victim, and after a full fruitless sweep it blocks on a condition
   variable (essential on machines with fewer cores than lanes — a
   spinning thief would starve the lane holding the work).  Dependency
   counters are atomic, the start/finish sequence numbers come from one
   global atomic counter, and the log gets the same entries as
   [Sequential] mode, so [Races.check_log] replays stolen schedules
   unchanged.  Bodies must not raise — an escaped exception would
   wedge the other lanes. *)
let run_stealing ?log ~pool ~host_lanes ~san ~phase ~substep ~instrument
    (spec : Spec.phase) bodies =
  let tasks = spec.Spec.tasks in
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    let lanes = match pool with None -> 1 | Some p -> Pool.size p in
    let host_lanes = Int.min host_lanes lanes in
    let needs c = Array.exists (fun tk -> tk.Spec.cls = c) tasks in
    if host_lanes < 1 && needs Spec.Host then
      invalid_arg "Mpas_runtime.Exec: program has host tasks but no host lane";
    if lanes - host_lanes < 1 && needs Spec.Device then
      invalid_arg
        "Mpas_runtime.Exec: program has device tasks but no device lane";
    let deques = Array.init lanes (fun _ -> Deque.create ()) in
    let host_set = Array.init host_lanes Fun.id in
    let device_set =
      Array.init (lanes - host_lanes) (fun k -> host_lanes + k)
    in
    let set_of = function Spec.Host -> host_set | Spec.Device -> device_set in
    let indeg =
      Array.map (fun tk -> Atomic.make (List.length tk.Spec.preds)) tasks
    in
    let remaining = Atomic.make n in
    let seq = Atomic.make 0 in
    (* Sleep coordination: [version] is bumped under [mu] whenever work
       is pushed or the phase drains; a thief that swept every deque
       empty re-checks the version it read before the sweep and only
       then waits, so no wakeup is lost.  [sleepers] counts lanes
       blocked on [cv]: wakeups are gated on it and on there being
       surplus work (more than the enabling lane will immediately pop
       itself), so a phase whose DAG is momentarily sequential does not
       pay a thundering herd of futile wakeups per retire — the
       dominant cost when the machine has fewer cores than lanes. *)
    let mu = Mutex.create () in
    let cv = Condition.create () in
    let version = ref 0 in
    let sleepers = ref 0 in
    (* Cores the OS can actually run lanes on: waking a thief beyond
       this only adds context-switch churn (lanes > cores is the normal
       shape when the pool emulates accelerator lanes), so surplus-work
       wakeups stop once every core has an awake lane. *)
    let hw_cores = Domain.recommended_domain_count () in
    let rr = [| Atomic.make 0; Atomic.make 0 |] in
    let spread i =
      let cls = tasks.(i).Spec.cls in
      let set = set_of cls in
      let k =
        Atomic.fetch_and_add rr.(match cls with Spec.Host -> 0 | Spec.Device -> 1) 1
      in
      Deque.push_bottom deques.(set.(k mod Array.length set)) i
    in
    Array.iteri (fun i tk -> if tk.Spec.preds = [] then spread i) tasks;
    let lane_body ~lane =
      let cls = if lane < host_lanes then Spec.Host else Spec.Device in
      let my = deques.(lane) in
      let mates = set_of cls in
      let rng = ref (((lane + 1) * 0x9E3779B9) lor 1) in
      let rand_below k =
        let x = !rng in
        let x = x lxor (x lsl 13) in
        let x = x lxor (x lsr 7) in
        let x = (x lxor (x lsl 17)) land max_int in
        rng := x lor 1;
        x mod k
      in
      let try_steal () =
        let nm = Array.length mates in
        if nm <= 1 then None
        else begin
          let start = rand_below nm in
          let rec go k =
            if k = nm then None
            else
              let v = mates.((start + k) mod nm) in
              if v = lane then go (k + 1)
              else
                match Deque.steal_top deques.(v) with
                | Some _ as r -> r
                | None -> go (k + 1)
          in
          go 0
        end
      in
      let run i =
        let s0 = Atomic.fetch_and_add seq 1 in
        let t0 = now () in
        (match san with None -> () | Some s -> s.san_task_begin ~task:i ~lane);
        instrument tasks.(i) bodies.(i);
        (match san with None -> () | Some s -> s.san_task_end ~task:i ~lane);
        let t1 = now () in
        let s1 = Atomic.fetch_and_add seq 1 in
        if Mpas_obs.Trace.enabled () then trace_task tasks.(i) ~substep ~lane ~t0;
        let pushed = ref 0 and spread_out = ref false in
        List.iter
          (fun s ->
            if Atomic.fetch_and_add indeg.(s) (-1) = 1 then begin
              incr pushed;
              if tasks.(s).Spec.cls = cls then Deque.push_bottom my s
              else begin
                spread s;
                spread_out := true
              end
            end)
          tasks.(i).Spec.succs;
        let last = Atomic.fetch_and_add remaining (-1) = 1 in
        if !pushed > 0 || last || log <> None then begin
          Mutex.lock mu;
          (match log with
          | None -> ()
          | Some l ->
              l :=
                {
                  e_phase = phase;
                  e_substep = substep;
                  e_task = i;
                  e_instance = tasks.(i).Spec.instance.Pattern.id;
                  e_lane = lane;
                  e_start_seq = s0;
                  e_finish_seq = s1;
                  e_t0 = t0;
                  e_t1 = t1;
                }
                :: !l);
          if !pushed > 0 then incr version;
          (* Drained, or work landed on a lane that may be asleep: wake
             everyone.  Otherwise wake a single thief, and only when
             this lane's deque holds more than the task it pops next —
             a surplus a thief could actually take. *)
          if last || !spread_out then Condition.broadcast cv
          else if
            !sleepers > 0
            && lanes - !sleepers < hw_cores
            && Deque.size my > 1
          then Condition.signal cv;
          Mutex.unlock mu
        end
      in
      let rec loop () =
        if Atomic.get remaining > 0 then begin
          Mutex.lock mu;
          let v0 = !version in
          Mutex.unlock mu;
          match Deque.pop_bottom my with
          | Some i ->
              run i;
              loop ()
          | None -> (
              match try_steal () with
              | Some i ->
                  run i;
                  loop ()
              | None ->
                  Mutex.lock mu;
                  if !version = v0 && Atomic.get remaining > 0 then begin
                    incr sleepers;
                    Condition.wait cv mu;
                    decr sleepers
                  end;
                  Mutex.unlock mu;
                  loop ())
        end
      in
      loop ()
    in
    match pool with
    | None -> lane_body ~lane:0
    | Some p -> Pool.run_team p lane_body
  end

let run_phase ?log ~mode ~pool ~host_lanes ~phase ~substep ~instrument spec
    bodies =
  let san = !sanitizer_hook in
  (match san with
  | None -> ()
  | Some s ->
      s.san_phase_begin ~phase ~substep
        ~n_tasks:(Array.length spec.Spec.tasks));
  (match mode with
  | Sequential ->
      run_sequential ?log ~san ~phase ~substep ~instrument spec bodies
  | Steal ->
      run_stealing ?log ~pool ~host_lanes ~san ~phase ~substep ~instrument
        spec bodies);
  match san with None -> () | Some s -> s.san_phase_end ()
