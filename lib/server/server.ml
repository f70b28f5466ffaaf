open Mpas_swe
module Ensemble = Mpas_ensemble.Ensemble
module Metrics = Mpas_obs.Metrics

type priority = High | Normal | Low

let priority_name = function High -> "high" | Normal -> "normal" | Low -> "low"
let lane_of = function High -> 0 | Normal -> 1 | Low -> 2
let lanes = [| High; Normal; Low |]

type reject =
  | Queue_full of int
  | Tenant_quota of string * int
  | Unsupported of string

let reject_message = function
  | Queue_full limit ->
      Printf.sprintf "queue full (got %d queued jobs, expected < %d)" limit
        limit
  | Tenant_quota (tenant, quota) ->
      Printf.sprintf "tenant %s over quota (got %d active jobs, expected < %d)"
        tenant quota quota
  | Unsupported msg -> "unsupported: " ^ msg

type status =
  | Queued
  | Delayed of int
  | Running
  | Completed
  | Failed of string
  | Shed of string
  | Cancelled

let status_name = function
  | Queued -> "queued"
  | Delayed t -> Printf.sprintf "delayed until t%d" t
  | Running -> "running"
  | Completed -> "completed"
  | Failed r -> "failed: " ^ r
  | Shed r -> "shed: " ^ r
  | Cancelled -> "cancelled"

type info = {
  jb_id : int;
  jb_tenant : string;
  jb_priority : priority;
  jb_status : status;
  jb_done : int;
  jb_steps : int;
  jb_retries : int;
  jb_deadline : int option;
}

type job = {
  j_id : int;
  j_tenant : string;
  j_case : Williamson.case;
  j_config : Config.t;
  j_dt : float;
  j_steps : int;
  j_deadline : int option;
  j_init : Fields.state;  (** step-0 state, the cold-start restart point *)
  j_b : float array;
  j_fv : float array;
  j_submitted : float;  (** wall clock, for the latency histogram only *)
  mutable j_priority : priority;
  mutable j_status : status;
  mutable j_member : int option;  (** ensemble member id while [Running] *)
  mutable j_base : int;  (** steps already done when last admitted *)
  mutable j_done : int;
  mutable j_retries : int;
  mutable j_resume : (int * Fields.state) option;  (** restart point *)
  mutable j_last_ck : int;  (** step of the newest checkpoint written *)
  mutable j_result : Fields.state option;
}

type tenant = {
  tn_name : string;
  mutable tn_weight : float;
  mutable tn_vt : float;  (** virtual time: accumulated service / weight *)
  tn_queues : int Queue.t array;  (** one FIFO of job ids per lane *)
}

type t = {
  mesh : Mpas_mesh.Mesh.t;
  engine : Ensemble.t;
  store : Store.t;
  registry : Metrics.t;
  capacity : int;
  queue_limit : int;
  tenant_quota : int;
  checkpoint_every : int;
  max_retries : int;
  finish_over_deadline : bool;
  fault : Fault.plan;
  jobs : (int, job) Hashtbl.t;
  tenants : (string, tenant) Hashtbl.t;
  mutable next_id : int;
  mutable t_now : int;
  pooled : bool;
  armed : (int * string) option ref;
      (** fault-injection arming, read by the engine hook: raise
          [Fault.Injected why] after this many more member steps of
          the current sweep *)
  c_ticks : Metrics.Counter.t;
  c_recoveries : Metrics.Counter.t;
  c_restores : Metrics.Counter.t;
  c_demotions : Metrics.Counter.t;
  c_cancelled : Metrics.Counter.t;
  g_queue : Metrics.Gauge.t;
  g_lane : Metrics.Gauge.t array;
  g_running : Metrics.Gauge.t;
  g_delayed : Metrics.Gauge.t;
  t_tick : Metrics.Timer.t;
}

let create ?(registry = Metrics.default) ?(capacity = 16) ?pool
    ?(queue_limit = 64) ?(tenant_quota = 16) ?(checkpoint_every = 5)
    ?(max_retries = 3) ?(finish_over_deadline = false) ?(fault = []) mesh =
  if queue_limit < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: queue_limit %d, need >= 1" queue_limit);
  if tenant_quota < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: tenant_quota %d, need >= 1" tenant_quota);
  if checkpoint_every < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: checkpoint_every %d, need >= 1"
         checkpoint_every);
  if max_retries < 0 then
    invalid_arg
      (Printf.sprintf "Server.create: max_retries %d, need >= 0" max_retries);
  let armed = ref None in
  let interrupt () =
    match !armed with
    | Some (0, why) ->
        armed := None;
        raise (Fault.Injected why)
    | Some (k, why) -> armed := Some (k - 1, why)
    | None -> ()
  in
  let engine = Ensemble.create ~registry ~capacity ?pool ~interrupt mesh in
  {
    mesh;
    engine;
    store = Store.create ~registry ();
    registry;
    capacity;
    queue_limit;
    tenant_quota;
    checkpoint_every;
    max_retries;
    finish_over_deadline;
    fault;
    jobs = Hashtbl.create 64;
    tenants = Hashtbl.create 8;
    next_id = 0;
    t_now = 0;
    pooled = Option.is_some pool;
    armed;
    c_ticks = Metrics.counter ~registry "server.ticks";
    c_recoveries = Metrics.counter ~registry "server.recoveries";
    c_restores = Metrics.counter ~registry "server.restores";
    c_demotions = Metrics.counter ~registry "server.deadline_demotions";
    c_cancelled = Metrics.counter ~registry "server.jobs_cancelled";
    g_queue = Metrics.gauge ~registry "server.queue_depth";
    g_lane =
      Array.map
        (fun p ->
          Metrics.gauge ~registry
            ~labels:[ ("lane", priority_name p) ]
            "server.queue_depth")
        lanes;
    g_running = Metrics.gauge ~registry "server.running";
    g_delayed = Metrics.gauge ~registry "server.delayed";
    t_tick = Metrics.timer ~registry "server.tick";
  }

let now t = t.t_now

(* --- small scans (job counts are modest; clarity over O(1)) ------------- *)

let sorted_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.jobs [] |> List.sort compare

let fold_jobs t f init =
  List.fold_left (fun acc id -> f acc (Hashtbl.find t.jobs id)) init
    (sorted_ids t)

let count_status t pred = fold_jobs t (fun n j -> if pred j then n + 1 else n) 0

let queue_depth t =
  count_status t (fun j ->
      match j.j_status with Queued | Delayed _ -> true | _ -> false)

let running t = count_status t (fun j -> j.j_status = Running)

let delayed_count t =
  count_status t (fun j -> match j.j_status with Delayed _ -> true | _ -> false)

let lane_depth t p =
  count_status t (fun j -> j.j_status = Queued && j.j_priority = p)

let tenant_active t name =
  count_status t (fun j ->
      j.j_tenant = name
      && match j.j_status with Queued | Delayed _ | Running -> true | _ -> false)

let update_gauges t =
  Metrics.Gauge.set t.g_queue (float_of_int (queue_depth t));
  Array.iteri
    (fun i g -> Metrics.Gauge.set g (float_of_int (lane_depth t lanes.(i))))
    t.g_lane;
  Metrics.Gauge.set t.g_running (float_of_int (running t));
  Metrics.Gauge.set t.g_delayed (float_of_int (delayed_count t))

let tenant_counter t name metric =
  Metrics.counter ~registry:t.registry ~labels:[ ("tenant", name) ] metric

let reason_counter t metric reason =
  Metrics.counter ~registry:t.registry ~labels:[ ("reason", reason) ] metric

(* --- tenants and the fair queues ---------------------------------------- *)

let min_active_vt t =
  fold_jobs t
    (fun acc j ->
      match j.j_status with
      | Queued | Delayed _ | Running ->
          let tn = Hashtbl.find t.tenants j.j_tenant in
          Float.min acc tn.tn_vt
      | _ -> acc)
    Float.infinity

let tenant_of t ?weight name =
  let tn =
    match Hashtbl.find_opt t.tenants name with
    | Some tn -> tn
    | None ->
        let tn =
          {
            tn_name = name;
            tn_weight = 1.;
            tn_vt = 0.;
            tn_queues = Array.map (fun _ -> Queue.create ()) lanes;
          }
        in
        Hashtbl.add t.tenants name tn;
        tn
  in
  Option.iter (fun w -> tn.tn_weight <- w) weight;
  tn

let enqueue t (j : job) =
  let tn = Hashtbl.find t.tenants j.j_tenant in
  (* A tenant returning from idle must not cash in the virtual time it
     never spent: clamp to the least-served active tenant. *)
  if tenant_active t j.j_tenant = 0 then begin
    let m = min_active_vt t in
    if Float.is_finite m then tn.tn_vt <- Float.max tn.tn_vt m
  end;
  j.j_status <- Queued;
  Queue.push j.j_id tn.tn_queues.(lane_of j.j_priority)

(* Queues are lazily cleaned: cancellation, shedding and demotion just
   flip the job's status/priority, and stale heads are dropped when the
   scheduler next looks at the lane. *)
let drop_stale t tn lane =
  let q = tn.tn_queues.(lane) in
  let rec go () =
    match Queue.peek_opt q with
    | Some id ->
        let j = Hashtbl.find t.jobs id in
        if j.j_status = Queued && lane_of j.j_priority = lane then ()
        else begin
          ignore (Queue.pop q);
          go ()
        end
    | None -> ()
  in
  go ()

let pick_admission t =
  (* Strict priority across lanes, weighted-fair (min virtual time,
     name tiebreak) within one. *)
  let rec by_lane lane =
    if lane > 2 then None
    else begin
      let best = ref None in
      Hashtbl.iter
        (fun _ tn ->
          drop_stale t tn lane;
          if not (Queue.is_empty tn.tn_queues.(lane)) then
            match !best with
            | Some b
              when (b.tn_vt, b.tn_name) <= (tn.tn_vt, tn.tn_name) ->
                ()
            | _ -> best := Some tn)
        t.tenants;
      match !best with
      | Some tn -> Some (tn, Queue.pop tn.tn_queues.(lane))
      | None -> by_lane (lane + 1)
    end
  in
  by_lane 0

(* --- submit -------------------------------------------------------------- *)

let validate_request ~steps ~dt ~weight ~deadline =
  if steps < 1 then
    invalid_arg (Printf.sprintf "Server.submit: steps %d, need >= 1" steps);
  let positive what = function
    | Some v when not (Float.is_finite v && v > 0.) ->
        invalid_arg (Printf.sprintf "Server.submit: %s %g, need > 0" what v)
    | _ -> ()
  in
  positive "dt" dt;
  positive "weight" weight;
  match deadline with
  | Some d when d < 0 ->
      invalid_arg (Printf.sprintf "Server.submit: deadline %d, need >= 0" d)
  | _ -> ()

let unsupported_config (cfg : Config.t) =
  if cfg.integrator <> Config.Rk4 then
    Some "integrator (got ssprk3, expected rk4)"
  else if cfg.visc4 <> 0. then
    Some (Printf.sprintf "del-4 dissipation (got visc4 = %g, expected 0)" cfg.visc4)
  else None

(* Under pressure, the newest job of the strictly lowest-priority class
   makes room for a higher-priority arrival. *)
let shed_victim t ~for_priority =
  fold_jobs t
    (fun acc j ->
      if j.j_status = Queued && lane_of j.j_priority > lane_of for_priority
      then
        match acc with
        | Some (v : job)
          when (lane_of v.j_priority, v.j_id)
               >= (lane_of j.j_priority, j.j_id) ->
            acc
        | _ -> Some j
      else acc)
    None

let shed t (j : job) reason why =
  j.j_status <- Shed why;
  Store.drop t.store ~job:j.j_id;
  Metrics.Counter.incr (reason_counter t "server.jobs_shed" reason)

let submit t ?(tenant = "default") ?weight ?(priority = Normal) ?deadline
    ?(config = Config.default) ?dt ~steps case =
  validate_request ~steps ~dt ~weight ~deadline;
  let tn = tenant_of t ?weight tenant in
  let reject r =
    let reason =
      match r with
      | Queue_full _ -> "queue-full"
      | Tenant_quota _ -> "tenant-quota"
      | Unsupported _ -> "unsupported"
    in
    Metrics.Counter.incr (reason_counter t "server.jobs_rejected" reason);
    Error r
  in
  match unsupported_config config with
  | Some msg -> reject (Unsupported msg)
  | None ->
      if tenant_active t tenant >= t.tenant_quota then
        reject (Tenant_quota (tenant, t.tenant_quota))
      else if
        queue_depth t >= t.queue_limit
        &&
        match shed_victim t ~for_priority:priority with
        | Some v ->
            shed t v "pressure"
              (Printf.sprintf "displaced by %s-priority submit at t%d"
                 (priority_name priority) t.t_now);
            false
        | None -> true
      then reject (Queue_full t.queue_limit)
      else begin
        let prepared = Williamson.prepare_mesh case t.mesh in
        let state, b = Williamson.init case prepared in
        let dt =
          match dt with
          | Some d -> d
          | None -> Williamson.recommended_dt case t.mesh
        in
        let id = t.next_id in
        t.next_id <- id + 1;
        let j =
          {
            j_id = id;
            j_tenant = tenant;
            j_case = case;
            j_config = config;
            j_dt = dt;
            j_steps = steps;
            j_deadline = deadline;
            j_init = state;
            j_b = b;
            j_fv = prepared.Mpas_mesh.Mesh.f_vertex;
            j_submitted = Unix.gettimeofday ();
            j_priority = priority;
            j_status = Queued;
            j_member = None;
            j_base = 0;
            j_done = 0;
            j_retries = 0;
            j_resume = None;
            j_last_ck = -1;
            j_result = None;
          }
        in
        Hashtbl.add t.jobs id j;
        ignore tn;
        enqueue t j;
        Metrics.Counter.incr (tenant_counter t tenant "server.jobs_submitted");
        update_gauges t;
        Ok id
      end

(* --- lifecycle helpers --------------------------------------------------- *)

let info_of (j : job) =
  {
    jb_id = j.j_id;
    jb_tenant = j.j_tenant;
    jb_priority = j.j_priority;
    jb_status = j.j_status;
    jb_done = j.j_done;
    jb_steps = j.j_steps;
    jb_retries = j.j_retries;
    jb_deadline = j.j_deadline;
  }

let find t id =
  match Hashtbl.find_opt t.jobs id with
  | Some j -> j
  | None -> raise Not_found

let query t id = info_of (find t id)
let jobs t = List.map (fun id -> info_of (Hashtbl.find t.jobs id)) (sorted_ids t)
let result t id = (find t id).j_result

let evict_member t (j : job) =
  match j.j_member with
  | Some m ->
      Ensemble.evict t.engine m;
      j.j_member <- None
  | None -> ()

let cancel t id =
  let j = find t id in
  match j.j_status with
  | Queued | Delayed _ | Running ->
      evict_member t j;
      j.j_status <- Cancelled;
      Store.drop t.store ~job:id;
      Metrics.Counter.incr t.c_cancelled;
      update_gauges t
  | Completed | Failed _ | Shed _ | Cancelled -> ()

let fail t (j : job) reason =
  evict_member t j;
  j.j_status <- Failed reason;
  Store.drop t.store ~job:j.j_id;
  Metrics.Counter.incr (tenant_counter t j.j_tenant "server.jobs_failed")

let complete t (j : job) state =
  evict_member t j;
  j.j_status <- Completed;
  j.j_result <- Some state;
  j.j_done <- j.j_steps;
  Store.drop t.store ~job:j.j_id;
  Metrics.Counter.incr (tenant_counter t j.j_tenant "server.jobs_completed");
  Metrics.Timer.record
    (Metrics.timer ~registry:t.registry
       ~labels:[ ("tenant", j.j_tenant) ]
       "server.job_latency")
    (Unix.gettimeofday () -. j.j_submitted)

(* Fault recovery: back off exponentially in ticks, restart from the
   newest valid checkpoint.  A job that exhausts its retries, or whose
   every checkpoint is damaged, is reported failed — never silently
   rerun from a corrupt image. *)
let recover t (j : job) why =
  evict_member t j;
  j.j_retries <- j.j_retries + 1;
  Metrics.Counter.incr t.c_recoveries;
  if j.j_retries > t.max_retries then
    fail t j
      (Printf.sprintf "retries exhausted (%d) after %s" t.max_retries why)
  else
    match Store.best t.store ~job:j.j_id with
    | Some (step, state) ->
        j.j_resume <- Some (step, state);
        j.j_done <- step;
        Metrics.Counter.incr t.c_restores;
        j.j_status <- Delayed (t.t_now + (1 lsl (j.j_retries - 1)))
    | None -> fail t j ("no valid checkpoint after " ^ why)

let recover_running t why =
  List.iter
    (fun id ->
      let j = Hashtbl.find t.jobs id in
      if j.j_status = Running then recover t j why)
    (sorted_ids t)

(* --- the scheduler round -------------------------------------------------- *)

let release_backoffs t =
  List.iter
    (fun id ->
      let j = Hashtbl.find t.jobs id in
      match j.j_status with
      | Delayed until when until <= t.t_now -> enqueue t j
      | _ -> ())
    (sorted_ids t)

let enforce_deadlines t =
  List.iter
    (fun id ->
      let j = Hashtbl.find t.jobs id in
      match (j.j_status, j.j_deadline) with
      | (Queued | Delayed _), Some d when t.t_now > d ->
          if t.finish_over_deadline then begin
            if j.j_priority <> Low then begin
              (* Demote to the cheap lane; the stale entry in the old
                 lane's queue is dropped on the next admission scan. *)
              j.j_priority <- Low;
              Metrics.Counter.incr t.c_demotions;
              if j.j_status = Queued then begin
                let tn = Hashtbl.find t.tenants j.j_tenant in
                Queue.push j.j_id tn.tn_queues.(lane_of Low)
              end
            end
          end
          else
            shed t j "deadline"
              (Printf.sprintf "deadline t%d exceeded at t%d" d t.t_now)
      | _ -> ())
    (sorted_ids t)

let admit t =
  let free () = t.capacity - running t in
  let rec go () =
    if free () > 0 then
      match pick_admission t with
      | None -> ()
      | Some (tn, id) ->
          let j = Hashtbl.find t.jobs id in
          let base, state =
            match j.j_resume with
            | Some (step, st) -> (step, st)
            | None -> (0, j.j_init)
          in
          let member =
            Ensemble.submit t.engine ~tenant:j.j_tenant ~config:j.j_config
              ~target:(j.j_steps - base) ~f_vertex:j.j_fv ~dt:j.j_dt ~b:j.j_b
              state
          in
          j.j_member <- Some member;
          j.j_base <- base;
          j.j_done <- base;
          j.j_status <- Running;
          (* Charge the remaining work against the tenant's fair share. *)
          tn.tn_vt <-
            tn.tn_vt +. (float_of_int (j.j_steps - base) /. tn.tn_weight);
          Metrics.Counter.incr
            (tenant_counter t j.j_tenant "server.jobs_admitted");
          (* Every job gets a restart point before its first step, so a
             fault can never strand it without a checkpoint (unless that
             write itself is faulted — then it fails, with a reason). *)
          if Store.entries t.store ~job:id = 0 then begin
            Store.put t.store ~job:id ~step:base state;
            j.j_last_ck <- base
          end;
          go ()
  in
  go ()

let post_step t =
  List.iter
    (fun id ->
      let j = Hashtbl.find t.jobs id in
      if j.j_status = Running then begin
        let member = Option.get j.j_member in
        let mi = Ensemble.query t.engine member in
        j.j_done <- j.j_base + mi.Ensemble.i_steps;
        match mi.Ensemble.i_status with
        | Ensemble.Running ->
            if
              j.j_done > j.j_last_ck
              && j.j_done mod t.checkpoint_every = 0
            then begin
              Store.put t.store ~job:id ~step:j.j_done
                (Ensemble.state t.engine member);
              j.j_last_ck <- j.j_done
            end
        | Ensemble.Done -> complete t j (Ensemble.state t.engine member)
        | Ensemble.Failed r -> fail t j ("diverged: " ^ r)
      end)
    (sorted_ids t)

(* Where this tick's disruptive fault lands in the sweep: a lane death
   before the first member, a kernel raise after at least one member
   has stepped whenever two or more are running.  A pooled sweep calls
   the hook only once, at entry, so its faults land there. *)
let arm t ~raise_arg ~death =
  let n = running t in
  t.armed :=
    match (death, raise_arg) with
    | true, _ -> Some (0, "lane death")
    | false, Some a ->
        let k = if t.pooled || n < 2 then 0 else 1 + (abs a mod (n - 1)) in
        Some (k, Printf.sprintf "kernel raise before member %d" k)
    | false, None -> None

let tick t =
  Metrics.Timer.time t.t_tick (fun () ->
      t.t_now <- t.t_now + 1;
      Metrics.Counter.incr t.c_ticks;
      let raise_arg = ref None and death = ref false in
      List.iter
        (fun (ev : Fault.event) ->
          Metrics.Counter.incr
            (reason_counter t "server.faults_injected"
               (Fault.kind_name ev.Fault.ev_kind));
          match ev.Fault.ev_kind with
          | Fault.Kernel_raise -> raise_arg := Some ev.Fault.ev_arg
          | Fault.Snapshot_truncate -> Store.arm_truncation t.store 1
          | Fault.Lane_death -> death := true)
        (Fault.at t.fault ~tick:t.t_now);
      release_backoffs t;
      enforce_deadlines t;
      admit t;
      if running t > 0 then begin
        arm t ~raise_arg:!raise_arg ~death:!death;
        match Ensemble.step t.engine () with
        | () -> post_step t
        | exception Fault.Injected why -> recover_running t why
      end;
      (* Disarm any fault the batch did not consume. *)
      t.armed := None;
      update_gauges t)

let drain t ?(max_ticks = 10_000) () =
  let live () =
    count_status t (fun j ->
        match j.j_status with Queued | Delayed _ | Running -> true | _ -> false)
    > 0
  in
  let rec go n =
    if not (live ()) then true else if n = 0 then false
    else begin
      tick t;
      go (n - 1)
    end
  in
  go max_ticks
