open Mpas_mesh
open Mpas_swe
open Mpas_par
module Metrics = Mpas_obs.Metrics

type status = Running | Done | Failed of string

let status_name = function
  | Running -> "running"
  | Done -> "done"
  | Failed r -> "failed: " ^ r

type info = {
  i_id : int;
  i_tenant : string;
  i_status : status;
  i_steps : int;
  i_target : int option;
}

(* A slot's float arrays, allocated once at [create] and reused by
   every member the slot ever holds.  [mesh] is the engine mesh with
   the slot's own [f_vertex] array, which [submit] overwrites with the
   member's Coriolis field; everything else (connectivity, geometry,
   the memoized CSR) is shared with the engine mesh. *)
type buffers = {
  state : Fields.state;
  work : Timestep.workspace;
  b : float array;
  mesh : Mesh.t;
}

type member = {
  s_id : int;
  s_tenant : string;
  s_target : int option;
  s_config : Config.t;
  s_dt : float;
  mutable s_status : status;
  mutable s_steps : int;
  c_stepped : Metrics.Counter.t;
  c_failed : Metrics.Counter.t;
  t_step : Metrics.Timer.t;
}

type t = {
  mesh : Mesh.t;
  registry : Metrics.t;
  pool : Pool.t option;
  interrupt : (unit -> unit) option;
  bufs : buffers array;
  slots : member option array;
  by_id : (int, int) Hashtbl.t;  (** member id -> slot index *)
  mutable free : int list;
  mutable next_id : int;
  g_occupancy : Metrics.Gauge.t;
  c_batch_steps : Metrics.Counter.t;
  t_batch_step : Metrics.Timer.t;
}

(* --- construction ------------------------------------------------------- *)

let create ?(registry = Metrics.default) ?(capacity = 64) ?pool ?interrupt
    mesh =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Ensemble.create: capacity %d, need >= 1" capacity);
  (* Validate and memoize the CSR before the per-slot mesh copies, so
     they all share it. *)
  ignore (Mesh.csr mesh);
  let buffers _ =
    {
      state = Fields.alloc_state mesh;
      work = Timestep.alloc_workspace mesh;
      b = Array.make mesh.Mesh.n_cells 0.;
      mesh = { mesh with Mesh.f_vertex = Array.copy mesh.Mesh.f_vertex };
    }
  in
  {
    mesh;
    registry;
    pool;
    interrupt;
    bufs = Array.init capacity buffers;
    slots = Array.make capacity None;
    by_id = Hashtbl.create 64;
    free = List.init capacity (fun i -> i);
    next_id = 0;
    g_occupancy = Metrics.gauge ~registry "ensemble.occupancy";
    c_batch_steps = Metrics.counter ~registry "ensemble.batch_steps";
    t_batch_step = Metrics.timer ~registry "ensemble.batch_step";
  }

let capacity t = Array.length t.slots
let mesh t = t.mesh

let info_of s =
  {
    i_id = s.s_id;
    i_tenant = s.s_tenant;
    i_status = s.s_status;
    i_steps = s.s_steps;
    i_target = s.s_target;
  }

let members t =
  Array.to_list t.slots
  |> List.filter_map (Option.map info_of)
  |> List.sort (fun a b -> compare a.i_id b.i_id)

let running_count t =
  Array.fold_left
    (fun n -> function Some { s_status = Running; _ } -> n + 1 | _ -> n)
    0 t.slots

let occupancy t = float_of_int (running_count t) /. float_of_int (capacity t)

let update_occupancy t =
  Metrics.Gauge.set t.g_occupancy (occupancy t)

(* --- submit ------------------------------------------------------------- *)

let check_counted what got expected =
  if got <> expected then
    invalid_arg
      (Printf.sprintf "Ensemble.submit: %s (got %d, expected %d)" what got
         expected)

let validate_config (cfg : Config.t) =
  (match cfg.integrator with
  | Config.Rk4 -> ()
  | Config.Ssprk3 ->
      invalid_arg
        "Ensemble.submit: integrator unsupported (got ssprk3, expected rk4)");
  if cfg.visc4 <> 0. then
    invalid_arg
      (Printf.sprintf
         "Ensemble.submit: del-4 dissipation unsupported (got visc4 = %g, \
          expected 0)"
         cfg.visc4)

let check_state t (st : Fields.state) =
  check_counted "state.h cells" (Array.length st.Fields.h) t.mesh.Mesh.n_cells;
  check_counted "state.u edges" (Array.length st.Fields.u) t.mesh.Mesh.n_edges;
  check_counted "tracer rows" (Array.length st.Fields.tracers) 0

(* Copy [st] into the slot's state and recompute its diagnostics, so the
   first tendency evaluation sees diagnostics matching the state,
   exactly as [Model.of_state] initializes a solo run. *)
let load t slot s (st : Fields.state) =
  let buf = t.bufs.(slot) in
  Array.blit st.Fields.h 0 buf.state.Fields.h 0 (Array.length st.Fields.h);
  Array.blit st.Fields.u 0 buf.state.Fields.u 0 (Array.length st.Fields.u);
  Timestep.init_diagnostics Timestep.fused s.s_config buf.mesh ~dt:s.s_dt
    ~state:buf.state ~work:buf.work

let submit t ?(tenant = "default") ?(config = Config.default) ?target
    ?f_vertex ~dt ~b (state : Fields.state) =
  let m = t.mesh in
  validate_config config;
  check_state t state;
  check_counted "b cells" (Array.length b) m.Mesh.n_cells;
  let fvert = Option.value f_vertex ~default:m.Mesh.f_vertex in
  check_counted "f_vertex vertices" (Array.length fvert) m.Mesh.n_vertices;
  if not (Float.is_finite dt && dt > 0.) then
    invalid_arg (Printf.sprintf "Ensemble.submit: dt = %g, need > 0" dt);
  (match target with
  | Some n when n < 0 ->
      invalid_arg (Printf.sprintf "Ensemble.submit: target = %d, need >= 0" n)
  | _ -> ());
  let slot =
    match t.free with
    | [] ->
        invalid_arg
          (Printf.sprintf
             "Ensemble.submit: batch full (got %d members, expected < %d)"
             (capacity t) (capacity t))
    | s :: rest ->
        t.free <- rest;
        s
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let buf = t.bufs.(slot) in
  Array.blit b 0 buf.b 0 (Array.length b);
  Array.blit fvert 0 buf.mesh.Mesh.f_vertex 0 (Array.length fvert);
  let labels = [ ("tenant", tenant) ] in
  let s =
    {
      s_id = id;
      s_tenant = tenant;
      s_target = target;
      s_config = config;
      s_dt = dt;
      s_status = (if target = Some 0 then Done else Running);
      s_steps = 0;
      c_stepped =
        Metrics.counter ~registry:t.registry ~labels "ensemble.members_stepped";
      c_failed =
        Metrics.counter ~registry:t.registry ~labels "ensemble.member_failures";
      t_step = Metrics.timer ~registry:t.registry ~labels "ensemble.step";
    }
  in
  load t slot s state;
  t.slots.(slot) <- Some s;
  Hashtbl.replace t.by_id id slot;
  update_occupancy t;
  id

let submit_case t ?tenant ?(config = Config.default) ?dt ?target case =
  let m = t.mesh in
  let prepared = Williamson.prepare_mesh case m in
  let state, b = Williamson.init case prepared in
  let dt =
    match dt with Some d -> d | None -> Williamson.recommended_dt case m
  in
  submit t ?tenant ~config ?target ~f_vertex:prepared.Mesh.f_vertex ~dt ~b
    state

(* --- stepping ----------------------------------------------------------- *)

let slot_of t id =
  match Hashtbl.find_opt t.by_id id with
  | Some s -> s
  | None -> raise Not_found

(* Quarantine scan of one member's prognostic fields: the first
   non-finite or non-positive thickness (lowest cell first), else the
   first non-finite velocity. *)
let quarantine (st : Fields.state) =
  let h = st.Fields.h and u = st.Fields.u in
  let rec cells c =
    if c = Array.length h then edges 0
    else if not (Float.is_finite h.(c)) then
      Some (Printf.sprintf "non-finite h at cell %d" c)
    else if h.(c) <= 0. then Some (Printf.sprintf "non-positive h at cell %d" c)
    else cells (c + 1)
  and edges e =
    if e = Array.length u then None
    else if not (Float.is_finite u.(e)) then
      Some (Printf.sprintf "non-finite u at edge %d" e)
    else edges (e + 1)
  in
  cells 0

(* One solo fused RK-4 step over the slot's own arrays, then its
   quarantine scan.  Members share nothing writable, so any number of
   them may run concurrently. *)
let advance t slot s =
  let buf = t.bufs.(slot) in
  Timestep.step Timestep.fused s.s_config buf.mesh ~b:buf.b ~dt:s.s_dt
    ~state:buf.state ~work:buf.work ();
  quarantine buf.state

(* Bookkeeping after a member's step, on the orchestrating domain. *)
let record s finding =
  s.s_steps <- s.s_steps + 1;
  Metrics.Counter.incr s.c_stepped;
  match finding with
  | Some reason ->
      s.s_status <- Failed reason;
      Metrics.Counter.incr s.c_failed
  | None -> (
      match s.s_target with
      | Some tgt when s.s_steps >= tgt -> s.s_status <- Done
      | _ -> ())

let sweep t running =
  let fire () = match t.interrupt with None -> () | Some f -> f () in
  match t.pool with
  | None ->
      Array.iter
        (fun (slot, s) ->
          fire ();
          record s (advance t slot s))
        running
  | Some pool ->
      fire ();
      let findings = Array.make (Array.length running) None in
      Pool.parallel_for pool ~lo:0 ~hi:(Array.length running) (fun i ->
          let slot, s = running.(i) in
          findings.(i) <- advance t slot s);
      Array.iteri (fun i (_, s) -> record s findings.(i)) running

let step t ?(n = 1) () =
  for _ = 1 to n do
    let running =
      Array.to_list t.slots
      |> List.mapi (fun slot s -> (slot, s))
      |> List.filter_map (function
           | slot, Some ({ s_status = Running; _ } as s) -> Some (slot, s)
           | _ -> None)
      |> Array.of_list
    in
    if Array.length running > 0 then begin
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () -> update_occupancy t)
        (fun () -> sweep t running);
      let dt_wall = Unix.gettimeofday () -. t0 in
      Metrics.Counter.incr t.c_batch_steps;
      Metrics.Timer.record t.t_batch_step dt_wall;
      let tenants_seen = Hashtbl.create 8 in
      Array.iter
        (fun (_, s) ->
          if not (Hashtbl.mem tenants_seen s.s_tenant) then begin
            Hashtbl.add tenants_seen s.s_tenant ();
            Metrics.Timer.record s.t_step dt_wall
          end)
        running
    end
  done

(* --- query / mutation --------------------------------------------------- *)

let member t id =
  match t.slots.(slot_of t id) with Some s -> s | None -> raise Not_found

let query t id = info_of (member t id)

let state t id = Fields.copy_state t.bufs.(slot_of t id).state

let set_state t id (st : Fields.state) =
  let slot = slot_of t id in
  check_state t st;
  let s = member t id in
  s.s_status <- Running;
  load t slot s st;
  update_occupancy t

let evict t id =
  let slot = slot_of t id in
  t.slots.(slot) <- None;
  Hashtbl.remove t.by_id id;
  t.free <- slot :: t.free;
  update_occupancy t
