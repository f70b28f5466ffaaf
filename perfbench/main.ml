(* The repository benchmark.  One invocation runs one workload for a
   fixed wall-clock budget, checks every output bit for bit against a
   sequential [Timestep.refactored] run, and prints as its last line one
   JSON object: the end-to-end metrics ([--trace 0]) or the per-layer
   metrics of a traced run ([--trace 1]).  The line before it holds the
   host block and run detail.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every layer is timed from outside, around calls into its public
   functions; no library code is instrumented for the benchmark.
   perfbench/README.md lists the workloads, why each was chosen, the
   metric definitions and the prediction table. *)

open Mpas_swe
module Mesh = Mpas_mesh.Mesh
module Build = Mpas_mesh.Build
module Metrics = Mpas_obs.Metrics
module Trace = Mpas_obs.Trace
module Jsonv = Mpas_obs.Jsonv
module Report = Mpas_obs_report.Report
module Ensemble = Mpas_ensemble.Ensemble
module Server = Mpas_server.Server
module Driver = Mpas_dist.Driver

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* --- metric catalogue (the same names and units as BENCHMARK.json) ------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("step_ms", "ms");
    ("step_ms_p90", "ms");
    ("member_step_ms", "ms");
    ("member_step_ms_p90", "ms");
    ("job_latency_p50_s", "s");
    ("job_latency_p90_s", "s");
    ("jobs_per_s", "1/s");
  ]

let kernel_names = List.map Timestep.kernel_name Timestep.all_kernels
let per_kernel suffix unit = List.map (fun k -> ("swe.kernel." ^ k ^ suffix, unit)) kernel_names

let per_layer =
  [
    ("host.probe_ms", "ms");
    ("mesh.build_s", "s");
    ("swe.model_init_s", "s");
    ("ensemble.submit_ms", "ms");
    ("server.submit_us", "us");
    ("swe.step_ms", "ms");
  ]
  @ per_kernel "_ms" "ms"
  @ [ ("swe.kernel_sum_ms", "ms"); ("swe.step_residual_ms", "ms") ]
  @ per_kernel ".gbps_computed" "GB/s"
  @ per_kernel ".roofline_ratio" "ratio"
  @ [
      ("gc.minor_words_per_step", "words");
      ("gc.major_collections_per_step", "count");
      ("ensemble.batch_step_ms", "ms");
      ("ensemble.batch_step_timer_ms", "ms");
      ("ensemble.members_stepped", "count");
      ("ensemble.member_failures", "count");
      ("ensemble.useful_ratio", "ratio");
      ("server.tick_ms", "ms");
      ("server.tick_batch_ms", "ms");
      ("server.tick_overhead_ms", "ms");
      ("server.job_latency_p50_s", "s");
      ("server.queue_wait_p50_s", "s");
      ("server.queue_wait_p90_s", "s");
      ("server.compute_p50_s", "s");
      ("server.latency_residual_p50_s", "s");
      ("server.checkpoints_written", "count");
      ("server.checkpoint_bytes_per_job", "bytes");
      ("swe.snapshot.encode_ms", "ms");
      ("swe.snapshot.decode_ms", "ms");
      ("loadgen.late_p90_s", "s");
      ("loadgen.backlog_end", "count");
      ("dist.step_ms", "ms");
      ("dist.halo.exchanges_per_step", "count");
      ("dist.halo.bytes_per_step", "bytes");
      ("trace.overhead_pct", "%");
      ("trace.events", "count");
    ]

(* --- command line ------------------------------------------------------- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S wall-clock seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* --- statistics --------------------------------------------------------- *)

(* Linear-interpolation quantile, numpy's default estimator. *)
let quantile a q =
  let b = Array.copy a in
  Array.sort Float.compare b;
  let n = Array.length b in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then b.(n - 1)
    else b.(i) +. ((pos -. float_of_int i) *. (b.(i + 1) -. b.(i)))

let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0. a
let mean a = sum a /. float_of_int (Array.length a)

(* A served job is [job_steps] RK-4 steps of one member.  The step
   workloads report job metrics for the same unit of work: the time of
   every run of [job_steps] consecutive steps, with no queueing. *)
let job_steps = 6

let windows a =
  Array.init
    (max 0 (Array.length a - job_steps + 1))
    (fun i -> sum (Array.sub a i job_steps))

(* p90 needs ten samples beyond it. *)
let min_samples = 110

(* --- host-speed probe ---------------------------------------------------- *)

(* The shared host this benchmark was written on runs the same code up
   to 2x slower for tens of seconds at a time.  A fixed loop, owned by
   the benchmark and so untouched by any library change, runs before
   every timed call: [probe_passes] dependent sums over a 512 KiB array
   that stays in L2.  It slows down with the workloads; over long runs
   it tracked their speed better than a gather through L3 did.  Each
   end-to-end time is scaled by [host_factor] of the probes near it:
   time on a host whose probe takes [probe_ref].  Probe time is kept
   off the clock the workloads see ([vnow]). *)
let probe_n = 1 lsl 16
let probe_passes = 8
let probe_src = Array.init probe_n float_of_int

let probe_ref = 0.45e-3
let host_factor probes = probe_ref /. median (Array.map snd probes)
let now = Unix.gettimeofday
let probe_log = ref []
let paused = ref 0.

let probe () =
  let t0 = now () in
  let s = ref 0. in
  for _ = 1 to probe_passes do
    for i = 0 to probe_n - 1 do
      s := !s +. probe_src.(i)
    done
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity !s);
  probe_log := (t0, dt) :: !probe_log;
  paused := !paused +. dt

let vnow () = now () -. !paused

(* Scale factor for a duration measured at time [t]: from the probes
   within 0.5 s of [t], widened to at least the nearest nine. *)
let speed =
  let table = ref [||] in
  fun t ->
    if Array.length !table <> List.length !probe_log then
      table := Array.of_list (List.rev !probe_log);
    let tb = !table in
    let n = Array.length tb in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst tb.(mid) < t then lo := mid + 1 else hi := mid
    done;
    let i = ref !lo and j = ref !lo in
    while !i > 0 && t -. fst tb.(!i - 1) <= 0.5 do decr i done;
    while !j < n && fst tb.(!j) -. t <= 0.5 do incr j done;
    while !j - !i < 9 && (!i > 0 || !j < n) do
      if !i > 0 then decr i;
      if !j - !i < 9 && !j < n then incr j
    done;
    host_factor (Array.sub tb !i (!j - !i))

(* The serve workload's clock: workload time scaled by the speed of the
   latest nine probes, so that the open loop offers the same load, and
   job times read the same, on a slow host as on a quiet one. *)
let host_clock = ref 0.
let host_last = ref Float.nan

let snow () =
  let v = vnow () in
  if Float.is_nan !host_last then host_last := v;
  let rec latest k = function
    | p :: rest when k > 0 -> p :: latest (k - 1) rest
    | _ -> []
  in
  let recent = Array.of_list (latest 9 !probe_log) in
  let f = if recent = [||] then 1. else host_factor recent in
  host_clock := !host_clock +. ((v -. !host_last) *. f);
  host_last := v;
  !host_clock

let scaled samples = Array.map (fun (t, dt) -> dt *. speed t) samples

(* --- run-wide accounting ------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let mismatches = ref 0

(* Durations of every call into a layer made through [call], by name. *)
let calls : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let call name f =
  Trace.with_span ~cat:"call" name (fun () ->
      let t0 = now () in
      let r = f () in
      let dt = now () -. t0 in
      (match Hashtbl.find_opt calls name with
      | Some l -> l := dt :: !l
      | None -> Hashtbl.add calls name (ref [ dt ]));
      r)

let call_times name =
  match Hashtbl.find_opt calls name with
  | Some l -> Array.of_list !l
  | None -> [||]

(* Median set-up call times; taken before a traced phase resets the
   call record. *)
let setup_layers () =
  let layers =
    List.filter_map
      (fun (metric, name) ->
        match call_times name with [||] -> None | t -> Some (metric, median t))
      [ ("mesh.build_s", "mesh.build"); ("swe.model_init_s", "swe.model_init") ]
  in
  Hashtbl.reset calls;
  layers

(* Probe, then time [f], until [seconds] have passed and [min_samples]
   calls were made.  [f] returns the duration it measured; the result
   is (start, duration) per call.  A raise ends the loop and counts as
   one failed operation. *)
let sample ~seconds f =
  let acc = ref [] and n = ref 0 and stop = ref false in
  let t_end = now () +. seconds in
  while (not !stop) && (now () < t_end || !n < min_samples) do
    probe ();
    let t = now () in
    match f () with
    | dt ->
        acc := (t, dt) :: !acc;
        incr n
    | exception e ->
        Printf.eprintf "perfbench: operation raised %s\n%!" (Printexc.to_string e);
        incr failed;
        stop := true
  done;
  Array.of_list (List.rev !acc)

(* Set-up runs at least five times, and again while the total is under
   two seconds (at most 25 times), between blocks of probes; setup_s is
   the median scaled time.  The value of the last set-up is the one
   measured. *)
let repeat_setup f =
  let times = ref [] and last = ref None and total = ref 0. in
  for _ = 1 to 9 do probe () done;
  while List.length !times < 5 || (!total < 2. && List.length !times < 25) do
    last := None;
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    for _ = 1 to 9 do probe () done;
    times := (t0 +. (dt /. 2.), dt) :: !times;
    total := !total +. dt;
    last := Some v
  done;
  (Option.get !last, median (scaled (Array.of_list !times)))

(* --- output checks ------------------------------------------------------- *)

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_state (a : Fields.state) (b : Fields.state) =
  same_floats a.h b.h && same_floats a.u b.u

(* The oracle every output is held to: a sequential refactored run of
   [steps] steps from the same state, config and dt. *)
let reference ~dt ~b mesh init ~steps =
  let m = Model.of_state ~engine:Timestep.refactored ~dt ~b mesh init in
  Model.run m ~steps;
  m.Model.state

let mismatch what =
  Printf.eprintf "perfbench: %s differs from the reference\n%!" what;
  incr mismatches

(* --- shared pieces of the workloads ------------------------------------- *)

(* A smooth seeded height bump, |amplitude| <= 1 m and e-folding radius
   ~6 degrees at a random point: small beside TC5's ~5 km depth, so the
   stable time step and the work per step are unchanged. *)
let perturb rng (mesh : Mesh.t) (s : Fields.state) =
  let amp = Random.State.float rng 2. -. 1. in
  let lon0 = Random.State.float rng (2. *. Float.pi) in
  let lat0 = asin (Random.State.float rng 2. -. 1.) in
  Array.iteri
    (fun c lat ->
      let cosd =
        (sin lat *. sin lat0)
        +. (cos lat *. cos lat0 *. cos (mesh.lon_cell.(c) -. lon0))
      in
      let d = acos (Float.min 1. (Float.max (-1.) cosd)) /. 0.1 in
      s.h.(c) <- s.h.(c) +. (amp *. exp (-.(d *. d))))
    mesh.lat_cell

let gc_per_step (g0 : Gc.stat) (g1 : Gc.stat) steps =
  let n = float_of_int (max 1 steps) in
  [
    ("gc.minor_words_per_step", (g1.minor_words -. g0.minor_words) /. n);
    ( "gc.major_collections_per_step",
      float_of_int (g1.major_collections - g0.major_collections) /. n );
  ]

(* Run [f] with the in-memory trace sink installed and write the trace
   to .perfbench/ (open it in chrome://tracing or Perfetto). *)
let traced args f =
  let sink = Trace.memory () in
  Trace.set_sink sink;
  let r =
    Fun.protect
      ~finally:(fun () -> Trace.set_sink Trace.noop)
      (fun () ->
        Trace.with_span ~cat:"workload" args.workload (fun () ->
            Trace.with_span ~cat:"run" "run" f))
  in
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  Trace.export sink
    (Printf.sprintf ".perfbench/%s.seed%d.trace.json" args.workload args.seed);
  (r, float_of_int (List.length (Trace.events sink)))

let trace_layers ~plain ~traced ~events =
  [
    ("trace.overhead_pct", 100. *. ((traced /. plain) -. 1.));
    ("trace.events", events);
    ("host.probe_ms", 1e3 *. median (Array.of_list (List.map snd !probe_log)));
  ]

let heap_bytes v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

(* Working set of a step, computed from the heap, not measured: the
   per-member state and workspace arrays times members, plus the CSR
   connectivity the kernels walk.  Mesh geometry is left out. *)
let working_set ?(members = 1) states (mesh : Mesh.t) =
  (members * heap_bytes states) + heap_bytes (Mesh.csr mesh)

let mesh_detail (mesh : Mesh.t) ~working_set_bytes =
  [
    ("mesh_cells", Jsonv.Num (float_of_int mesh.n_cells));
    ("mesh_edges", Jsonv.Num (float_of_int mesh.n_edges));
    ("working_set_bytes_computed", Jsonv.Num (float_of_int working_set_bytes));
  ]

type outcome = {
  e2e : (string * float) list;
  layers : (string * float) list;
  detail : (string * Jsonv.t) list;
}

(* The part every step workload shares: two warm-up calls, the
   measured run, and in a traced run a second measured run under the
   trace sink, wrapped by [around] (which may switch engines or read
   counters).  [members] gives the states each sampled call advanced;
   [layers] gets the traced samples (start, raw duration). *)
let run_steps args ~setup_s ~members step ~around ~layers =
  ignore (step ());
  ignore (step ());
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let plain = sample ~seconds:args.seconds step in
  let g1 = Gc.quick_stat () in
  let secs = scaled plain in
  let ms = Array.map (fun s -> 1e3 *. s) secs in
  let n = members plain in
  let per_member = Array.map2 (fun s k -> s /. float_of_int k) ms n in
  let jobs = windows secs in
  let e2e =
    [
      ("setup_s", setup_s);
      ("step_ms", median ms);
      ("step_ms_p90", quantile ms 0.9);
      ("member_step_ms", median per_member);
      ("member_step_ms_p90", quantile per_member 0.9);
      ("job_latency_p50_s", median jobs);
      ("job_latency_p90_s", quantile jobs 0.9);
      ( "jobs_per_s",
        float_of_int (Array.fold_left ( + ) 0 n) /. float_of_int job_steps /. sum secs );
    ]
  in
  if not args.trace then (e2e, [])
  else begin
    let setup = setup_layers () in
    let traced_steps, events =
      around (fun () -> traced args (fun () -> sample ~seconds:args.seconds step))
    in
    ( e2e,
      setup @ gc_per_step g0 g1 (Array.length plain)
      @ trace_layers ~plain:(median secs) ~traced:(median (scaled traced_steps)) ~events
      @ layers traced_steps )
  end

let timed_step ?(ops = 1) name f =
  attempted := !attempted + ops;
  Trace.with_span ~cat:"step" "step" (fun () ->
      let t0 = now () in
      call name f;
      now () -. t0)

let one_member plain = Array.make (Array.length plain) 1

(* --- solo-l6: one TC5 model, the engine Model.init picks ---------------- *)

let solo args =
  let (m, init), setup_s =
    repeat_setup (fun () ->
        let mesh = call "mesh.build" (fun () -> Build.icosahedral ~level:6 ()) in
        let m = call "swe.model_init" (fun () -> Model.init Williamson.Tc5 mesh) in
        perturb (Random.State.make [| args.seed; 1 |]) mesh m.Model.state;
        (* diagnostics must follow the perturbed state *)
        Model.set_engine m m.Model.engine;
        (m, Fields.copy_state m.Model.state))
  in
  let mesh = m.Model.mesh in
  let stats = Mpas_patterns.Cost.stats_of_mesh mesh in
  let registry = Metrics.create () in
  (* The traced run wraps the same engine in the public Obs layer. *)
  let around f =
    let engine = m.Model.engine in
    Model.set_engine m (Timestep.observed ~registry engine);
    Fun.protect ~finally:(fun () -> Model.set_engine m engine) f
  in
  let layers traced_steps =
    let report =
      Report.make ~stats ~steps:(Array.length traced_steps)
        (List.map
           (fun k ->
             (k, Metrics.Timer.total (Metrics.timer ~registry ("swe.kernel." ^ k))))
           kernel_names)
    in
    let kernels =
      List.concat_map
        (fun (r : Report.row) ->
          let kernel =
            List.find
              (fun k -> Mpas_patterns.Pattern.kernel_name k = r.kernel)
              Mpas_patterns.Pattern.all_kernels
          in
          let bytes =
            (Mpas_patterns.Cost.kernel_work stats kernel).bytes
            *. float_of_int r.calls_per_step
          in
          let k = "swe.kernel." ^ r.kernel in
          [
            (k ^ "_ms", 1e3 *. r.measured_s);
            (k ^ ".gbps_computed", bytes /. r.measured_s /. 1e9);
            (k ^ ".roofline_ratio", r.ratio);
          ])
        report.rows
    in
    let kernel_sum = 1e3 *. Report.measured_total report in
    let step_ms = 1e3 *. mean (Array.map snd traced_steps) in
    kernels
    @ [
        ("swe.step_ms", step_ms);
        ("swe.kernel_sum_ms", kernel_sum);
        ("swe.step_residual_ms", step_ms -. kernel_sum);
      ]
  in
  let e2e, layers =
    run_steps args ~setup_s ~members:one_member ~around ~layers (fun () ->
        timed_step "Model.run" (fun () -> Model.run m ~steps:1))
  in
  let steps = m.Model.steps_taken in
  if not (same_state m.Model.state (reference ~dt:m.Model.dt ~b:m.Model.b mesh init ~steps))
  then begin
    mismatch "solo-l6 final state";
    failed := !attempted
  end;
  {
    e2e;
    layers;
    detail =
      ("steps", Jsonv.Num (float_of_int steps))
      :: mesh_detail mesh
           ~working_set_bytes:(working_set (m.Model.state, m.Model.work) mesh);
  }

(* --- ensemble-l4-m8: eight perturbed TC5 members in one Ensemble -------- *)

let ensemble_members = 8

let counter_total registry name =
  List.fold_left
    (fun acc (_, e) -> match e with Metrics.Counter_value v -> acc + v | _ -> acc)
    0
    (Metrics.group_labeled (Metrics.snapshot registry) name)

let ensemble args =
  let (e, registry, base, members), setup_s =
    repeat_setup (fun () ->
        let mesh = call "mesh.build" (fun () -> Build.icosahedral ~level:4 ()) in
        let base = call "swe.model_init" (fun () -> Model.init Williamson.Tc5 mesh) in
        let registry = Metrics.create () in
        let e = Ensemble.create ~registry ~capacity:ensemble_members mesh in
        let rng = Random.State.make [| args.seed; 2 |] in
        let members =
          List.init ensemble_members (fun _ ->
              let s = Fields.copy_state base.Model.state in
              perturb rng mesh s;
              let id =
                call "ensemble.submit" (fun () ->
                    Ensemble.submit e ~dt:base.Model.dt ~b:base.Model.b s)
              in
              (id, s))
        in
        (e, registry, base, members))
  in
  let submit_ms = 1e3 *. median (call_times "ensemble.submit") in
  (* Running members at each step, newest first: one entry per call. *)
  let running = ref [] in
  let step () =
    let r =
      List.length
        (List.filter
           (fun (i : Ensemble.info) -> i.i_status = Ensemble.Running)
           (Ensemble.members e))
    in
    if r = 0 then failwith "every member has failed";
    running := r :: !running;
    timed_step ~ops:r "Ensemble.step" (fun () -> Ensemble.step e ())
  in
  (* The sampled calls are the newest entries of [running]. *)
  let stepped_members plain =
    let k = Array.length plain in
    Array.of_list (List.rev (List.filteri (fun i _ -> i < k) !running))
  in
  let batch_timer () =
    let t = Metrics.timer ~registry "ensemble.batch_step" in
    (Metrics.Timer.count t, Metrics.Timer.total t)
  in
  let before = ref (0, 0, (0, 0.)) in
  let around f =
    before :=
      ( counter_total registry "ensemble.members_stepped",
        counter_total registry "ensemble.member_failures",
        batch_timer () );
    f ()
  in
  let layers traced_steps =
    let stepped0, failures0, (c0, t0) = !before in
    let stepped = counter_total registry "ensemble.members_stepped" - stepped0
    and failures = counter_total registry "ensemble.member_failures" - failures0
    and c1, t1 = batch_timer () in
    let tried = Array.fold_left ( + ) 0 (stepped_members traced_steps) in
    [
      ("ensemble.submit_ms", submit_ms);
      ("ensemble.batch_step_ms", 1e3 *. mean (call_times "Ensemble.step"));
      ( "ensemble.batch_step_timer_ms",
        1e3 *. (t1 -. t0) /. float_of_int (max 1 (c1 - c0)) );
      ("ensemble.members_stepped", float_of_int stepped);
      ("ensemble.member_failures", float_of_int failures);
      ( "ensemble.useful_ratio",
        float_of_int (stepped - failures) /. float_of_int (max 1 tried) );
    ]
  in
  let e2e, layers =
    run_steps args ~setup_s ~members:stepped_members ~around ~layers step
  in
  let mesh = Ensemble.mesh e in
  List.iter
    (fun (id, init) ->
      let info = Ensemble.query e id in
      if
        not
          (info.i_status = Ensemble.Running
          && same_state (Ensemble.state e id)
               (reference ~dt:base.Model.dt ~b:base.Model.b mesh init
                  ~steps:info.i_steps))
      then begin
        mismatch
          (Printf.sprintf "ensemble member %d (%s)" id
             (Ensemble.status_name info.i_status));
        failed := !failed + max 1 info.i_steps
      end)
    members;
  {
    e2e;
    layers;
    detail =
      mesh_detail mesh
        ~working_set_bytes:
          (working_set ~members:ensemble_members
             (base.Model.state, base.Model.work) mesh);
  }

(* --- serve-l4-mix: the Server under a burst, then an open loop ---------- *)

let serve_capacity = 8
let burst_jobs = 48

(* Offered rate of the open loop, jobs per second on the serve clock
   [snow]: about 40% of the burst throughput this workload measured.  A
   constant, so that latency is always compared at one load.  At 60%,
   queueing magnified what host-speed scaling leaves over, and p90
   latency spread twice as wide between runs. *)
let open_rate = 17.

let tenants = [| ("acme", 2.); ("beta", 1.); ("gamma", 1.) |]
let cases = Williamson.[| Tc2; Tc2_rotated; Tc5; Tc6 |]

(* Config perturbations the ensemble batches side by side: advection
   order, PV average and Laplacian viscosity, eight combinations. *)
let configs =
  Array.init 8 (fun i ->
      {
        Config.default with
        h_adv_order = (if i land 1 = 0 then Config.Fourth else Config.Second);
        pv_average = (if i land 2 = 0 then Config.Symmetric else Config.Edge_only);
        visc2 = (if i land 4 = 0 then 0. else 1e3);
      })

type job = {
  tenant : int;
  high : bool;
  case : int;
  config : int;
  due : float;  (** job times are on the serve clock [snow] *)
  mutable id : int;
  mutable running_at : float;  (** first seen [Running]; nan before *)
  mutable done_at : float;  (** first seen [Completed]; nan before *)
}

let gen_job rng ~due =
  {
    tenant = Random.State.int rng (Array.length tenants);
    high = Random.State.float rng 1. < 0.1;
    case = Random.State.int rng (Array.length cases);
    config = Random.State.int rng (Array.length configs);
    due;
    id = -1;
    running_at = Float.nan;
    done_at = Float.nan;
  }

type server_run = {
  srv : Server.t;
  registry : Metrics.t;
  mutable pending : job list;  (** submitted, not yet terminal *)
  mutable finished : job list;  (** completed *)
  mutable ticks : (float * float * int) list;
      (** start, duration, members stepped; newest first *)
  mutable late : float list;  (** submit time minus due time *)
}

let submit run (j : job) =
  incr attempted;
  run.late <- (snow () -. j.due) :: run.late;
  let tenant, weight = tenants.(j.tenant) in
  match
    call "Server.submit" (fun () ->
        Server.submit run.srv ~tenant ~weight
          ~priority:(if j.high then Server.High else Server.Normal)
          ~config:configs.(j.config) ~steps:job_steps cases.(j.case))
  with
  | Ok id ->
      j.id <- id;
      run.pending <- j :: run.pending
  | Error r ->
      Printf.eprintf "perfbench: job rejected: %s\n%!" (Server.reject_message r);
      incr failed

(* Probe, one tick, then one look at every pending job. *)
let tick run =
  probe ();
  let t0 = now () in
  Trace.with_span ~cat:"step" "tick" (fun () ->
      call "Server.tick" (fun () -> Server.tick run.srv));
  let dt = now () -. t0 in
  let t = snow () and stepped = ref 0 in
  let seen_running j = if Float.is_nan j.running_at then j.running_at <- t in
  run.pending <-
    List.filter
      (fun j ->
        match (Server.query run.srv j.id).jb_status with
        | Server.Queued | Server.Delayed _ -> true
        | Server.Running ->
            incr stepped;
            seen_running j;
            true
        | Server.Completed ->
            incr stepped;
            seen_running j;
            j.done_at <- t;
            run.finished <- j :: run.finished;
            false
        | s ->
            Printf.eprintf "perfbench: job %d ended %s\n%!" j.id
              (Server.status_name s);
            incr failed;
            false)
      run.pending;
  run.ticks <- (t0, dt, !stepped) :: run.ticks

(* Tick until nothing is pending; jobs still pending after a minute
   count as failed. *)
let drain run =
  let t_end = now () +. 60. in
  while run.pending <> [] && now () < t_end do
    tick run
  done;
  failed := !failed + List.length run.pending;
  run.pending <- []

(* Saturated bursts of [burst_jobs] jobs, each drained before the next,
   for [seconds]: completed jobs per second of the serve clock. *)
let burst run rng ~seconds =
  let t_start = snow () and completed = ref 0 and rounds = ref 0 in
  while !rounds = 0 || snow () -. t_start < seconds do
    incr rounds;
    let t = snow () in
    let before = List.length run.finished in
    List.iter (submit run) (List.init burst_jobs (fun _ -> gen_job rng ~due:t));
    drain run;
    completed := !completed + List.length run.finished - before
  done;
  float_of_int !completed /. (snow () -. t_start)

(* Open loop: Poisson arrivals at [open_rate] for [seconds] (at least
   [min_samples] jobs), each timed from its due time to the tick after
   which it first reads [Completed].  The arrival times come from a
   fixed seed, so every run offers the same pattern and the workload
   seed picks only the jobs.  Evenly spaced arrivals made p90 latency
   jump by about one tick from run to run, as small changes in host
   speed moved the system across a phase boundary; random gaps smooth
   that out.  When nothing is pending the loop
   spins on the clock rather than sleeping: on a shared host a sleep
   can overshoot by milliseconds, which would land in the next job's
   latency.  Returns the finished jobs and the queue depth when the
   last one was due. *)
let open_loop run rng ~seconds =
  let n = max min_samples (int_of_float (open_rate *. seconds)) in
  let t0 = snow () in
  let gaps = Random.State.make [| 0xa11 |] and due = ref t0 in
  let arrivals =
    List.init n (fun _ ->
        let j = gen_job rng ~due:!due in
        due := !due -. (log (1. -. Random.State.float gaps 1.) /. open_rate);
        j)
  in
  let before = run.finished and backlog = ref 0. in
  run.finished <- [];
  let rec go = function
    | [] -> ()
    | j :: rest as todo ->
        let t = snow () in
        if j.due <= t then begin
          submit run j;
          if rest = [] then backlog := float_of_int (Server.queue_depth run.srv);
          go rest
        end
        else begin
          if run.pending <> [] then tick run;
          go todo
        end
  in
  go arrivals;
  drain run;
  let finished = Array.of_list run.finished in
  run.finished <- run.finished @ before;
  (finished, !backlog)

let serve_setup () =
  let mesh = call "mesh.build" (fun () -> Build.icosahedral ~level:4 ()) in
  let registry = Metrics.create () in
  let srv =
    Server.create ~registry ~capacity:serve_capacity ~queue_limit:512
      ~tenant_quota:512 mesh
  in
  (mesh, { srv; registry; pending = []; finished = []; ticks = []; late = [] })

(* Both phases on a fresh server; the seed fixes the job streams. *)
let serve_phases args run =
  let rng = Random.State.make [| args.seed; 3 |] in
  let throughput = burst run rng ~seconds:(0.45 *. args.seconds) in
  let burst_ticks =
    List.filter_map
      (fun (t, dt, k) -> if k > 0 then Some ((t, dt), k) else None)
      run.ticks
    |> Array.of_list
  in
  let finished, backlog = open_loop run rng ~seconds:(0.55 *. args.seconds) in
  (throughput, burst_ticks, finished, backlog)

let latencies = Array.map (fun j -> j.done_at -. j.due)

let serve args =
  let (mesh, run), setup_s = repeat_setup serve_setup in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let throughput, burst_ticks, finished, _ = serve_phases args run in
  let g1 = Gc.quick_stat () in
  let latency = latencies finished in
  let refs = Hashtbl.create 32 in
  let check run =
    List.iter
      (fun j ->
        let key = (j.case, j.config) in
        let want =
          match Hashtbl.find_opt refs key with
          | Some s -> s
          | None ->
              let m =
                Model.init ~config:configs.(j.config) ~engine:Timestep.refactored
                  cases.(j.case) mesh
              in
              Model.run m ~steps:job_steps;
              Hashtbl.add refs key m.Model.state;
              m.Model.state
        in
        match Server.result run.srv j.id with
        | Some got when same_state got want -> ()
        | _ ->
            mismatch (Printf.sprintf "job %d" j.id);
            incr failed)
      run.finished
  in
  check run;
  let layers =
    if not args.trace then []
    else begin
      let setup = setup_layers () in
      let _, trun = serve_setup () in
      let (_, _, tfinished, backlog), events =
        traced args (fun () -> serve_phases args trun)
      in
      check trun;
      let counter = counter_total trun.registry in
      let batch =
        match Metrics.find_timer (Metrics.snapshot trun.registry) "ensemble.batch_step" with
        | Some t -> t
        | None -> die "server registry has no ensemble.batch_step timer"
      in
      let ticks = call_times "Server.tick" in
      let tick_ms = 1e3 *. mean ticks in
      let tick_batch_ms = 1e3 *. batch.total_s /. float_of_int (Array.length ticks) in
      let tlat = latencies tfinished in
      let wait = Array.map (fun j -> j.running_at -. j.due) tfinished in
      let compute = Array.map (fun j -> j.done_at -. j.running_at) tfinished in
      let completed = List.length trun.finished in
      let stepped = counter "ensemble.members_stepped" in
      let state = Option.get (Server.result trun.srv (List.hd trun.finished).id) in
      let snapshot = Snapshot.singleton ~step:job_steps 0 state in
      let encoded = Snapshot.encode snapshot in
      let median_of f =
        median
          (Array.init 31 (fun _ ->
               let t0 = now () in
               ignore (Sys.opaque_identity (f ()));
               now () -. t0))
      in
      let batch_step_ms = 1e3 *. batch.total_s /. float_of_int (max 1 batch.t_count) in
      setup
      @ gc_per_step g0 g1 (List.length run.ticks)
      @ trace_layers ~plain:(median latency) ~traced:(median tlat) ~events
      @ [
          ("server.submit_us", 1e6 *. mean (call_times "Server.submit"));
          ("server.tick_ms", tick_ms);
          ("server.tick_batch_ms", tick_batch_ms);
          ("server.tick_overhead_ms", tick_ms -. tick_batch_ms);
          (* the server makes the Ensemble.step call: both read its timer *)
          ("ensemble.batch_step_ms", batch_step_ms);
          ("ensemble.batch_step_timer_ms", batch_step_ms);
          ("ensemble.members_stepped", float_of_int stepped);
          ("ensemble.member_failures", float_of_int (counter "ensemble.member_failures"));
          ( "ensemble.useful_ratio",
            float_of_int (job_steps * completed) /. float_of_int (max 1 stepped) );
          ("server.job_latency_p50_s", median tlat);
          ("server.queue_wait_p50_s", median wait);
          ("server.queue_wait_p90_s", quantile wait 0.9);
          ("server.compute_p50_s", median compute);
          ( "server.latency_residual_p50_s",
            median tlat -. median wait -. median compute );
          ("server.checkpoints_written", float_of_int (counter "server.checkpoints_written"));
          ( "server.checkpoint_bytes_per_job",
            float_of_int (counter "server.checkpoint_bytes") /. float_of_int (max 1 completed) );
          ("swe.snapshot.encode_ms", 1e3 *. median_of (fun () -> Snapshot.encode snapshot));
          ("swe.snapshot.decode_ms", 1e3 *. median_of (fun () -> Snapshot.decode encoded));
          ("loadgen.late_p90_s", quantile (Array.of_list trun.late) 0.9);
          ("loadgen.backlog_end", backlog);
        ]
    end
  in
  let ms = Array.map (fun x -> 1e3 *. x) (scaled (Array.map fst burst_ticks)) in
  let per_member = Array.map2 (fun x (_, k) -> x /. float_of_int k) ms burst_ticks in
  let model = Model.init Williamson.Tc5 mesh in
  {
    e2e =
      [
        ("setup_s", setup_s);
        ("step_ms", median ms);
        ("step_ms_p90", quantile ms 0.9);
        ("member_step_ms", median per_member);
        ("member_step_ms_p90", quantile per_member 0.9);
        ("job_latency_p50_s", median latency);
        ("job_latency_p90_s", quantile latency 0.9);
        ("jobs_per_s", throughput);
      ];
    layers;
    detail =
      ("open_loop_jobs", Jsonv.Num (float_of_int (Array.length latency)))
      :: mesh_detail mesh
           ~working_set_bytes:
             (working_set ~members:serve_capacity
                (model.Model.state, model.Model.work) mesh);
  }

(* --- dist-l5-r2: TC5 over two ranks through Mpas_dist.Driver ------------ *)

let dist args =
  let (d, base, init), setup_s =
    repeat_setup (fun () ->
        let mesh = call "mesh.build" (fun () -> Build.icosahedral ~level:5 ()) in
        let base = call "swe.model_init" (fun () -> Model.init Williamson.Tc5 mesh) in
        let init = Fields.copy_state base.Model.state in
        perturb (Random.State.make [| args.seed; 4 |]) mesh init;
        let d =
          Driver.of_state ~config:base.Model.config ~n_ranks:2 ~dt:base.Model.dt
            ~b:base.Model.b mesh init
        in
        (d, base, init))
  in
  (* Halo traffic lands in the process-wide registry. *)
  let exchanges = Metrics.counter "dist.halo.exchanges"
  and values = Metrics.counter "dist.halo.values_moved" in
  let before = ref (0, 0) in
  let around f =
    before := (Metrics.Counter.value exchanges, Metrics.Counter.value values);
    f ()
  in
  let layers traced_steps =
    let e0, v0 = !before and n = float_of_int (Array.length traced_steps) in
    [
      ("dist.step_ms", 1e3 *. mean (call_times "Driver.step"));
      ( "dist.halo.exchanges_per_step",
        float_of_int (Metrics.Counter.value exchanges - e0) /. n );
      ( "dist.halo.bytes_per_step",
        8. *. float_of_int (Metrics.Counter.value values - v0) /. n );
    ]
  in
  let e2e, layers =
    run_steps args ~setup_s ~members:one_member ~around ~layers (fun () ->
        timed_step "Driver.step" (fun () -> Driver.step d))
  in
  let mesh = base.Model.mesh and steps = d.Driver.steps_taken in
  if
    not
      (same_state (Driver.gather_state d)
         (reference ~dt:base.Model.dt ~b:base.Model.b mesh init ~steps))
  then begin
    mismatch "dist-l5-r2 gathered state";
    failed := !attempted
  end;
  {
    e2e;
    layers;
    detail =
      ("steps", Jsonv.Num (float_of_int steps))
      :: mesh_detail mesh
           ~working_set_bytes:
             (working_set
                Driver.(d.states, d.provis, d.tends, d.accums, d.diags, d.recons)
                mesh);
  }

(* --- host block and output ---------------------------------------------- *)

(* Data or unified cache size at [level] from sysfs, in bytes; 0 when
   unreadable. *)
let cache_bytes level =
  let read i f =
    let path = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/%s" i f in
    try String.trim (In_channel.with_open_text path In_channel.input_all)
    with Sys_error _ -> ""
  in
  let rec find i =
    if i > 4 then 0
    else if read i "level" = string_of_int level && read i "type" <> "Instruction"
    then Option.value ~default:0 (Scanf.sscanf_opt (read i "size") "%dK" (fun k -> k * 1024))
    else find (i + 1)
  in
  find 0

let git_sha () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let sha = try String.trim (input_line ic) with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when sha <> "" -> sha
  | _ -> "unknown"

let host () =
  let num i = Jsonv.Num (float_of_int i) in
  Jsonv.Obj
    [
      ("nproc", num (Domain.recommended_domain_count ()));
      ("domains_used", num 1);
      ("ocaml", Jsonv.Str Sys.ocaml_version);
      ("flambda", Jsonv.Bool Build_info.flambda);
      ("git_sha", Jsonv.Str (git_sha ()));
      ("l2_bytes", num (cache_bytes 2));
      ("l3_bytes", num (cache_bytes 3));
      ("probe_ref_ms", Jsonv.Num (1e3 *. probe_ref));
    ]

let metrics_json catalogue values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then die "metric %s is not in the catalogue" name)
    values;
  Jsonv.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value (List.assoc_opt name values) ~default:0. in
         if not (Float.is_finite v) then die "metric %s is not finite" name;
         (name, Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str unit) ]))
       catalogue)

let workloads =
  [
    ("solo-l6", solo);
    ("ensemble-l4-m8", ensemble);
    ("serve-l4-mix", serve);
    ("dist-l5-r2", dist);
  ]

let () =
  let args = parse_args () in
  let run =
    match List.assoc_opt args.workload workloads with
    | Some f -> f
    | None ->
        die "unknown workload %S (one of: %s)" args.workload
          (String.concat ", " (List.map fst workloads))
  in
  let o = run args in
  let correct = !failed = 0 && !mismatches = 0 in
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("host", host ());
            ("workload", Jsonv.Str args.workload);
            ("seed", Jsonv.Num (float_of_int args.seed));
            ("detail", Jsonv.Obj o.detail);
          ]));
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Jsonv.Bool correct);
            ("attempted", Jsonv.Num (float_of_int !attempted));
            ("failed", Jsonv.Num (float_of_int !failed));
            ( "metrics",
              if args.trace then metrics_json per_layer o.layers
              else metrics_json end_to_end o.e2e );
          ]));
  if not correct then exit 1
