open Mpas_mesh
open Mpas_swe
open Mpas_server
module Metrics = Mpas_obs.Metrics

let ico = lazy (Build.icosahedral ~level:1 ~lloyd_iters:2 ())
let hex = lazy (Planar_hex.create ~f:1e-4 ~nx:8 ~ny:6 ~dc:1000. ())

(* --- snapshot codec: round trip ----------------------------------------- *)

(* Deterministic value stream with awkward floats mixed in: exact
   integers, subnormals, huge magnitudes, negative zero. *)
let stream seed =
  let s = ref (Int64.of_int (if seed = 0 then 0x9E3779B9 else seed)) in
  fun () ->
    s := Int64.logxor !s (Int64.shift_left !s 13);
    s := Int64.logxor !s (Int64.shift_right_logical !s 7);
    s := Int64.logxor !s (Int64.shift_left !s 17);
    let u = Int64.to_int (Int64.logand !s 0xFFFFL) in
    match u land 7 with
    | 0 -> float_of_int (u - 32768)
    | 1 -> 1e-310 *. float_of_int (1 + (u land 63))
    | 2 -> 1e300 +. (1e287 *. float_of_int u)
    | 3 -> -0.
    | _ -> (float_of_int u /. 65536.) -. 0.5

let random_state mesh seed =
  let next = stream seed in
  {
    Fields.h = Array.init mesh.Mesh.n_cells (fun _ -> next ());
    u = Array.init mesh.Mesh.n_edges (fun _ -> next ());
    tracers = [||];
  }

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let snapshot_of mesh ~width ~step ~seed =
  {
    Snapshot.sn_step = step;
    sn_members =
      List.init width (fun i -> (i * 3, random_state mesh (seed + i)));
  }

let snapshot_equal a b =
  a.Snapshot.sn_step = b.Snapshot.sn_step
  && List.length a.Snapshot.sn_members = List.length b.Snapshot.sn_members
  && List.for_all2
       (fun (ta, sa) (tb, sb) ->
         ta = tb
         && bits_equal sa.Fields.h sb.Fields.h
         && bits_equal sa.Fields.u sb.Fields.u)
       a.Snapshot.sn_members b.Snapshot.sn_members

(* Both mesh families, the ensemble widths the serving layer batches
   at, adversarial float payloads: encode/decode must be the identity
   on every bit. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"snapshot round-trips bit-exactly" ~count:24
    QCheck.(
      triple (oneofl [ 1; 7; 64 ]) bool (pair (int_range 0 100_000) small_nat))
    (fun (width, on_hex, (step, seed)) ->
      let mesh = Lazy.force (if on_hex then hex else ico) in
      let t = snapshot_of mesh ~width ~step ~seed in
      snapshot_equal t (Snapshot.decode (Snapshot.encode t)))

(* --- snapshot codec: corruption ------------------------------------------ *)

let corrupt_raises bytes =
  match Snapshot.decode bytes with
  | _ -> false
  | exception Snapshot.Corrupt _ -> true

(* Every proper prefix must be rejected by the frame checks — never a
   crash, never a silent partial load. *)
let prop_truncation =
  QCheck.Test.make ~name:"any truncation is Corrupt" ~count:24
    QCheck.(triple (oneofl [ 1; 7 ]) bool (pair small_nat (float_bound_exclusive 1.)))
    (fun (width, on_hex, (seed, frac)) ->
      let mesh = Lazy.force (if on_hex then hex else ico) in
      let bytes =
        Snapshot.encode (snapshot_of mesh ~width ~step:3 ~seed)
      in
      let cut = int_of_float (frac *. float_of_int (String.length bytes)) in
      corrupt_raises (String.sub bytes 0 cut))

(* Any single flipped bit must fail the checksum (or an earlier frame
   check) — the codec never silently loads a damaged image. *)
let prop_bit_flip =
  QCheck.Test.make ~name:"any single bit flip is Corrupt" ~count:48
    QCheck.(triple (oneofl [ 1; 7 ]) small_nat (pair small_nat (int_range 0 7)))
    (fun (width, seed, (pos_seed, bit)) ->
      let mesh = Lazy.force ico in
      let bytes =
        Snapshot.encode (snapshot_of mesh ~width ~step:9 ~seed)
      in
      let pos = pos_seed * 37 mod String.length bytes in
      let flipped = Bytes.of_string bytes in
      Bytes.set flipped pos
        (Char.chr (Char.code bytes.[pos] lxor (1 lsl bit)));
      corrupt_raises (Bytes.to_string flipped))

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "empty" true (corrupt_raises "");
  Alcotest.(check bool) "short" true (corrupt_raises "MPAS-SNP");
  let valid =
    Snapshot.encode (snapshot_of (Lazy.force ico) ~width:1 ~step:0 ~seed:1)
  in
  Alcotest.(check bool) "trailing junk" true (corrupt_raises (valid ^ "x"));
  Alcotest.(check bool) "valid still decodes" true (not (corrupt_raises valid))

let test_codec_save_load () =
  let t = snapshot_of (Lazy.force hex) ~width:7 ~step:42 ~seed:5 in
  let path = Filename.temp_file "mpas_snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save t path;
      Alcotest.(check bool) "file round-trips" true
        (snapshot_equal t (Snapshot.load path)))

(* --- fault plans ---------------------------------------------------------- *)

let test_fault_plan_deterministic () =
  let a = Fault.plan ~ticks:20 ~events:5 ~seed:11 ()
  and b = Fault.plan ~ticks:20 ~events:5 ~seed:11 ()
  and c = Fault.plan ~ticks:20 ~events:5 ~seed:12 () in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check bool) "different seed, different plan" true (a <> c);
  Alcotest.(check bool) "sorted by tick" true
    (List.sort (fun x y -> compare x.Fault.ev_tick y.Fault.ev_tick) a = a);
  Alcotest.(check int) "requested event count" 5 (List.length a)

(* --- serving layer -------------------------------------------------------- *)

let steps = 4

let solo ?(config = Config.default) case n =
  let m = Model.init ~config ~engine:Timestep.refactored case (Lazy.force ico) in
  Model.run m ~steps:n;
  m.Model.state

let check_result srv id ?(config = Config.default) case n =
  match Server.result srv id with
  | None -> Alcotest.failf "job %d has no result" id
  | Some got ->
      let want = solo ~config case n in
      Alcotest.(check bool)
        (Printf.sprintf "job %d bit-identical to solo" id)
        true
        (bits_equal want.Fields.h got.Fields.h
        && bits_equal want.Fields.u got.Fields.u)

let status srv id = (Server.query srv id).Server.jb_status

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
let ok = function Ok id -> id | Error r -> Alcotest.failf "rejected: %s" (Server.reject_message r)

let test_happy_path () =
  let srv = Server.create ~registry:(Metrics.create ()) ~capacity:2 (Lazy.force ico) in
  let a = ok (Server.submit srv ~steps Williamson.Tc5) in
  let cfg = { Config.default with h_adv_order = Config.Second } in
  let b = ok (Server.submit srv ~config:cfg ~steps Williamson.Tc2) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  Alcotest.(check bool) "a completed" true (status srv a = Server.Completed);
  Alcotest.(check bool) "b completed" true (status srv b = Server.Completed);
  check_result srv a Williamson.Tc5 steps;
  check_result srv b ~config:cfg Williamson.Tc2 steps

let test_admission_control () =
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:1 ~queue_limit:2
      ~tenant_quota:2 (Lazy.force ico)
  in
  let _a = ok (Server.submit srv ~tenant:"acme" ~steps Williamson.Tc5) in
  let _b = ok (Server.submit srv ~tenant:"acme" ~steps Williamson.Tc5) in
  (match Server.submit srv ~tenant:"acme" ~steps Williamson.Tc5 with
  | Error (Server.Tenant_quota ("acme", 2)) -> ()
  | _ -> Alcotest.fail "third acme submit should hit the quota");
  (match Server.submit srv ~tenant:"beta" ~steps Williamson.Tc5 with
  | Error (Server.Queue_full 2) -> ()
  | _ -> Alcotest.fail "same-priority submit should bounce off the full queue");
  (* a higher-priority arrival sheds the newest low-priority job instead *)
  let high =
    ok (Server.submit srv ~tenant:"beta" ~priority:Server.High ~steps Williamson.Tc5)
  in
  Alcotest.(check bool) "victim shed" true
    (match status srv _b with Server.Shed _ -> true | _ -> false);
  Alcotest.(check bool) "malformed steps raise" true
    (match Server.submit srv ~steps:0 Williamson.Tc5 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (match
     Server.submit srv
       ~config:{ Config.default with visc4 = 1e10 }
       ~steps Williamson.Tc5
   with
  | Error (Server.Unsupported _) -> ()
  | _ -> Alcotest.fail "visc4 config should be rejected as unsupported");
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  Alcotest.(check bool) "high-priority job completed" true
    (status srv high = Server.Completed)

(* Malformed requests raise before they cost anything: a non-finite
   [dt] would spend a batch slot only to diverge, and a NaN [weight]
   would poison the tenant's fair-share virtual time. *)
let test_non_finite_rejected () =
  let srv = Server.create ~registry:(Metrics.create ()) ~capacity:1 (Lazy.force ico) in
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  List.iter
    (fun v ->
      expect
        (Printf.sprintf "Server.submit: dt %g, need > 0" v)
        (fun () -> ignore (Server.submit srv ~dt:v ~steps Williamson.Tc5));
      expect
        (Printf.sprintf "Server.submit: weight %g, need > 0" v)
        (fun () ->
          ignore
            (Server.submit srv ~tenant:"acme" ~weight:v ~steps Williamson.Tc5)))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0. ];
  Alcotest.(check int) "nothing queued" 0 (Server.queue_depth srv);
  (* the rejected weights never reached the tenant: a clean job from it
     still drains *)
  let id = ok (Server.submit srv ~tenant:"acme" ~steps Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  check_result srv id Williamson.Tc5 steps

let test_priority_and_wfq () =
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:1 (Lazy.force ico)
  in
  (* heavy tenant floods first; light tenant arrives last *)
  let h1 = ok (Server.submit srv ~tenant:"heavy" ~steps Williamson.Tc5) in
  let h2 = ok (Server.submit srv ~tenant:"heavy" ~steps Williamson.Tc5) in
  let h3 = ok (Server.submit srv ~tenant:"heavy" ~steps Williamson.Tc5) in
  let l1 = ok (Server.submit srv ~tenant:"light" ~steps Williamson.Tc5) in
  let lo = ok (Server.submit srv ~tenant:"zeta" ~priority:Server.Low ~steps Williamson.Tc5) in
  Server.tick srv;
  Alcotest.(check bool) "heavy admitted first (vt tie, name order)" true
    (status srv h1 = Server.Running);
  (* after the first job retires, fair queuing picks the light tenant
     over the heavy tenant's backlog *)
  for _ = 1 to steps do Server.tick srv done;
  Alcotest.(check bool) "h1 completed" true (status srv h1 = Server.Completed);
  Alcotest.(check bool) "light runs before heavy backlog" true
    (status srv l1 = Server.Running);
  Alcotest.(check bool) "heavy backlog still queued" true
    (status srv h2 = Server.Queued && status srv h3 = Server.Queued);
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d completed" id)
        true
        (status srv id = Server.Completed))
    [ h1; h2; h3; l1; lo ]

let test_kernel_raise_recovery () =
  let registry = Metrics.create () in
  let fault = [ { Fault.ev_tick = 2; ev_kind = Fault.Kernel_raise; ev_arg = 1 } ] in
  let srv =
    Server.create ~registry ~capacity:2 ~checkpoint_every:2 ~fault
      (Lazy.force ico)
  in
  let n = 6 in
  let id = ok (Server.submit srv ~steps:n Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  let info = Server.query srv id in
  Alcotest.(check bool) "completed" true (info.Server.jb_status = Server.Completed);
  Alcotest.(check int) "one retry" 1 info.Server.jb_retries;
  check_result srv id Williamson.Tc5 n;
  let snap = Metrics.snapshot registry in
  Alcotest.(check (option int)) "one recovery" (Some 1)
    (Metrics.find_counter snap "server.recoveries");
  Alcotest.(check (option int)) "one restore" (Some 1)
    (Metrics.find_counter snap "server.restores")

(* With several members running, a kernel raise lands mid-sweep: the
   first member has stepped when it fires, and every job still
   completes bit-identically after the restore. *)
let test_kernel_raise_mid_sweep () =
  let registry = Metrics.create () in
  let fault = [ { Fault.ev_tick = 2; ev_kind = Fault.Kernel_raise; ev_arg = 0 } ] in
  let srv =
    Server.create ~registry ~capacity:3 ~checkpoint_every:2 ~fault
      (Lazy.force ico)
  in
  let ids = List.init 3 (fun _ -> ok (Server.submit srv ~steps Williamson.Tc5)) in
  let stepped () =
    List.fold_left
      (fun acc (_, e) -> match e with Metrics.Counter_value v -> acc + v | _ -> acc)
      0
      (Metrics.group_labeled (Metrics.snapshot registry) "ensemble.members_stepped")
  in
  Server.tick srv;
  Server.tick srv;
  Alcotest.(check int) "one member stepped before the raise" 4 (stepped ());
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  List.iter
    (fun id ->
      Alcotest.(check int) "one retry" 1 (Server.query srv id).Server.jb_retries;
      check_result srv id Williamson.Tc5 steps)
    ids

let test_lane_death_recovery () =
  let fault = [ { Fault.ev_tick = 3; ev_kind = Fault.Lane_death; ev_arg = 0 } ] in
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:2 ~checkpoint_every:2
      ~fault (Lazy.force ico)
  in
  let n = 6 in
  let id = ok (Server.submit srv ~steps:n Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  Alcotest.(check bool) "completed after lane death" true
    (status srv id = Server.Completed);
  check_result srv id Williamson.Tc5 n

let test_truncated_checkpoint_fallback () =
  let registry = Metrics.create () in
  (* the step-2 checkpoint is written truncated; the raise at tick 4
     must fall back to the pristine step-0 image and still land
     bit-identically *)
  let fault =
    [
      { Fault.ev_tick = 2; ev_kind = Fault.Snapshot_truncate; ev_arg = 0 };
      { Fault.ev_tick = 4; ev_kind = Fault.Kernel_raise; ev_arg = 2 };
    ]
  in
  let srv =
    Server.create ~registry ~capacity:1 ~checkpoint_every:2 ~fault
      (Lazy.force ico)
  in
  let n = 6 in
  let id = ok (Server.submit srv ~steps:n Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  Alcotest.(check bool) "completed via older checkpoint" true
    (status srv id = Server.Completed);
  check_result srv id Williamson.Tc5 n;
  let snap = Metrics.snapshot registry in
  Alcotest.(check bool) "corrupt snapshot was skipped, not loaded" true
    (match Metrics.find_counter snap "server.snapshots_corrupt_skipped" with
    | Some k -> k >= 1
    | None -> false)

let test_no_valid_checkpoint_fails_reported () =
  (* every checkpoint the job ever writes (only the admission-time one,
     given the long period) is truncated; recovery must report failure,
     never silently rerun or load a damaged image *)
  let fault =
    [
      { Fault.ev_tick = 1; ev_kind = Fault.Snapshot_truncate; ev_arg = 0 };
      { Fault.ev_tick = 2; ev_kind = Fault.Kernel_raise; ev_arg = 0 };
    ]
  in
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:1
      ~checkpoint_every:1000 ~fault (Lazy.force ico)
  in
  let id = ok (Server.submit srv ~steps:6 Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  match status srv id with
  | Server.Failed reason ->
      Alcotest.(check bool) "reason names the missing checkpoint" true
        (contains reason "no valid checkpoint")
  | s -> Alcotest.failf "expected failed, got %s" (Server.status_name s)

let test_retries_exhausted () =
  let fault =
    List.init 8 (fun i ->
        { Fault.ev_tick = i + 2; ev_kind = Fault.Kernel_raise; ev_arg = 0 })
  in
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:1 ~checkpoint_every:2
      ~max_retries:2 ~fault (Lazy.force ico)
  in
  let id = ok (Server.submit srv ~steps:20 Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  match status srv id with
  | Server.Failed reason ->
      Alcotest.(check bool) "reason names the retry cap" true
        (contains reason "retries exhausted")
  | s -> Alcotest.failf "expected failed, got %s" (Server.status_name s)

let test_deadline_shed_and_demote () =
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:1 (Lazy.force ico)
  in
  let blocker = ok (Server.submit srv ~steps:6 Williamson.Tc5) in
  let doomed = ok (Server.submit srv ~deadline:2 ~steps:6 Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  Alcotest.(check bool) "blocker completed" true
    (status srv blocker = Server.Completed);
  Alcotest.(check bool) "queued job past deadline shed" true
    (match status srv doomed with Server.Shed _ -> true | _ -> false);
  (* same setup with finish_over_deadline: demoted to the cheap lane,
     but finishes *)
  let registry = Metrics.create () in
  let srv =
    Server.create ~registry ~capacity:1 ~finish_over_deadline:true
      (Lazy.force ico)
  in
  let _blocker = ok (Server.submit srv ~steps:6 Williamson.Tc5) in
  let late = ok (Server.submit srv ~deadline:2 ~steps:4 Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  Alcotest.(check bool) "late job still completed" true
    (status srv late = Server.Completed);
  Alcotest.(check bool) "demoted to the cheap lane" true
    ((Server.query srv late).Server.jb_priority = Server.Low);
  Alcotest.(check (option int)) "demotion counted" (Some 1)
    (Metrics.find_counter (Metrics.snapshot registry)
       "server.deadline_demotions");
  check_result srv late Williamson.Tc5 4

let test_cancel () =
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:1 (Lazy.force ico)
  in
  let a = ok (Server.submit srv ~steps:6 Williamson.Tc5) in
  let b = ok (Server.submit srv ~steps:6 Williamson.Tc5) in
  Server.tick srv;
  Server.cancel srv b;
  Alcotest.(check bool) "queued job cancelled" true
    (status srv b = Server.Cancelled);
  Server.cancel srv a;
  Alcotest.(check bool) "running job cancelled" true
    (status srv a = Server.Cancelled);
  Alcotest.(check int) "slot freed" 0 (Server.running srv);
  Alcotest.(check bool) "unknown id raises" true
    (match Server.query srv 999 with
    | _ -> false
    | exception Not_found -> true)

(* Divergence is deterministic, not transient: an absurd dt blows the
   run up the same way every time, so the server must fail the job
   immediately with the engine's reason instead of burning retries on
   checkpoint restarts. *)
let test_divergence_fails_without_retry () =
  let srv =
    Server.create ~registry:(Metrics.create ()) ~capacity:1 (Lazy.force ico)
  in
  let id = ok (Server.submit srv ~dt:1e9 ~steps:6 Williamson.Tc5) in
  Alcotest.(check bool) "drained" true (Server.drain srv ());
  let info = Server.query srv id in
  (match info.Server.jb_status with
  | Server.Failed reason ->
      Alcotest.(check bool) "engine reason forwarded" true
        (contains reason "diverged")
  | s -> Alcotest.failf "expected failed, got %s" (Server.status_name s));
  Alcotest.(check int) "no retries burned" 0 info.Server.jb_retries

let () =
  Alcotest.run "server"
    [
      ( "snapshot-codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_truncation;
          QCheck_alcotest.to_alcotest prop_bit_flip;
          Alcotest.test_case "garbage rejected" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "save/load" `Quick test_codec_save_load;
        ] );
      ( "fault-plans",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_fault_plan_deterministic;
        ] );
      ( "serving",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "non-finite dt and weight rejected" `Quick
            test_non_finite_rejected;
          Alcotest.test_case "priority + weighted fairness" `Quick
            test_priority_and_wfq;
          Alcotest.test_case "kernel-raise recovery" `Quick
            test_kernel_raise_recovery;
          Alcotest.test_case "kernel raise lands mid-sweep" `Quick
            test_kernel_raise_mid_sweep;
          Alcotest.test_case "lane-death recovery" `Quick
            test_lane_death_recovery;
          Alcotest.test_case "truncated checkpoint fallback" `Quick
            test_truncated_checkpoint_fallback;
          Alcotest.test_case "all checkpoints corrupt -> reported failure"
            `Quick test_no_valid_checkpoint_fails_reported;
          Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
          Alcotest.test_case "deadline shed and demote" `Quick
            test_deadline_shed_and_demote;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "divergence fails without retry" `Quick
            test_divergence_fails_without_retry;
        ] );
    ]
