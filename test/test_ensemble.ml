open Mpas_numerics
open Mpas_mesh
open Mpas_swe
open Mpas_par
open Mpas_ensemble
open Ensemble

let ico = lazy (Build.icosahedral ~level:2 ~lloyd_iters:2 ())
let hex = lazy (Planar_hex.create ~f:1e-4 ~nx:8 ~ny:6 ~dc:1000. ())

(* A geostrophically balanced f-plane state (the hex family has no
   Williamson case). *)
let hex_state (m : Mesh.t) =
  let f = 1e-4 and g = Config.default.Config.gravity in
  let flow = Vec3.make 5. 2. 0. in
  let slope = Vec3.scale (-.(f /. g)) (Vec3.cross Vec3.ez flow) in
  let h =
    Array.init m.Mesh.n_cells (fun c ->
        1000. +. Vec3.dot slope m.Mesh.x_cell.(c))
  in
  let u =
    Array.init m.Mesh.n_edges (fun e -> Vec3.dot flow m.Mesh.edge_normal.(e))
  in
  { Fields.h; u; tracers = [||] }

let hex_dt = 5.

(* Bitwise equality: both trajectories must follow the identical IEEE
   operation sequence, so plain structural equality is the check. *)
let check_bits name (a : float array) (b : float array) =
  Alcotest.(check bool) name true (a = b)

let solo_steps ?(config = Config.default) ~dt ~b mesh state n =
  let model =
    Model.of_state ~config ~engine:Timestep.refactored ~dt ~b mesh state
  in
  Model.run model ~steps:n;
  model.Model.state

(* The perturbed-config mix used by the batched-vs-solo comparisons. *)
let varied_configs =
  [
    Config.default;
    { Config.default with h_adv_order = Config.Second };
    { Config.default with pv_average = Config.Edge_only };
    {
      Config.default with
      visc2 = 1e3;
      bottom_drag = 1e-6;
      apvm_factor = 0.25;
    };
  ]

(* --- bit identity ------------------------------------------------------- *)

let test_bit_identity_ico () =
  let m = Lazy.force ico in
  let e = create ~capacity:8 m in
  let cases =
    [
      (Williamson.Tc5, List.nth varied_configs 0);
      (Williamson.Tc2, List.nth varied_configs 1);
      (Williamson.Tc6, List.nth varied_configs 2);
      (Williamson.Tc5, List.nth varied_configs 3);
      (Williamson.Tc2_rotated, Config.default);
    ]
  in
  let ids =
    List.map (fun (case, config) -> submit_case e ~config case) cases
  in
  step e ~n:10 ();
  List.iter2
    (fun id (case, config) ->
      let got = state e id in
      let solo =
        Model.init ~config ~engine:Timestep.refactored case m
      in
      Model.run solo ~steps:10;
      let name = Williamson.case_name case in
      check_bits (name ^ " h") solo.Model.state.Fields.h got.Fields.h;
      check_bits (name ^ " u") solo.Model.state.Fields.u got.Fields.u;
      Alcotest.(check int) (name ^ " steps") 10 (query e id).i_steps)
    ids cases

let test_bit_identity_hex () =
  let m = Lazy.force hex in
  let e = create ~capacity:4 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let ids =
    List.map
      (fun config -> submit e ~config ~dt:hex_dt ~b st)
      varied_configs
  in
  step e ~n:10 ();
  List.iter2
    (fun id config ->
      let got = state e id in
      let want = solo_steps ~config ~dt:hex_dt ~b m st 10 in
      check_bits "hex h" want.Fields.h got.Fields.h;
      check_bits "hex u" want.Fields.u got.Fields.u)
    ids varied_configs

(* Every pool size must produce the same bits: members share no
   writable array, so how they are spread over domains cannot matter.
   A pooled sweep calls the hook once, at entry. *)
let test_pool_sizes_bit_identical () =
  let m = Lazy.force hex in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let want = solo_steps ~dt:hex_dt ~b m st 5 in
  let run pool =
    let calls = ref 0 in
    let e = create ~capacity:8 ?pool ~interrupt:(fun () -> incr calls) m in
    let id = submit e ~dt:hex_dt ~b st in
    (* Fill other slots so several members are in flight. *)
    List.iter
      (fun config -> ignore (submit e ~config ~dt:hex_dt ~b st))
      varied_configs;
    step e ~n:5 ();
    (state e id, !calls)
  in
  List.iter
    (fun (name, pool_size) ->
      let got, calls =
        if pool_size = 0 then run None
        else Pool.with_pool ~n_domains:pool_size (fun p -> run (Some p))
      in
      check_bits (name ^ " h") want.Fields.h got.Fields.h;
      check_bits (name ^ " u") want.Fields.u got.Fields.u;
      Alcotest.(check int)
        (name ^ " hook calls")
        (if pool_size = 0 then 5 * 5 else 5)
        calls)
    [ ("no pool", 0); ("pool 1", 1); ("pool 2", 2); ("pool 4", 4) ]

exception Stop

(* The hook contract: a raise before member k abandons the sweep with
   members 0..k-1 stepped once and the rest untouched; restoring every
   member with [set_state] puts the batch back on its solo
   trajectories. *)
let test_interrupt_contract () =
  let m = Lazy.force hex in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let armed = ref None in
  let interrupt () =
    match !armed with
    | Some 0 ->
        armed := None;
        raise Stop
    | Some n -> armed := Some (n - 1)
    | None -> ()
  in
  let e = create ~capacity:4 ~interrupt m in
  let ids =
    List.map (fun config -> submit e ~config ~dt:hex_dt ~b st) varied_configs
  in
  step e ~n:2 ();
  let before = List.map (state e) ids in
  let k = 2 in
  armed := Some k;
  Alcotest.check_raises "the raise propagates" Stop (fun () -> step e ());
  List.iteri
    (fun i ((id, config), prev) ->
      let name = Printf.sprintf "member %d" i in
      let got = state e id in
      let want, steps =
        if i < k then (solo_steps ~config ~dt:hex_dt ~b m st 3, 3)
        else (prev, 2)
      in
      check_bits (name ^ " h") want.Fields.h got.Fields.h;
      check_bits (name ^ " u") want.Fields.u got.Fields.u;
      Alcotest.(check int) (name ^ " steps") steps (query e id).i_steps)
    (List.combine (List.combine ids varied_configs) before);
  List.iter2 (set_state e) ids before;
  step e ~n:3 ();
  List.iter2
    (fun id config ->
      let want = solo_steps ~config ~dt:hex_dt ~b m st 5 in
      let got = state e id in
      check_bits "restored h" want.Fields.h got.Fields.h;
      check_bits "restored u" want.Fields.u got.Fields.u)
    ids varied_configs

(* --- failure isolation -------------------------------------------------- *)

let test_quarantine () =
  let m = Lazy.force hex in
  let e = create ~capacity:4 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let victim = submit e ~dt:hex_dt ~b st in
  let bystander =
    submit e ~config:(List.nth varied_configs 3) ~dt:hex_dt ~b st
  in
  (* Poison the victim: NaN thickness in one cell. *)
  let poisoned = Fields.copy_state st in
  poisoned.Fields.h.(0) <- Float.nan;
  set_state e victim poisoned;
  step e ~n:3 ();
  (match (query e victim).i_status with
  | Failed reason ->
      Alcotest.(check bool)
        "reason names the field" true
        (String.length reason > 0)
  | s -> Alcotest.failf "victim should be failed, is %s" (status_name s));
  (* The batch keeps going: the bystander is running, stepped, and
     bit-identical to its solo reference. *)
  Alcotest.(check string)
    "bystander running" "running"
    (status_name (query e bystander).i_status);
  Alcotest.(check int) "bystander steps" 3 (query e bystander).i_steps;
  let want =
    solo_steps ~config:(List.nth varied_configs 3) ~dt:hex_dt ~b m st 3
  in
  let got = state e bystander in
  check_bits "bystander h" want.Fields.h got.Fields.h;
  check_bits "bystander u" want.Fields.u got.Fields.u;
  (* The victim stops consuming steps after quarantine. *)
  Alcotest.(check int) "victim stopped at failure" 1 (query e victim).i_steps

let test_member_isolation_qcheck () =
  let m = Lazy.force hex in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let configs = Array.of_list varied_configs in
  let prop (i, j, seed) =
    let i = i mod 3 and j = j mod 3 in
    QCheck.assume (i <> j);
    let e = create ~capacity:4 m in
    let ids =
      Array.init 3 (fun k -> submit e ~config:configs.(k) ~dt:hex_dt ~b st)
    in
    (* Arbitrary garbage into member i — including values that blow up. *)
    let rng = Random.State.make [| seed |] in
    let garbage =
      {
        Fields.h =
          Array.init m.Mesh.n_cells (fun _ ->
              Random.State.float rng 4000. -. 1000.);
        u = Array.init m.Mesh.n_edges (fun _ -> Random.State.float rng 200.);
        tracers = [||];
      }
    in
    set_state e ids.(i) garbage;
    step e ~n:2 ();
    (* Member j's trajectory must be exactly the solo one, no matter
       what member i did. *)
    let want = solo_steps ~config:configs.(j) ~dt:hex_dt ~b m st 2 in
    let got = state e ids.(j) in
    want.Fields.h = got.Fields.h && want.Fields.u = got.Fields.u
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"member isolation" ~count:15
       QCheck.(triple small_nat small_nat small_nat)
       prop)

(* --- serving API -------------------------------------------------------- *)

let test_target_done () =
  let m = Lazy.force hex in
  let e = create ~capacity:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let id = submit e ~target:3 ~dt:hex_dt ~b (hex_state m) in
  step e ~n:5 ();
  Alcotest.(check string) "done" "done" (status_name (query e id).i_status);
  Alcotest.(check int) "stopped at target" 3 (query e id).i_steps

let test_evict_and_reuse () =
  let m = Lazy.force hex in
  let e = create ~capacity:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let a = submit e ~dt:hex_dt ~b st in
  let b_id = submit e ~dt:hex_dt ~b st in
  Alcotest.check_raises "full"
    (Invalid_argument
       "Ensemble.submit: batch full (got 2 members, expected < 2)")
    (fun () -> ignore (submit e ~dt:hex_dt ~b st));
  evict e a;
  let c = submit e ~dt:hex_dt ~b st in
  Alcotest.(check bool) "fresh id" true (c <> a && c <> b_id);
  Alcotest.(check int) "two live members" 2 (List.length (members e));
  Alcotest.check_raises "evicted id is gone" Not_found (fun () ->
      ignore (query e a))

let test_submit_validation () =
  let m = Lazy.force hex in
  let e = create ~capacity:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let nc = m.Mesh.n_cells and ne = m.Mesh.n_edges in
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect
    (Printf.sprintf "Ensemble.submit: state.h cells (got 5, expected %d)" nc)
    (fun () ->
      ignore
        (submit e ~dt:hex_dt ~b
           { st with Fields.h = Array.make 5 1000. }));
  expect
    (Printf.sprintf "Ensemble.submit: state.u edges (got 7, expected %d)" ne)
    (fun () ->
      ignore (submit e ~dt:hex_dt ~b { st with Fields.u = Array.make 7 0. }));
  expect
    (Printf.sprintf "Ensemble.submit: b cells (got 1, expected %d)" nc)
    (fun () -> ignore (submit e ~dt:hex_dt ~b:[| 0. |] st));
  expect
    (Printf.sprintf "Ensemble.submit: f_vertex vertices (got 2, expected %d)"
       m.Mesh.n_vertices)
    (fun () -> ignore (submit e ~f_vertex:[| 0.; 0. |] ~dt:hex_dt ~b st));
  expect "Ensemble.submit: tracer rows (got 1, expected 0)" (fun () ->
      ignore
        (submit e ~dt:hex_dt ~b
           { st with Fields.tracers = [| Array.make nc 1. |] }));
  expect "Ensemble.submit: integrator unsupported (got ssprk3, expected rk4)"
    (fun () ->
      ignore
        (submit e
           ~config:{ Config.default with integrator = Config.Ssprk3 }
           ~dt:hex_dt ~b st));
  expect
    "Ensemble.submit: del-4 dissipation unsupported (got visc4 = 1e+10, \
     expected 0)" (fun () ->
      ignore
        (submit e
           ~config:{ Config.default with visc4 = 1e10 }
           ~dt:hex_dt ~b st));
  List.iter
    (fun dt ->
      expect
        (Printf.sprintf "Ensemble.submit: dt = %g, need > 0" dt)
        (fun () -> ignore (submit e ~dt ~b st)))
    [ 0.; Float.nan; Float.infinity ];
  let sphere = create ~capacity:1 (Lazy.force ico) in
  expect "Ensemble.submit: dt = nan, need > 0" (fun () ->
      ignore (submit_case sphere ~dt:Float.nan Williamson.Tc5))

(* --- observability ------------------------------------------------------ *)

let test_tenant_metrics_and_merge () =
  let open Mpas_obs in
  let registry = Metrics.create () in
  let m = Lazy.force hex in
  let e = create ~registry ~capacity:4 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  ignore (submit e ~tenant:"acme" ~dt:hex_dt ~b st);
  ignore (submit e ~tenant:"acme" ~dt:hex_dt ~b st);
  ignore (submit e ~tenant:"globex" ~dt:hex_dt ~b st);
  step e ~n:3 ();
  let snap = Metrics.snapshot registry in
  Alcotest.(check (option int))
    "acme members stepped" (Some 6)
    (Metrics.find_counter snap "ensemble.members_stepped{tenant=acme}");
  Alcotest.(check (option int))
    "globex members stepped" (Some 3)
    (Metrics.find_counter snap "ensemble.members_stepped{tenant=globex}");
  Alcotest.(check (option int))
    "batch steps" (Some 3)
    (Metrics.find_counter snap "ensemble.batch_steps");
  (match Metrics.find_timer snap "ensemble.step{tenant=globex}" with
  | Some ts -> Alcotest.(check int) "globex step timer count" 3 ts.t_count
  | None -> Alcotest.fail "missing per-tenant step timer");
  (* Merging snapshots from two engine processes: same tenant adds,
     distinct tenants stay distinct. *)
  let other = Metrics.create () in
  Metrics.Counter.add
    (Metrics.counter ~registry:other ~labels:[ ("tenant", "acme") ]
       "ensemble.members_stepped")
    10;
  Metrics.Counter.add
    (Metrics.counter ~registry:other ~labels:[ ("tenant", "initech") ]
       "ensemble.members_stepped")
    7;
  let merged = Metrics.merge snap (Metrics.snapshot other) in
  Alcotest.(check (option int))
    "merge adds same tenant" (Some 16)
    (Metrics.find_counter merged "ensemble.members_stepped{tenant=acme}");
  Alcotest.(check (option int))
    "merge keeps distinct tenant" (Some 7)
    (Metrics.find_counter merged "ensemble.members_stepped{tenant=initech}");
  Alcotest.(check (option int))
    "unlabeled untouched" (Some 3)
    (Metrics.find_counter merged "ensemble.batch_steps")

let test_labeled_name () =
  let open Mpas_obs in
  Alcotest.(check string)
    "keys sorted" "x{a=1,b=2}"
    (Metrics.labeled_name "x" [ ("b", "2"); ("a", "1") ]);
  Alcotest.(check string) "no labels" "x" (Metrics.labeled_name "x" []);
  let name, labels = Metrics.parse_labeled "x{a=1,b=2}" in
  Alcotest.(check string) "parse base" "x" name;
  Alcotest.(check (list (pair string string)))
    "parse labels"
    [ ("a", "1"); ("b", "2") ]
    labels;
  Alcotest.check_raises "structural char rejected"
    (Invalid_argument "Metrics.labeled_name: label value \"a,b\" contains ','")
    (fun () -> ignore (Metrics.labeled_name "x" [ ("k", "a,b") ]))

let () =
  Alcotest.run "ensemble"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "icosahedral batch vs solo" `Quick
            test_bit_identity_ico;
          Alcotest.test_case "planar-hex batch vs solo" `Quick
            test_bit_identity_hex;
          Alcotest.test_case "all executor modes" `Quick
            test_pool_sizes_bit_identical;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "NaN quarantine" `Quick test_quarantine;
          Alcotest.test_case "QCheck member isolation" `Quick
            test_member_isolation_qcheck;
          Alcotest.test_case "interrupt hook contract" `Quick
            test_interrupt_contract;
        ] );
      ( "serving",
        [
          Alcotest.test_case "target -> done" `Quick test_target_done;
          Alcotest.test_case "evict and reuse" `Quick test_evict_and_reuse;
          Alcotest.test_case "submit validation messages" `Quick
            test_submit_validation;
        ] );
      ( "obs",
        [
          Alcotest.test_case "per-tenant counters and merge" `Quick
            test_tenant_metrics_and_merge;
          Alcotest.test_case "labeled names" `Quick test_labeled_name;
        ] );
    ]
