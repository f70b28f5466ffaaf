(* End-to-end check of the serving layer: two tenants submit a mixed
   batch of Williamson jobs, a seeded fault plan injects kernel raises,
   checkpoint truncation and lane deaths while they run, and the server
   must recover every job from its checkpoints and drain — with every
   completed job bit-identical to an uninterrupted solo run of the
   refactored engine, and every non-completed job carrying a reason.
   Also exercises admission control: an over-quota burst must be
   rejected deterministically with a typed reason.  Exits nonzero on
   any violation.  Wired to the [server-smoke] dune alias with a fixed
   seed; [--seed N] replays any other schedule. *)

open Mpas_swe
module S = Mpas_server.Server
module F = Mpas_server.Fault
module Metrics = Mpas_obs.Metrics

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "server-smoke FAILED: %s\n%!" s;
      exit 1)
    fmt

let seed =
  match Array.to_list Sys.argv with
  | [ _ ] -> 7
  | [ _; "--seed"; v ] -> (
      match int_of_string_opt v with Some n -> n | None -> fail "bad seed %s" v)
  | _ ->
      prerr_endline "usage: server_smoke [--seed N]";
      exit 2

let steps = 6

let requests =
  [
    ("acme", S.High, Williamson.Tc5, Config.default);
    ("acme", S.Normal, Williamson.Tc2, { Config.default with h_adv_order = Config.Second });
    ("acme", S.Normal, Williamson.Tc5, { Config.default with visc2 = 1e3; bottom_drag = 1e-6 });
    ("beta", S.Normal, Williamson.Tc6, { Config.default with pv_average = Config.Edge_only });
    ("beta", S.Low, Williamson.Tc2_rotated, Config.default);
  ]

let same a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let () =
  let m = Mpas_mesh.Build.icosahedral ~level:1 ~lloyd_iters:2 () in
  let registry = Metrics.create () in
  let fault = F.plan ~ticks:8 ~events:4 ~seed () in
  Printf.printf "server-smoke: seed %d -> fault plan [%s]\n%!" seed
    (F.to_string fault);
  let srv =
    S.create ~registry ~capacity:3 ~queue_limit:8 ~tenant_quota:3
      ~checkpoint_every:2 ~max_retries:4 ~fault m
  in
  let ids =
    List.map
      (fun (tenant, priority, case, config) ->
        let weight = if tenant = "acme" then 2.0 else 1.0 in
        match S.submit srv ~tenant ~weight ~priority ~config ~steps case with
        | Ok id -> (id, tenant, case, config)
        | Error r -> fail "admission rejected a clean submit: %s" (S.reject_message r))
      requests
  in
  (* the over-quota burst must bounce with a typed, stable reason *)
  (match S.submit srv ~tenant:"acme" ~steps Williamson.Tc5 with
  | Error (S.Tenant_quota ("acme", 3) as r) ->
      Printf.printf "server-smoke ok: over-quota burst rejected (%s)\n%!"
        (S.reject_message r)
  | Error r -> fail "over-quota burst: wrong rejection %s" (S.reject_message r)
  | Ok id -> fail "over-quota burst admitted as job %d" id);
  if not (S.drain srv ~max_ticks:300 ()) then
    fail "queue did not drain in 300 ticks";
  let completed = ref 0 in
  List.iter
    (fun (id, tenant, case, config) ->
      let info = S.query srv id in
      match info.S.jb_status with
      | S.Completed ->
          incr completed;
          let got = Option.get (S.result srv id) in
          let solo = Model.init ~config ~engine:Timestep.refactored case m in
          Model.run solo ~steps;
          if
            not
              (same solo.Model.state.Fields.h got.Fields.h
              && same solo.Model.state.Fields.u got.Fields.u)
          then
            fail "job %d (%s): completed but diverged from the solo reference"
              id tenant;
          Printf.printf
            "server-smoke ok: job %d (%s) completed, %d retries, bit-identical\n%!"
            id tenant info.S.jb_retries
      | S.Failed reason when reason <> "" ->
          Printf.printf "server-smoke ok: job %d (%s) failed with reason: %s\n%!"
            id tenant reason
      | s -> fail "job %d (%s): unexpected terminal state %s" id tenant (S.status_name s))
    ids;
  if !completed = 0 then fail "no job completed; the check proved nothing";
  let snap = Metrics.snapshot registry in
  let total name =
    List.fold_left
      (fun acc (n, e) ->
        match e with
        | Metrics.Counter_value v when fst (Metrics.parse_labeled n) = name ->
            acc + v
        | _ -> acc)
      0 snap
  in
  let injected = total "server.faults_injected" in
  let disruptive =
    List.exists
      (fun (ev : F.event) ->
        ev.F.ev_kind = F.Kernel_raise || ev.F.ev_kind = F.Lane_death)
      fault
  in
  if List.length fault > 0 && injected = 0 then
    fail "fault plan had %d events but none was injected" (List.length fault);
  let recoveries = total "server.recoveries" in
  if disruptive && recoveries = 0 then
    fail "disruptive faults injected but no recovery happened";
  Printf.printf
    "server-smoke ok: drained in %d ticks (%d faults injected, %d recoveries, %d restores, %d checkpoints, %d corrupt skipped)\n%!"
    (S.now srv) injected recoveries
    (total "server.restores")
    (total "server.checkpoints_written")
    (total "server.snapshots_corrupt_skipped");
  List.iter
    (fun (n, e) ->
      match e with
      | Metrics.Counter_value v when String.length n >= 7 && String.sub n 0 7 = "server." ->
          Printf.printf "  %-48s %d\n" n v
      | _ -> ())
    snap;
  print_endline "server-smoke ok: submit -> fault -> recover -> drain survived"
