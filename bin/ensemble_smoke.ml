(* Smoke check for the ensemble batch-serving engine: submit a mixed
   batch of perturbed Williamson configurations, advance it on a
   4-domain pool, query every member, and verify each member's
   trajectory is bit-identical to a solo run of the refactored engine
   with the same configuration.  Also exercises the serving surface:
   a member with a step target must finish [Done], and a member poisoned
   with a NaN must be quarantined [Failed] without disturbing the rest
   of the batch.  Exits nonzero on any divergence.  Wired to the
   [ensemble-smoke] dune alias, which CI builds on every push.

   [--members N] scales the batch (perturbation templates cycle) and
   [--steps N] the horizon, so CI and profiling runs can size the same
   check up without editing it. *)

open Mpas_swe
open Mpas_ensemble

let templates =
  [|
    ("tc5/default", Williamson.Tc5, Config.default);
    ("tc2/second-order", Williamson.Tc2, { Config.default with h_adv_order = Config.Second });
    ("tc6/edge-only-pv", Williamson.Tc6, { Config.default with pv_average = Config.Edge_only });
    ( "tc5/viscous-drag",
      Williamson.Tc5,
      { Config.default with visc2 = 1e3; bottom_drag = 1e-6; apvm_factor = 0.25 } );
    ("tc2-rotated/default", Williamson.Tc2_rotated, Config.default);
  |]

let usage () =
  prerr_endline "usage: ensemble_smoke [--members N] [--steps N]   (N >= 1)";
  exit 2

let members, steps =
  let members = ref 5 and steps = ref 5 in
  let set r v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> r := n
    | _ -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--members" :: v :: rest ->
        set members v;
        parse rest
    | "--steps" :: v :: rest ->
        set steps v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (!members, !steps)

let batch =
  List.init members (fun i ->
      let t = i mod Array.length templates in
      let name, case, config = templates.(t) in
      (Printf.sprintf "%s#%d" name i, case, config, t))

let same a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "ensemble-smoke FAILED: %s\n%!" s; exit 1) fmt

let () =
  let m = Mpas_mesh.Build.icosahedral ~level:2 () in
  (* one solo reference per (template, horizon), shared by the members
     that cycle onto the same template *)
  let solo_cache = Hashtbl.create 16 in
  let solo t n =
    match Hashtbl.find_opt solo_cache (t, n) with
    | Some st -> st
    | None ->
        let _, case, config = templates.(t) in
        let model = Model.init ~config ~engine:Timestep.refactored case m in
        Model.run model ~steps:n;
        Hashtbl.add solo_cache (t, n) model.Model.state;
        model.Model.state
  in
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      let e = Ensemble.create ~capacity:(max 16 (members + 1)) ~pool m in
      let ids =
        List.map
          (fun (name, case, config, t) ->
            (name, t, Ensemble.submit_case e ~tenant:name ~config case))
          batch
      in
      (* an extra member stops early on its own target *)
      let capped = Ensemble.submit_case e ~target:2 Williamson.Tc5 in
      Ensemble.step e ~n:steps ();
      List.iter
        (fun (name, t, id) ->
          let info = Ensemble.query e id in
          (match info.Ensemble.i_status with
          | Ensemble.Running -> ()
          | s -> fail "%s: status %s after %d steps" name (Ensemble.status_name s) steps);
          if info.Ensemble.i_steps <> steps then
            fail "%s: %d steps, expected %d" name info.Ensemble.i_steps steps;
          let got = Ensemble.state e id in
          let ref_state = solo t steps in
          if not (same ref_state.Fields.h got.Fields.h) then
            fail "%s: h diverged from solo reference" name;
          if not (same ref_state.Fields.u got.Fields.u) then
            fail "%s: u diverged from solo reference" name;
          Printf.printf "ensemble-smoke ok: %-22s bit-identical to solo (%d steps)\n%!"
            name steps)
        ids;
      (match Ensemble.query e capped with
      | { Ensemble.i_status = Ensemble.Done; i_steps = 2; _ } ->
          print_endline "ensemble-smoke ok: capped member finished Done at its target"
      | info ->
          fail "capped member: status %s after %d steps, expected done at 2"
            (Ensemble.status_name info.Ensemble.i_status)
            info.Ensemble.i_steps);
      (* poison one member; the batch must quarantine it and keep going *)
      if members >= 2 then begin
        let _, _, victim_id = List.nth ids 0 in
        let wname, wt, witness_id = List.nth ids 1 in
        let poisoned = Ensemble.state e victim_id in
        poisoned.Fields.h.(0) <- Float.nan;
        Ensemble.set_state e victim_id poisoned;
        Ensemble.step e ~n:2 ();
        (match Ensemble.query e victim_id with
        | { Ensemble.i_status = Ensemble.Failed reason; _ } ->
            Printf.printf "ensemble-smoke ok: poisoned member quarantined (%s)\n%!"
              reason
        | info ->
            fail "poisoned member: status %s, expected failed"
              (Ensemble.status_name info.Ensemble.i_status));
        (match Ensemble.query e witness_id with
        | { Ensemble.i_status = Ensemble.Running; i_steps; _ }
          when i_steps = steps + 2 ->
            ()
        | info ->
            fail "witness member: status %s at %d steps, expected running at %d"
              (Ensemble.status_name info.Ensemble.i_status)
              info.Ensemble.i_steps (steps + 2));
        let got = Ensemble.state e witness_id in
        let ref_state = solo wt (steps + 2) in
        if
          not
            (same ref_state.Fields.h got.Fields.h
            && same ref_state.Fields.u got.Fields.u)
        then fail "%s: diverged after a neighbour's quarantine" wname;
        Printf.printf
          "ensemble-smoke ok: batch unaffected by the quarantine (%d members, occupancy %.2f)\n%!"
          (List.length (Ensemble.members e))
          (Ensemble.occupancy e)
      end);
  Printf.printf
    "ensemble-smoke ok: all %d members bit-identical to their solo references (%d steps)\n"
    members steps
