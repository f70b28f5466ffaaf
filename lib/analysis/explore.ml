open Effect
open Effect.Deep

(* A bounded interleaving explorer in the dscheck mould, at model level.

   A model is a handful of cooperative threads whose every shared-state
   access goes through {!op}: the effect suspends the thread and hands
   the scheduler a label, an enabledness guard and the action itself,
   which runs only when the explorer picks that thread.  The explorer
   then enumerates schedules by depth-first search over choice traces —
   continuations are one-shot, so each schedule replays the model from
   a fresh state, which is also what makes exploration deterministic
   and replayable.

   Exploration is preemption-bounded (iterative context bounding):
   switching away from a thread that is still enabled costs one unit of
   a budget; switches forced by the current thread blocking or
   finishing are free.  Almost all real scheduler bugs — including
   every seeded bug in {!Models} — need at most one or two preemptions,
   so a small bound buys exhaustive coverage of the interesting
   interleavings at a tiny fraction of the full factorial space.

   Failure conditions the explorer itself detects:
   - deadlock: not every thread finished, none is enabled;
   - a final-state check returning an error after a complete schedule;
   - an exception escaping model code.
   The failing schedule is reported as its op-label trace. *)

type _ Effect.t +=
  | Step : string * (unit -> bool) * (unit -> 'a) -> 'a Effect.t

let op ?(guard = fun () -> true) label action =
  perform (Step (label, guard, action))

type model = {
  m_name : string;
  m_make : unit -> (string * (unit -> unit)) list * (unit -> string option);
}

type status =
  | Finished
  | Blocked of { label : string; guard : unit -> bool; run : unit -> status }

let start (body : unit -> unit) : status =
  match_with body ()
    {
      retc = (fun () -> Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Step (label, guard, action) ->
              Some
                (fun (k : (a, status) continuation) ->
                  Blocked
                    { label; guard; run = (fun () -> continue k (action ())) })
          | _ -> None);
    }

type outcome = {
  oc_model : string;
  oc_schedules : int;  (** complete schedules explored *)
  oc_truncated : bool;  (** hit max_schedules or max_steps *)
  oc_error : string option;  (** first violation found, if any *)
  oc_trace : string list;  (** the failing schedule, as op labels *)
}

let outcome_message o =
  match o.oc_error with
  | None ->
      Printf.sprintf "%s: %d schedules clean%s" o.oc_model o.oc_schedules
        (if o.oc_truncated then " (truncated)" else "")
  | Some e ->
      Printf.sprintf "%s: %s\n  after %d schedules; trace: %s" o.oc_model e
        o.oc_schedules
        (String.concat " " o.oc_trace)

let run ?(preemption_bound = 2) ?(max_schedules = 200_000) ?(max_steps = 400)
    model =
  let schedules = ref 0 in
  let truncated = ref false in
  let error = ref None in
  let fail rev_trace msg =
    if !error = None then error := Some (msg, List.rev rev_trace)
  in
  let advance names sts rev_trace c =
    match sts.(c) with
    | Blocked b ->
        let rev_trace = (names.(c) ^ "/" ^ b.label) :: rev_trace in
        let failed =
          try
            sts.(c) <- b.run ();
            None
          with e -> Some (Printexc.to_string e)
        in
        (rev_trace, failed)
    | Finished -> invalid_arg "Explore.run: scheduled a finished thread"
  in
  (* Rebuild fresh state and replay a choice prefix (stored newest
     first); one-shot continuations make this the only way to
     backtrack.  The DFS hands live state straight to its first child,
     so only second-and-later siblings pay for a replay. *)
  let replay prefix =
    let threads, check = model.m_make () in
    let names = Array.of_list (List.map fst threads) in
    let sts = Array.of_list (List.map (fun (_, b) -> start b) threads) in
    let rec steps choices rev_trace =
      match choices with
      | [] -> (rev_trace, None)
      | c :: rest -> (
          let rev_trace, failed = advance names sts rev_trace c in
          match failed with
          | Some _ -> (rev_trace, failed)
          | None -> steps rest rev_trace)
    in
    let rev_trace, failed = steps (List.rev prefix) [] in
    (names, sts, check, rev_trace, failed)
  in
  let rec go prefix live last preemptions depth =
    if !error <> None || !truncated then ()
    else if !schedules >= max_schedules || depth > max_steps then
      truncated := true
    else
      let names, sts, check, rev_trace, failed =
        match live with Some s -> s | None -> replay prefix
      in
      match failed with
      | Some msg ->
          incr schedules;
          fail rev_trace ("exception in model: " ^ msg)
      | None ->
          let enabled = ref [] and asleep = ref [] in
          for i = Array.length sts - 1 downto 0 do
            match sts.(i) with
            | Finished -> ()
            | Blocked b ->
                if b.guard () then enabled := i :: !enabled
                else asleep := (names.(i) ^ "/" ^ b.label) :: !asleep
          done;
          if !enabled = [] && !asleep = [] then begin
            incr schedules;
            match check () with None -> () | Some msg -> fail rev_trace msg
          end
          else if !enabled = [] then begin
            incr schedules;
            fail rev_trace
              ("deadlock: every live thread is blocked ("
              ^ String.concat ", " !asleep
              ^ ")")
          end
          else begin
            let fresh = ref true in
            List.iter
              (fun c ->
                let cost =
                  match last with
                  | Some l when l <> c && List.mem l !enabled -> 1
                  | _ -> 0
                in
                if
                  preemptions + cost <= preemption_bound
                  && !error = None
                  && not !truncated
                then begin
                  let live' =
                    if !fresh then begin
                      fresh := false;
                      let rt, fl = advance names sts rev_trace c in
                      Some (names, sts, check, rt, fl)
                    end
                    else None
                  in
                  go (c :: prefix) live' (Some c) (preemptions + cost)
                    (depth + 1)
                end)
              !enabled
          end
  in
  go [] None None 0 0;
  {
    oc_model = model.m_name;
    oc_schedules = !schedules;
    oc_truncated = !truncated;
    oc_error = Option.map fst !error;
    oc_trace = (match !error with Some (_, t) -> t | None -> []);
  }

(* ------------------------------------------------------------------ *)

module Models = struct
  type deque_bug = Drop_last_cas
  type steal_bug = Drop_version_check | Drop_spread_broadcast | Drop_retire_broadcast

  (* The Chase-Lev deque at CAS granularity: owner pushes and pops the
     bottom, a thief steals the top; owner and thief contend on the
     last element and the CAS on [top] is the arbiter.  The seeded bug
     removes that CAS from the owner's last-element path (the
     "drop a fence" test): both sides can then take the same value.
     The final check is conservation — every pushed value is taken
     exactly once or still resident, never duplicated, never lost. *)
  let chase_lev ?bug () =
    let name =
      match bug with
      | None -> "chase-lev"
      | Some Drop_last_cas -> "chase-lev!drop-last-cas"
    in
    let make () =
      let top = ref 0 and bottom = ref 0 in
      let buf = Array.make 8 (-1) in
      let taken = ref [] in
      let push v =
        op "push" (fun () ->
            buf.(!bottom) <- v;
            incr bottom)
      in
      let cas_top t label =
        op label (fun () ->
            if !top = t then begin
              top := t + 1;
              true
            end
            else false)
      in
      let pop () =
        let b =
          op "pop:decr-bottom" (fun () ->
              decr bottom;
              !bottom)
        in
        let t = op "pop:read-top" (fun () -> !top) in
        if b < t then begin
          op "pop:restore" (fun () -> bottom := t);
          None
        end
        else if b > t then Some (op "pop:take" (fun () -> buf.(b)))
        else begin
          (* last element: race the thief for index [t] *)
          let won =
            match bug with
            | Some Drop_last_cas -> op "pop:take-unfenced" (fun () -> true)
            | None -> cas_top t "pop:cas-top"
          in
          let v = if won then Some buf.(b) else None in
          op "pop:restore" (fun () -> bottom := t + 1);
          v
        end
      in
      let steal () =
        let t = op "steal:read-top" (fun () -> !top) in
        let b = op "steal:read-bottom" (fun () -> !bottom) in
        if t >= b then None
        else if cas_top t "steal:cas-top" then Some buf.(t)
        else None
      in
      let take src = function
        | Some v -> taken := (v, src) :: !taken
        | None -> ()
      in
      let owner () =
        push 0;
        push 1;
        take "owner" (pop ());
        take "owner" (pop ())
      in
      let thief () = take "thief" (steal ()) in
      let check () =
        let err = ref None in
        for v = 0 to 1 do
          let got =
            List.filter (fun (w, _) -> w = v) !taken |> List.length
          in
          let resident = if !top <= v && v < !bottom then 1 else 0 in
          let total = got + resident in
          if total <> 1 && !err = None then
            err :=
              Some
                (Printf.sprintf
                   "value %d taken %d times, resident %d (expected exactly \
                    once overall)"
                   v got resident)
        done;
        !err
      in
      ([ ("owner", owner); ("thief", thief) ], check)
    in
    { m_name = name; m_make = make }

  (* The steal-mode wakeup protocol over a 3-task, 2-class phase
     program (host -> device -> host): per-lane deques, same-class
     stealing, a global version counter + sleepers counter standing in
     for the condvar, and the stingy signal gated on sleepers.  Lanes
     0,1 are host, lane 2 is device; cross-class enables are spread to
     the target class's lane 0.

     Seeded bugs:
     - [Drop_version_check]: read the wakeup version {e after} the
       final emptiness re-check instead of before — the classic lost
       wakeup window;
     - [Drop_spread_broadcast]: a cross-class spread does not signal,
       so a sleeping device lane never learns of its new task;
     - [Drop_retire_broadcast]: the final retire does not signal, so
       lanes asleep at termination never wake to exit.
     Each manifests as an explorer-detected deadlock; the correct
     protocol is clean across every schedule within the bound. *)
  let steal_wakeup ?bug () =
    let name =
      match bug with
      | None -> "steal-wakeup"
      | Some Drop_version_check -> "steal-wakeup!drop-version-check"
      | Some Drop_spread_broadcast -> "steal-wakeup!drop-spread-broadcast"
      | Some Drop_retire_broadcast -> "steal-wakeup!drop-retire-broadcast"
    in
    let n_tasks = 3 in
    let cls = [| `H; `D; `H |] in
    let succs = [| [ 1 ]; [ 2 ]; [] |] in
    let lanes = [| `H; `H; `D |] in
    let home = function `H -> 0 | `D -> 2 in
    let make () =
      let deques = Array.make 3 [] in
      let retired = Array.make n_tasks false in
      let n_retired = ref 0 in
      let version = ref 0 and sleepers = ref 0 in
      let runs = ref [] in
      let signal label =
        op label (fun () -> if !sleepers > 0 then incr version)
      in
      let push l t = deques.(l) <- deques.(l) @ [ t ] in
      let pop l =
        match deques.(l) with
        | [] -> None
        | t :: rest ->
            deques.(l) <- rest;
            Some t
      in
      let peers l =
        List.filter (fun p -> p <> l && lanes.(p) = lanes.(l)) [ 0; 1; 2 ]
      in
      let stealable l =
        List.exists (fun p -> deques.(p) <> []) (peers l)
      in
      let retire lane t =
        op
          (Printf.sprintf "run-t%d" t)
          (fun () ->
            retired.(t) <- true;
            incr n_retired;
            runs := (t, lane) :: !runs);
        List.iter
          (fun s ->
            (* chain: the single pred just retired, so [s] is ready *)
            if cls.(s) = lanes.(lane) then
              op (Printf.sprintf "push-own-t%d" s) (fun () -> push lane s)
            else begin
              op
                (Printf.sprintf "spread-t%d" s)
                (fun () -> push (home cls.(s)) s);
              if bug <> Some Drop_spread_broadcast then signal "spread-signal"
            end)
          succs.(t);
        let final = op "check-final" (fun () -> !n_retired = n_tasks) in
        if final && bug <> Some Drop_retire_broadcast then
          signal "retire-signal"
      in
      let sleep lane =
        op "sleepers++" (fun () -> incr sleepers);
        let wait_from v =
          op "wait" ~guard:(fun () -> !version > v) (fun () -> ());
          op "sleepers--" (fun () -> decr sleepers)
        in
        let recheck () =
          op "recheck" (fun () ->
              !n_retired = n_tasks || deques.(lane) <> [] || stealable lane)
        in
        match bug with
        | Some Drop_version_check ->
            (* version sampled after the emptiness check: a push+signal
               landing in between is lost *)
            if op "recheck" (fun () ->
                   !n_retired = n_tasks || deques.(lane) <> []
                   || stealable lane)
            then op "sleepers--" (fun () -> decr sleepers)
            else wait_from (op "read-version" (fun () -> !version))
        | _ ->
            let v = op "read-version" (fun () -> !version) in
            if recheck () then op "sleepers--" (fun () -> decr sleepers)
            else wait_from v
      in
      let lane_body lane () =
        let rec loop () =
          if op "check-done" (fun () -> !n_retired = n_tasks) then ()
          else begin
            (match op "pop-own" (fun () -> pop lane) with
            | Some t -> retire lane t
            | None -> (
                let stolen =
                  op "steal" (fun () ->
                      let rec try_peers = function
                        | [] -> None
                        | p :: rest -> (
                            match pop p with
                            | Some t -> Some t
                            | None -> try_peers rest)
                      in
                      try_peers (peers lane))
                in
                match stolen with
                | Some t -> retire lane t
                | None -> sleep lane));
            loop ()
          end
        in
        loop ()
      in
      let check () =
        let err = ref None in
        let set m = if !err = None then err := Some m in
        for t = 0 to n_tasks - 1 do
          let r = List.filter (fun (u, _) -> u = t) !runs in
          (match r with
          | [ (_, lane) ] ->
              if lanes.(lane) <> cls.(t) then
                set
                  (Printf.sprintf "task %d ran on a lane of the wrong class"
                     t)
          | [] -> set (Printf.sprintf "task %d never ran" t)
          | _ ->
              set
                (Printf.sprintf "task %d ran %d times" t (List.length r)))
        done;
        !err
      in
      (* seed: t0 in its home deque *)
      push (home cls.(0)) 0;
      ( [ ("h0", lane_body 0); ("h1", lane_body 1); ("d0", lane_body 2) ],
        check )
    in
    { m_name = name; m_make = make }
end
