(* Simulator-cost benchmark, one cold round per process.

     simbench.exe round --workload W --seed N [--traced]
     simbench.exe units
     simbench.exe calibrate

   [round] builds workload W from seed N (timed as set-up), runs the
   simulation (timed as the measured phase), checks the simulated
   outputs and prints one JSON object on stdout.  With --traced it also
   attaches the per-kind profiler (and, on clients, a memory trace sink)
   and adds the per-layer metrics.  [units] prints the crypto/batch
   unit-cost phase, [calibrate] the machine-speed kernel's time.  run.py
   drives them and aggregates rounds. *)

module Engine = Repro_sim.Engine
module Cpu = Repro_sim.Cpu
module Summary = Repro_sim.Stats.Summary
module Trace = Repro_trace.Trace
module Json = Repro_metrics.Json
module D = Repro_chopchop.Deployment
module Broker = Repro_chopchop.Broker
module Server = Repro_chopchop.Server
module LB = Repro_experiments.Latency_breakdown
module Clock = Repro_prof.Prof.Clock
module W = Workloads

let num x = Json.Num x
let int n = Json.Num (float_of_int n)

let counter counters cat name =
  List.fold_left
    (fun acc (c, n, v) -> if c = cat && n = name then acc + v else acc)
    0 counters

(* HotStuff rotates the leader every view; a view whose leader never
   proposed ended by timeout.  Counted from the "stob/propose" instants. *)
let leaderless_views events =
  let views = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.event) ->
      if e.ev_cat = "stob" && e.ev_name = "propose" then Hashtbl.replace views e.ev_id ())
    events;
  if Hashtbl.length views = 0 then 0
  else
    let lo, hi =
      Hashtbl.fold (fun v () (lo, hi) -> (min lo v, max hi v)) views (max_int, min_int)
    in
    hi - lo + 1 - Hashtbl.length views

let round w ~seed ~traced =
  let t0 = Clock.now () in
  let sink =
    if traced && w = W.Clients then Trace.Sink.memory () else Trace.Sink.null ()
  in
  let b = W.build w ~seed ~trace:sink ~timed:traced in
  let c = b.W.ctx in
  let d = c.W.d and engine = c.W.engine in
  let setup_s = Clock.now () -. t0 in
  let prof = if traced then Some (Kind_prof.attach engine ~own:(fun () -> c.W.hook_wall))
    else None in
  let gc0 = Gc.quick_stat () in
  let t1 = Clock.now () in
  D.run d ~until:c.W.until;
  let host_s = Clock.now () -. t1 in
  let gc1 = Gc.quick_stat () in
  Option.iter Kind_prof.detach prof;
  let servers = D.servers d in
  let msgs = Server.delivered_messages servers.(0) in
  let per_msg x = x /. float_of_int (max 1 msgs) in
  (* --- end-to-end, simulated -------------------------------------------- *)
  let lat = Summary.create () in
  Hashtbl.iter
    (fun k due ->
      if due >= c.W.warm && due < c.W.gen_end then
        let finish =
          match w with
          | W.Classic -> Hashtbl.find_opt c.W.srv0_time k
          | W.Distilled | W.Clients -> Hashtbl.find_opt c.W.completed k
        in
        Option.iter (fun t -> Summary.add lat (t -. due)) finish)
    c.W.due;
  let attempted = Hashtbl.length c.W.due in
  let once = ref 0 and dups = ref 0 in
  Hashtbl.iter
    (fun _ n -> if n = 1 then incr once else if n > 1 then incr dups)
    c.W.srv0_count;
  let failed = attempted - !once in
  let missing =
    Hashtbl.fold
      (fun k _ acc -> if Hashtbl.mem c.W.srv0_count k then acc else acc + 1)
      c.W.completed 0
  in
  let window = c.W.gen_end -. c.W.warm in
  (* --- checks ------------------------------------------------------------- *)
  let d0 = W.digest_string c.W.digests.(0) in
  let live =
    List.filter (fun i -> D.server_connected d i) (List.init (Array.length servers) Fun.id)
  in
  let diverged =
    List.filter (fun i -> W.digest_string c.W.digests.(i) <> d0) live
  in
  let checks = ref [] in
  let check name ok detail = checks := (name, ok, detail) :: !checks in
  check "live_digests_agree" (diverged = [] && List.length live > 1)
    (Printf.sprintf "%d live servers, diverged: [%s]" (List.length live)
       (String.concat "," (List.map string_of_int diverged)));
  check "no_duplicate_delivery" (!dups = 0 && c.W.unknown = 0)
    (Printf.sprintf "%d payloads delivered twice, %d unknown payloads at server 0"
       !dups c.W.unknown);
  check "all_delivered_once" (failed = 0)
    (Printf.sprintf "%d of %d generated messages not delivered exactly once at server 0"
       failed attempted);
  check "completions_delivered" (missing = 0)
    (Printf.sprintf "%d of %d client completions never delivered at server 0"
       missing (Hashtbl.length c.W.completed));
  (match b.W.restarted with
   | Some v ->
     check "restart_caught_up"
       ((not (D.server_catching_up d v))
        && b.W.probes.W.caught_up_at > 0.
        && W.digest_string c.W.digests.(v) = d0)
       (Printf.sprintf "server %d digest %s vs server 0 %s" v
          (W.digest_string c.W.digests.(v)) d0)
   | None -> ());
  check "latency_samples" (Summary.count lat >= 1000)
    (Printf.sprintf "%d latency samples (p99 needs >= 1000)" (Summary.count lat));
  let counters = Trace.Sink.counters sink in
  let fresh, reused = Engine.pool_stats engine in
  (* --- deterministic fields (same seed => identical) --------------------- *)
  let det =
    [ ("digest", Json.Str d0);
      ("delivered", int msgs);
      ("attempted", int attempted);
      ("failed", int failed);
      ("window_ops", int c.W.window_ops);
      ("completions", int c.W.completions);
      ("max_pending", int (Engine.max_pending engine));
      ("pool_fresh", int fresh);
      ("pool_reused", int reused);
      ("own_events", int c.W.own_events);
      ("sim_tput_msg_s", num (float_of_int c.W.window_ops /. window));
      ("sim_lat_p50_s", num (Summary.percentile lat 0.50));
      ("sim_lat_p99_s", num (Summary.percentile lat 0.99));
      ("lat_samples", int (Summary.count lat));
      ("server_util", num b.W.probes.W.server_util);
      ( "counters",
        Json.Obj (List.map (fun (cat, n, v) -> (cat ^ "." ^ n, int v)) counters) ) ]
  in
  (* --- per-layer (traced rounds) ------------------------------------------ *)
  let layers, kinds =
    match prof with
    | None -> ([], [])
    | Some p ->
      let wall k = Kind_prof.wall_of p k in
      let us x = per_msg (x *. 1e6) in
      let bench_events, bench_wall =
        Kind_prof.sum_where p (String.starts_with ~prefix:"bench.")
      in
      let share = Kind_prof.attributed_share p in
      check "attributed_share" (share >= 0.99)
        (Printf.sprintf "%.4f of handler time in named kinds" share);
      check "bench_kinds_cover_own_events" (bench_events = c.W.own_events)
        (Printf.sprintf "%d bench.* events dispatched, %d scheduled by the benchmark"
           bench_events c.W.own_events);
      let brokers = List.init (D.n_brokers d) (D.broker d) in
      let active = List.filter (fun br -> Broker.batches_completed br > 0) brokers in
      let distill =
        if active = [] then 0.
        else
          List.fold_left (fun a br -> a +. Broker.distillation_ratio br) 0. active
          /. float_of_int (List.length active)
      in
      let broker_busy =
        List.fold_left ( +. ) 0.
          (List.init (D.n_brokers d) (fun i -> Cpu.busy_seconds (D.broker_cpu d i)))
      in
      let events = if Trace.Sink.enabled sink then Trace.Sink.events sink else [] in
      let phases =
        if Trace.Sink.enabled sink then LB.phases (LB.of_events events) else []
      in
      let phase name q =
        match List.assoc_opt name phases with
        | Some h when Trace.Hist.count h > 0 -> Trace.Hist.percentile h q
        | Some _ | None -> 0.
      in
      let view_changes =
        counter counters "stob" "view_changes" + leaderless_views events
      in
      let catchup =
        if b.W.restarted <> None && b.W.probes.W.caught_up_at > 0. then
          b.W.probes.W.caught_up_at -. b.W.probes.W.restart_at
        else 0.
      in
      let layers =
        [ ("engine.events_per_msg", per_msg (float_of_int (Kind_prof.events p)));
          ("engine.max_pending", float_of_int (Engine.max_pending engine));
          ( "engine.pool_fresh_per_event",
            float_of_int fresh /. float_of_int (max 1 (fresh + reused)) );
          ("engine.dispatch_us_per_msg", us (host_s -. Kind_prof.total_wall p));
          ("net.msgs_per_msg", per_msg (float_of_int (counter counters "net" "msgs")));
          ("net.bytes_per_msg", per_msg (float_of_int (counter counters "net" "bytes")));
          ( "rudp.retx_per_msg",
            per_msg (float_of_int (counter counters "rudp" "retransmissions")) );
          ("net.server.dwell_p99_s", Kind_prof.dwell_p99 p "net.server");
          ("net.broker.dwell_p99_s", Kind_prof.dwell_p99 p "net.broker");
          ("net.client.dwell_p99_s", Kind_prof.dwell_p99 p "net.client");
          ("server.rx_self_us_per_msg", us (wall "net.server"));
          ("server.cpu_self_us_per_msg", us (wall "cpu.server"));
          ("server.timer_self_us_per_msg", us (wall "server.timer"));
          ("broker.cpu_self_us_per_msg", us (wall "cpu.broker"));
          ("broker.rx_self_us_per_msg", us (wall "net.broker"));
          ("broker.timer_self_us_per_msg", us (wall "broker.timer"));
          ( "crypto.verify_ops_per_msg",
            per_msg (float_of_int (counter counters "crypto" "verify_ops")) );
          ("broker.distillation_ratio", distill);
          ("cpu.server_util", b.W.probes.W.server_util);
          ("cpu.broker_busy_s", broker_busy);
          ("cohort.rx_self_us_per_msg", us (wall "net.client"));
          ("cohort.timer_self_us_per_msg", us (wall "client.timer"));
          ("intake.self_us_per_msg", us c.W.call_wall);
          ("load_broker.inject_self_us_per_msg", us (wall "load.inject"));
          ("stob.view_changes", float_of_int view_changes);
          ("stob.timer_self_us_per_msg", us (wall "pbft.timer" +. wall "hotstuff.timer"));
          ("store.wal_bytes_per_msg", per_msg (float_of_int (D.server_wal_bytes d 0)));
          ("store.disk_self_us_per_msg", us (wall "disk.io"));
          ("store.catchup_sim_s", catchup);
          ("store.restart_lag_sim_s", b.W.probes.W.longest_lag);
          ("phase.submission_p50_s", phase "submission" 0.5);
          ("phase.distillation_p50_s", phase "distillation" 0.5);
          ("phase.witnessing_p50_s", phase "witnessing" 0.5);
          ("phase.ordering_p50_s", phase "ordering" 0.5);
          ("phase.delivery_p50_s", phase "delivery" 0.5);
          ("phase.ordering_p99_s", phase "ordering" 0.99);
          ("prof.attributed_share", share);
          ( "bench.self_us_per_msg",
            us (bench_wall -. c.W.call_wall +. c.W.hook_wall) ) ]
      in
      let kinds =
        List.map
          (fun (r : Kind_prof.row) ->
            Json.Obj
              [ ("kind", Json.Str r.kind); ("events", int r.events);
                ("wall_s", num r.wall_s); ("own_s", num r.own_s);
                ("minor_words", num r.minor_words) ])
          (Kind_prof.rows p)
      in
      (layers, kinds)
  in
  let checks = List.rev !checks in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  Json.Obj
    [ ("workload", Json.Str (W.workload_name w));
      ("seed", int seed);
      ("traced", Json.Bool traced);
      ("correct", Json.Bool (List.for_all (fun (_, ok, _) -> ok) checks));
      ( "checks",
        Json.List
          (List.map
             (fun (n, ok, detail) ->
               Json.Obj [ ("name", Json.Str n); ("ok", Json.Bool ok); ("detail", Json.Str detail) ])
             checks) );
      ("setup_s", num setup_s);
      ("host_s", num host_s);
      ("host_us_per_msg", num (per_msg (host_s *. 1e6)));
      ("peak_heap_mb", num (float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6));
      ( "gc",
        Json.Obj
          [ ("minor_words_per_msg", num (per_msg (gc1.Gc.minor_words -. gc0.Gc.minor_words)));
            ( "promoted_words_per_msg",
              num (per_msg (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)) );
            ( "major_collections",
              int (gc1.Gc.major_collections - gc0.Gc.major_collections) ) ] );
      ("det", Json.Obj det);
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) layers));
      ("kinds", Json.List kinds) ]

let units () =
  Json.Obj
    (List.map
       (fun (s : Unit_costs.stat) ->
         ( s.name,
           Json.Obj
             [ ("p25", num s.p25); ("p50", num s.p50); ("p75", num s.p75);
               ("samples", int s.samples) ] ))
       (Unit_costs.run ()))

let usage () =
  prerr_endline
    "usage: simbench.exe round --workload distilled|classic|clients --seed N \
     [--traced]\n       simbench.exe units\n       simbench.exe calibrate";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "units" :: _ -> print_endline (Json.to_string (units ()))
  | "calibrate" :: _ -> print_endline (Json.to_string (Json.Obj [ ("cal_s", num (Calib.seconds ())) ]))
  | "round" :: args ->
    let rec parse w seed traced = function
      | "--workload" :: v :: rest -> parse (W.workload_of_string v) seed traced rest
      | "--seed" :: v :: rest -> parse w (int_of_string_opt v) traced rest
      | "--traced" :: rest -> parse w seed true rest
      | [] -> (w, seed, traced)
      | _ -> usage ()
    in
    (match parse None None false args with
     | Some w, Some seed, traced ->
       print_endline (Json.to_string (round w ~seed ~traced))
     | _ -> usage ())
  | _ -> usage ()
