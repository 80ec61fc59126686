(* The three benchmark workloads, built directly on Deployment /
   Load_broker / Cohort / Broker.receive_client, and the bookkeeping the
   correctness checks read: per-server delivery digests, the generated
   payloads and where each was delivered.

   [build] constructs a workload from its seed; the caller times that as
   set-up and [Deployment.run] as the measured phase.  Every event the
   benchmark itself schedules carries a [bench.*] kind and is counted in
   [own_events], so a traced round can prove that those kinds account
   for all of the benchmark's own events. *)

module Engine = Repro_sim.Engine
module Region = Repro_sim.Region
module Rng = Repro_sim.Rng
module Cpu = Repro_sim.Cpu
module Net = Repro_sim.Net
module Trace = Repro_trace.Trace
module D = Repro_chopchop.Deployment
module Broker = Repro_chopchop.Broker
module Server = Repro_chopchop.Server
module Proto = Repro_chopchop.Proto
module Types = Repro_chopchop.Types
module Directory = Repro_chopchop.Directory
module Wire = Repro_chopchop.Wire
module Load_broker = Repro_workload.Load_broker
module Cohort = Repro_workload.Cohort
module Schnorr = Repro_crypto.Schnorr
module Clock = Repro_prof.Prof.Clock

type workload = Distilled | Classic | Clients

let workload_of_string = function
  | "distilled" -> Some Distilled
  | "classic" -> Some Classic
  | "clients" -> Some Clients
  | _ -> None

let workload_name = function
  | Distilled -> "distilled"
  | Classic -> "classic"
  | Clients -> "clients"

(* --- unique payloads --------------------------------------------------- *)

(* Every generated message carries an 8-byte payload naming its
   (member, counter) pair, xor-masked with a seed-derived constant so
   another seed gives other bytes.  Unique payloads matter: a server
   treats a repeat of a client's last payload as a replay (see README). *)
let key ~member ~counter = (member lsl 24) lor counter

let encode ~mask k =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (k lxor mask));
  Bytes.unsafe_to_string b

let decode ~mask s =
  if String.length s <> 8 then None
  else Some (Int64.to_int (String.get_int64_le s 0) lxor mask)

(* --- delivery-stream digests ------------------------------------------- *)

(* Each server's delivery stream is folded into a running digest.  The
   digest is registered as the server's application state, so a
   cold-restarted server rebuilds it from its checkpoint and WAL exactly
   as it rebuilds everything else. *)
type digest = { mutable h : int; mutable ops : int; mutable dels : int }

let mix h x = (h lxor x) * 0x100000001b3 land max_int

let fold_delivery dg = function
  | Proto.Ops ops ->
    Array.iter (fun (id, m) -> dg.h <- mix (mix dg.h id) (Hashtbl.hash m)) ops;
    dg.ops <- dg.ops + Array.length ops;
    dg.dels <- dg.dels + 1
  | Proto.Bulk { first_id; count; tag; msg_bytes } ->
    dg.h <- mix (mix (mix (mix dg.h first_id) count) tag) msg_bytes;
    dg.ops <- dg.ops + count;
    dg.dels <- dg.dels + 1

let digest_string dg = Printf.sprintf "%016x:%d:%d" dg.h dg.ops dg.dels

(* --- round context ------------------------------------------------------ *)

type ctx = {
  d : D.t;
  engine : Engine.t;
  mask : int;
  warm : float; (* measurement window start, sim s *)
  gen_end : float; (* generators stop; window end *)
  until : float; (* simulation end (drain included) *)
  k_gen : int; (* bench.gen: the benchmark's input generators *)
  k_probe : int; (* bench.probe: window marks and catch-up polling *)
  k_fault : int; (* bench.fault: crash and restart *)
  mutable own_events : int;
  timed : bool; (* traced round: clock the program calls made by bench events *)
  mutable call_wall : float; (* host s inside program calls from bench events,
                                delivery hook excluded *)
  mutable hook_wall : float; (* host s in the delivery hook, a running total
                                the profiler carves out of the running kind *)
  digests : digest array;
  due : (int, float) Hashtbl.t; (* generated key -> due time *)
  srv0_count : (int, int) Hashtbl.t; (* key -> deliveries at server 0 *)
  srv0_time : (int, float) Hashtbl.t; (* key -> first delivery at server 0 *)
  completed : (int, float) Hashtbl.t; (* key -> client completion time *)
  mutable unknown : int; (* delivered payloads the benchmark never made *)
  mutable window_ops : int; (* server-0 messages delivered in the window *)
  mutable completions : int;
}

let schedule c ~kind ~time f =
  c.own_events <- c.own_events + 1;
  Engine.schedule_at ~kind c.engine ~time f

(* A call from a bench event into the program: in a traced round its host
   time is clocked so it can be moved out of the benchmark's own share.
   Delivery-hook time inside the call (a restart replays its WAL) stays
   the benchmark's. *)
let call c f =
  if c.timed then begin
    let t0 = Clock.now () and h0 = c.hook_wall in
    f ();
    c.call_wall <- c.call_wall +. (Clock.now () -. t0) -. (c.hook_wall -. h0)
  end
  else f ()

let make_ctx d ~seed ~timed ~warm ~gen_end ~until =
  let engine = D.engine d in
  let rng = Rng.create (Int64.of_int (seed * 7919 + 17)) in
  let capacity = D.capacity d in
  let c =
    { d; engine;
      mask = Int64.to_int (Rng.next64 rng) land ((1 lsl 60) - 1);
      warm; gen_end; until;
      k_gen = Engine.kind engine "bench.gen";
      k_probe = Engine.kind engine "bench.probe";
      k_fault = Engine.kind engine "bench.fault";
      own_events = 0; timed; call_wall = 0.; hook_wall = 0.;
      digests = Array.init capacity (fun _ -> { h = 0; ops = 0; dels = 0 });
      due = Hashtbl.create 65536; srv0_count = Hashtbl.create 65536;
      srv0_time = Hashtbl.create 65536; completed = Hashtbl.create 65536;
      unknown = 0; window_ops = 0; completions = 0 }
  in
  for i = 0 to capacity - 1 do
    let dg = c.digests.(i) in
    D.set_server_app d i
      ~snapshot:(fun () -> Printf.sprintf "%d %d %d" dg.h dg.ops dg.dels)
      ~restore:(function
        | None ->
          dg.h <- 0;
          dg.ops <- 0;
          dg.dels <- 0
        | Some s ->
          Scanf.sscanf s "%d %d %d" (fun h ops dels ->
              dg.h <- h;
              dg.ops <- ops;
              dg.dels <- dels))
  done;
  let hook srv del =
      fold_delivery c.digests.(srv) del;
      if srv = 0 then begin
        let now = Engine.now engine in
        let n = Proto.delivery_count del in
        if now >= c.warm && now < c.gen_end then c.window_ops <- c.window_ops + n;
        match del with
        | Proto.Ops ops ->
          Array.iter
            (fun (_, m) ->
              match decode ~mask:c.mask m with
              | Some k when Hashtbl.mem c.due k ->
                let prev = Option.value (Hashtbl.find_opt c.srv0_count k) ~default:0 in
                Hashtbl.replace c.srv0_count k (prev + 1);
                if prev = 0 then Hashtbl.replace c.srv0_time k now
              | Some _ | None -> c.unknown <- c.unknown + 1)
            ops
        | Proto.Bulk _ -> ()
      end
  in
  D.server_deliver_hook d (fun srv del ->
      if c.timed then begin
        let t0 = Clock.now () in
        hook srv del;
        c.hook_wall <- c.hook_wall +. (Clock.now () -. t0)
      end
      else hook srv del);
  c

(* Open-loop cohort generator: member [m] queues message [k] at
   [start + phase_m + k * period], where the phase is one of [slots]
   evenly spaced offsets drawn from the seed.  One bench.gen event per
   slot tick, however many members share the slot. *)
let drive_cohort c coh ~rng ~members ~period ~start =
  let slots = 40 in
  let dt = period /. float_of_int slots in
  let by_slot = Array.make slots [] in
  for m = members - 1 downto 0 do
    let s = Rng.int rng slots in
    by_slot.(s) <- m :: by_slot.(s)
  done;
  let counters = Array.make members 0 in
  let rec tick j () =
    let now = Engine.now c.engine in
    List.iter
      (fun m ->
        let k = key ~member:m ~counter:counters.(m) in
        counters.(m) <- counters.(m) + 1;
        Hashtbl.replace c.due k now;
        let msg = encode ~mask:c.mask k in
        call c (fun () -> Cohort.broadcast coh m msg))
      by_slot.(j mod slots);
    let next = start +. (float_of_int (j + 1) *. dt) in
    if next < c.gen_end then schedule c ~kind:c.k_gen ~time:next (tick (j + 1))
  in
  schedule c ~kind:c.k_gen ~time:start (tick 0)

let add_cohort c ~members ~identity =
  Cohort.create ~deployment:c.d ~members ~identity
    ~on_delivered:(fun _m msg ~latency:_ ->
      c.completions <- c.completions + 1;
      match decode ~mask:c.mask msg with
      | Some k -> Hashtbl.replace c.completed k (Engine.now c.engine)
      | None -> ())
    ()

(* --- per-round simulated probes ----------------------------------------- *)

type probes = {
  mutable server_util : float; (* mean windowed lane utilization, live servers *)
  mutable restart_at : float; (* sim time of the cold restart (clients) *)
  mutable caught_up_at : float; (* restarted server first live and level *)
  mutable longest_lag : float; (* its longest stretch trailing server 0 *)
}

let window_util c p ~live =
  let marks = ref [] in
  schedule c ~kind:c.k_probe ~time:c.warm (fun () ->
      marks := List.map (fun i -> (i, Cpu.mark (D.server_cpu c.d i))) (live ()));
  schedule c ~kind:c.k_probe ~time:c.gen_end (fun () ->
      let us =
        List.map (fun (i, m) -> Cpu.utilization (D.server_cpu c.d i) ~since:m) !marks
      in
      p.server_util <-
        List.fold_left ( +. ) 0. us /. float_of_int (max 1 (List.length us)))

(* --- workload constructors ------------------------------------------------ *)

type built = {
  ctx : ctx;
  probes : probes;
  restarted : int option; (* server cold-restarted mid-run *)
}

let distilled ~seed ~trace ~timed =
  let n_servers = 64 and rate = 1_000_000. and batch_count = 65_536 in
  let members = 1280 and period = 4.0 and gen_end = 6.0 and until = 10.0 in
  let base = D.paper_config ~n_servers ~underlay:D.Pbft in
  let cfg =
    { base with
      seed = Int64.of_int seed; store_enabled = true; max_batch = batch_count;
      trace }
  in
  let d = D.create cfg in
  let c = make_ctx d ~seed ~timed ~warm:2.0 ~gen_end ~until in
  let rng = Rng.create (Int64.of_int (seed * 31 + 5)) in
  (* Load brokers at OVH, as many as their egress NICs need (the sizing
     rule of the paper's Fig. 7 harness). *)
  let batches_per_s = rate /. float_of_int batch_count in
  let batch_bytes =
    Wire.distilled_batch_bytes ~clients:cfg.dense_clients ~count:batch_count
      ~msg_bytes:8 ~stragglers:0
  in
  let n_lb =
    max 1
      (int_of_float
         (ceil
            (batches_per_s *. float_of_int (batch_bytes * 8 * n_servers)
             /. (Net.server_default_egress_bps *. 0.7))))
  in
  let ranges = 2 in
  let lb_regions = Array.of_list Region.load_broker_regions in
  let dir = Server.directory (D.servers d).(0) in
  let loads =
    List.init n_lb (fun i ->
        let first_id = i * ranges * batch_count in
        (* Pre-generate the ranges' aggregated key material, the stand-in
           for the paper's pre-generated batch files (input generation,
           hence set-up). *)
        for r = 0 to ranges - 1 do
          ignore
            (Directory.aggregate_ms_pks_range dir
               ~first:(first_id + (r * batch_count)) ~count:batch_count)
        done;
        Load_broker.create ~deployment:d
          ~region:lb_regions.(i mod Array.length lb_regions)
          ~config:
            { (Load_broker.default_config ~first_id) with
              rate = batches_per_s /. float_of_int n_lb; batch_count;
              msg_bytes = 8; distill_fraction = 1.0; ranges }
          ())
  in
  let coh =
    add_cohort c ~members ~identity:(fun m -> cfg.dense_clients - 1 - m)
  in
  drive_cohort c coh ~rng ~members ~period ~start:0.5;
  let p = { server_util = 0.; restart_at = 0.; caught_up_at = 0.; longest_lag = 0. } in
  window_util c p ~live:(fun () -> List.init n_servers Fun.id);
  List.iteri
    (fun i lb ->
      Load_broker.start lb ~until:gen_end ~phase:(float_of_int i /. batches_per_s) ())
    loads;
  { ctx = c; probes = p; restarted = None }

let classic ~seed ~trace ~timed =
  let egress_bps = 25e6 and gen_end = 2.7 and until = 4.5 in
  let n_servers = 4 and max_batch = 1024 and dense_clients = 10_000_000 in
  let d =
    D.create
      { D.default_config with
        n_servers; n_brokers = 0; underlay = D.Sequencer; dense_clients;
        seed = Int64.of_int seed; trace }
  in
  let c = make_ctx d ~seed ~timed ~warm:1.5 ~gen_end ~until in
  (* One real broker behind a small NIC.  Its egress bound at the classic
     (all-straggler) wire footprint is [nic_bound]; the offered load is
     that bound over 1.3, so the NIC runs hot without a growing backlog. *)
  let wire_per_msg =
    float_of_int
      (Wire.distilled_batch_bytes ~clients:dense_clients ~count:max_batch
         ~msg_bytes:8 ~stragglers:max_batch
       * n_servers)
    /. float_of_int max_batch
  in
  let nic_bound = egress_bps /. 8. /. wire_per_msg in
  let offered = nic_bound /. 1.3 in
  let b =
    D.add_broker d ~region:(List.hd Region.broker_regions)
      ~flush_period:(float_of_int max_batch /. offered)
      ~reduce_timeout:0.05 ~max_batch ~cores:32 ~capacity:0.05 ~egress_bps ()
  in
  let broker = D.broker d b in
  (* Pre-signed raw submissions from fresh dense identities at sequence 0
     (legitimate by definition); the identity range moves with the seed. *)
  (* Poisson arrivals at [offered], binned into 20 ms injection ticks: a
     message is due at the tick that injects it. *)
  let start = 0.2 and dt = 0.02 in
  let rng = Rng.create (Int64.of_int (seed * 31 + 3)) in
  let ticks = int_of_float ((gen_end -. start) /. dt) in
  let per_tick = Array.make ticks 0 in
  let t = ref (Rng.exponential rng ~mean:(1. /. offered)) in
  while !t < float_of_int ticks *. dt do
    let j = int_of_float (!t /. dt) in
    per_tick.(j) <- per_tick.(j) + 1;
    t := !t +. Rng.exponential rng ~mean:(1. /. offered)
  done;
  let total = Array.fold_left ( + ) 0 per_tick in
  let first_id = 1000 + (seed mod 997 * 4096) in
  let subs =
    Array.init total (fun k ->
        let id = first_id + k in
        let kp = Directory.dense_keypair id in
        let msg = encode ~mask:c.mask (key ~member:k ~counter:0) in
        Proto.Submission
          { id; seq = 0; msg;
            tsig = Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq:0 msg);
            evidence = None; ctx = Trace.Ctx.make ~root:id })
  in
  let sent = ref 0 in
  let rec tick j () =
    let now = Engine.now c.engine in
    for _ = 1 to per_tick.(j) do
      Hashtbl.replace c.due (key ~member:!sent ~counter:0) now;
      let sub = subs.(!sent) in
      call c (fun () -> Broker.receive_client broker sub);
      incr sent
    done;
    if j + 1 < ticks then
      schedule c ~kind:c.k_gen ~time:(start +. (float_of_int (j + 1) *. dt)) (tick (j + 1))
  in
  schedule c ~kind:c.k_gen ~time:start (tick 0);
  let p = { server_util = 0.; restart_at = 0.; caught_up_at = 0.; longest_lag = 0. } in
  window_util c p ~live:(fun () -> List.init n_servers Fun.id);
  { ctx = c; probes = p; restarted = None }

let clients ~seed ~trace ~timed =
  let members = 4096 and period = 4.0 and gen_end = 7.0 and until = 16.0 in
  let crash_at = 3.0 and restart_at = 5.0 in
  let n_servers = 4 and victim = 3 in
  let d =
    D.create
      { D.default_config with
        n_servers; n_brokers = 2; underlay = D.Hotstuff;
        dense_clients = 1_000_000; store_enabled = true; checkpoint_every = 64;
        seed = Int64.of_int seed; trace }
  in
  let c = make_ctx d ~seed ~timed ~warm:2.0 ~gen_end ~until in
  let rng = Rng.create (Int64.of_int (seed * 31 + 7)) in
  let coh = add_cohort c ~members ~identity:(fun m -> 1_000_000 - 1 - m) in
  drive_cohort c coh ~rng ~members ~period ~start:0.3;
  let p =
    { server_util = 0.; restart_at; caught_up_at = 0.; longest_lag = 0. }
  in
  window_util c p ~live:(fun () ->
      List.filter (fun i -> i <> victim) (List.init n_servers Fun.id));
  (* A backup crashes, then cold-restarts from its WAL and catches up by
     state transfer.  From the restart on, a 20 ms poll records when it is
     first live with its delivery stream level with server 0's, and the
     longest stretch during which it trails server 0 (see README). *)
  schedule c ~kind:c.k_fault ~time:crash_at (fun () ->
      call c (fun () -> D.crash_server d victim));
  let behind_since = ref restart_at in
  let rec poll () =
    let now = Engine.now c.engine in
    if D.server_catching_up d victim || c.digests.(victim).ops < c.digests.(0).ops
    then p.longest_lag <- Float.max p.longest_lag (now -. !behind_since)
    else begin
      behind_since := now;
      if p.caught_up_at = 0. then p.caught_up_at <- now
    end;
    if now +. 0.02 <= c.until then schedule c ~kind:c.k_probe ~time:(now +. 0.02) poll
  in
  schedule c ~kind:c.k_fault ~time:restart_at (fun () ->
      call c (fun () -> D.restart_server d victim);
      poll ());
  { ctx = c; probes = p; restarted = Some victim }

let build w ~seed ~trace ~timed =
  match w with
  | Distilled -> distilled ~seed ~trace ~timed
  | Classic -> classic ~seed ~trace ~timed
  | Clients -> clients ~seed ~trace ~timed
