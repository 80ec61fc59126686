(* Per-kind engine profiler, installed through the public
   [Engine.set_profiler] hook.  It keeps what [Repro_prof.Prof] keeps —
   events, handler self wall-time and minor words per interned kind — and
   adds a sim-time dwell histogram per kind, which the per-layer report
   needs for the network kinds.  Like [Prof] it is write-only: it never
   schedules, never reads the engine RNG, so a traced round is
   bit-identical to an untraced one.

   [own] is a running total of host seconds the benchmark spent in its
   own code inside handlers (its delivery hook, which runs inside server
   kinds).  Each event's increase is carved out of that event's kind into
   a separate [own] column, so a kind's wall time is the program's alone. *)

module Engine = Repro_sim.Engine
module Hist = Repro_trace.Trace.Hist

type t = {
  engine : Engine.t;
  mutable n : int array;
  mutable wall : float array;
  mutable minor : float array;
  mutable own_wall : float array;
  mutable dwell : Hist.t array;
  own : unit -> float;
  mutable own_seen : float;
  mutable events : int;
  mutable total_wall : float;
}

let ensure t kind =
  let len = Array.length t.n in
  if kind >= len then begin
    let len' = max (2 * len) (kind + 1) in
    let grow a z =
      let b = Array.make len' z in
      Array.blit a 0 b 0 len;
      b
    in
    t.n <- grow t.n 0;
    t.wall <- grow t.wall 0.;
    t.minor <- grow t.minor 0.;
    t.own_wall <- grow t.own_wall 0.;
    t.dwell <- Array.init len' (fun i -> if i < len then t.dwell.(i) else Hist.create ())
  end

let attach engine ~own =
  let t =
    { engine; n = Array.make 64 0; wall = Array.make 64 0.;
      minor = Array.make 64 0.; own_wall = Array.make 64 0.;
      dwell = Array.init 64 (fun _ -> Hist.create ()); own; own_seen = own ();
      events = 0; total_wall = 0. }
  in
  Engine.set_profiler engine
    (Some
       { Engine.prof_clock = Repro_prof.Prof.Clock.now;
         prof_record =
           (fun ~kind ~wall ~minor ~dwell ~depth:_ ->
             ensure t kind;
             let seen = t.own () in
             let own = seen -. t.own_seen in
             t.own_seen <- seen;
             t.n.(kind) <- t.n.(kind) + 1;
             t.wall.(kind) <- t.wall.(kind) +. wall -. own;
             t.own_wall.(kind) <- t.own_wall.(kind) +. own;
             t.minor.(kind) <- t.minor.(kind) +. minor;
             Hist.add t.dwell.(kind) dwell;
             t.events <- t.events + 1;
             t.total_wall <- t.total_wall +. wall) });
  t

let detach t = Engine.set_profiler t.engine None

type row = {
  kind : string;
  events : int;
  wall_s : float; (* program handler time, [own] carved out *)
  own_s : float; (* the benchmark's own time inside this kind's events *)
  minor_words : float;
  dwell : Hist.t;
}

let rows t =
  Engine.kinds t.engine
  |> Array.to_list
  |> List.mapi (fun i name -> (i, name))
  |> List.filter_map (fun (i, name) ->
         if i < Array.length t.n && t.n.(i) > 0 then
           Some
             { kind = name; events = t.n.(i); wall_s = t.wall.(i);
               own_s = t.own_wall.(i); minor_words = t.minor.(i); dwell = t.dwell.(i) }
         else None)

let events (t : t) = t.events
let total_wall (t : t) = t.total_wall

(* Rows whose kind satisfies [p], summed. *)
let sum_where t p =
  List.fold_left
    (fun (n, w) r -> if p r.kind then (n + r.events, w +. r.wall_s) else (n, w))
    (0, 0.) (rows t)

let wall_of t kind = snd (sum_where t (String.equal kind))

let dwell_p99 t kind =
  match List.find_opt (fun r -> r.kind = kind) (rows t) with
  | Some r when Hist.count r.dwell > 0 -> Hist.percentile r.dwell 0.99
  | Some _ | None -> 0.

(* Share of handler self time landing in named kinds (kind 0 is the
   engine's catch-all "other"). *)
let attributed_share t =
  if t.total_wall <= 0. then 1.
  else
    let named =
      List.fold_left
        (fun acc r -> if r.kind <> "other" then acc +. r.wall_s +. r.own_s else acc)
        0. (rows t)
    in
    named /. t.total_wall
