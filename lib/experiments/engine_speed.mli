(** Engine self-benchmark: calendar queue + event pool vs legacy heap.

    One deterministic queue-churn workload (deep standing queue,
    self-rescheduling dispatches, far-future overflow tail, timer
    create/cancel band) run under both {!Repro_sim.Engine.queue}
    implementations.  Dispatch-order equality (rolling checksum) and
    pool effectiveness ([allocs_per_event]) are deterministic and gated;
    CPU seconds and speedup are machine-dependent and informational —
    except in {!print}, which hard-asserts order equality, pool
    effectiveness, and a 2x median speedup on the quick shape.  The
    queues are timed in interleaved pairs, each run from a compacted
    heap. *)

type result = {
  events : int; (* live dispatches observed (identical across queues) *)
  order_match : bool; (* rolling checksums identical, heap vs calendar *)
  checksum : int;
  heap_cpu_s : float; (* median CPU seconds over the reps, informational *)
  cal_cpu_s : float;
  speedup : float; (* median of the per-pair heap/calendar CPU ratios *)
  speedup_min : float; (* spread of those ratios *)
  speedup_max : float;
  pool_fresh : int; (* calendar run: records ever allocated *)
  pool_reused : int; (* calendar run: allocations served by the pool *)
  allocs_per_event : float; (* fresh / dispatches — the pooling proxy *)
}

val measure : scale:Figures.scale -> result

val print : Format.formatter -> Figures.scale -> unit
