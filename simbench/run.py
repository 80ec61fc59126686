#!/usr/bin/env python3
"""Simulator-cost benchmark for the Chop Chop reproduction.

Builds simbench/simbench.exe with dune, then runs cold rounds of one
workload (one process per round) for --seconds and prints every metric
with its unit; the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 simbench/run.py --workload classic --seed 3 --seconds 20 --trace 0
    python3 simbench/run.py --workload clients --trace 1   # per-layer pass
    python3 simbench/run.py                                # all three workloads
    python3 simbench/run.py --selftest                     # benchmark self-tests

--trace 0 reports the end-to-end metrics (tracing off; host times at the
calibration kernel's reference speed).  --trace 1 runs
the crypto/batch unit-cost phase, then alternates untraced and traced
rounds and reports the per-layer metrics.  Exit status is non-zero when
the build fails or any correctness check fails.  See simbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "simbench", "simbench.exe")
WORKLOADS = ["distilled", "classic", "clients"]
MIN_ROUNDS = 5  # untraced rounds per --trace 0 run, whatever --seconds says
DEADLINE_S = 150  # stop starting rounds after this much wall time
# Host-time end-to-end metrics are expressed at the speed of a machine on
# which one pass of the calibration kernel (simbench/calib.ml) takes this
# long; see README, "Host time and the calibration kernel".
REF_CAL_S = 0.2

END_TO_END = [
    ("host_us_per_msg", "us/msg"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("sim_tput_msg_s", "msg/s"),
    ("sim_lat_p50_s", "s"),
    ("sim_lat_p99_s", "s"),
]

# Per-layer metrics: (name, unit, where the value comes from).
#   layer: traced round's "layers";  gc: untraced round's "gc";
#   units: crypto/batch unit-cost phase;  ratio: computed here.
PER_LAYER = [
    ("engine.events_per_msg", "events/msg", "layer"),
    ("engine.max_pending", "events", "layer"),
    ("engine.pool_fresh_per_event", "ratio", "layer"),
    ("engine.dispatch_us_per_msg", "us/msg", "layer"),
    ("net.msgs_per_msg", "msgs/msg", "layer"),
    ("net.bytes_per_msg", "B/msg", "layer"),
    ("rudp.retx_per_msg", "retx/msg", "layer"),
    ("net.server.dwell_p99_s", "s", "layer"),
    ("net.broker.dwell_p99_s", "s", "layer"),
    ("net.client.dwell_p99_s", "s", "layer"),
    ("server.rx_self_us_per_msg", "us/msg", "layer"),
    ("server.cpu_self_us_per_msg", "us/msg", "layer"),
    ("server.timer_self_us_per_msg", "us/msg", "layer"),
    ("broker.cpu_self_us_per_msg", "us/msg", "layer"),
    ("broker.rx_self_us_per_msg", "us/msg", "layer"),
    ("broker.timer_self_us_per_msg", "us/msg", "layer"),
    ("crypto.verify_ops_per_msg", "ops/msg", "layer"),
    ("broker.distillation_ratio", "ratio", "layer"),
    ("cpu.server_util", "ratio", "layer"),
    ("cpu.broker_busy_s", "s", "layer"),
    ("cohort.rx_self_us_per_msg", "us/msg", "layer"),
    ("cohort.timer_self_us_per_msg", "us/msg", "layer"),
    ("intake.self_us_per_msg", "us/msg", "layer"),
    ("load_broker.inject_self_us_per_msg", "us/msg", "layer"),
    ("stob.view_changes", "count", "layer"),
    ("stob.timer_self_us_per_msg", "us/msg", "layer"),
    ("store.wal_bytes_per_msg", "B/msg", "layer"),
    ("store.disk_self_us_per_msg", "us/msg", "layer"),
    ("store.catchup_sim_s", "s", "layer"),
    ("store.restart_lag_sim_s", "s", "layer"),
    ("phase.submission_p50_s", "s", "layer"),
    ("phase.distillation_p50_s", "s", "layer"),
    ("phase.witnessing_p50_s", "s", "layer"),
    ("phase.ordering_p50_s", "s", "layer"),
    ("phase.delivery_p50_s", "s", "layer"),
    ("phase.ordering_p99_s", "s", "layer"),
    ("prof.attributed_share", "ratio", "layer"),
    ("bench.self_us_per_msg", "us/msg", "layer"),
    ("gc.minor_words_per_msg", "words/msg", "gc"),
    ("gc.promoted_words_per_msg", "words/msg", "gc"),
    ("gc.major_collections", "count", "gc"),
    ("trace.overhead_ratio", "ratio", "ratio"),
    ("crypto.sha256_32b_us", "us", "units"),
    ("crypto.schnorr_sign_us", "us", "units"),
    ("crypto.schnorr_verify_us", "us", "units"),
    ("crypto.schnorr_batch_verify_us_per_sig", "us/sig", "units"),
    ("crypto.merkle_build_us_per_leaf_1024", "us/leaf", "units"),
    ("crypto.merkle_build_us_per_leaf_65536", "us/leaf", "units"),
    ("crypto.merkle_prove_us", "us", "units"),
    ("crypto.merkle_verify_us", "us", "units"),
    ("crypto.multisig_sign_us", "us", "units"),
    ("crypto.multisig_agg_pk_us_per_key", "us/key", "units"),
    ("crypto.multisig_verify_us", "us", "units"),
    ("batch.verify_explicit_us_per_entry", "us/entry", "units"),
    ("batch.verify_dense_us", "us", "units"),
    ("batch.roots_us", "us", "units"),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    dune = shutil.which("dune")
    if dune is None:
        log("simbench: dune not found on PATH")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", "./simbench/simbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    return proc.returncode == 0 and os.path.exists(EXE)


def sim(args, timeout=170):
    """Run simbench.exe once; return its JSON (last stdout line)."""
    proc = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError("simbench.exe %s exited %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_(workload, seed, traced=False):
    args = ["round", "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--traced")
    return sim(args)


def failed_checks(r):
    return ["%s: %s" % (c["name"], c["detail"]) for c in r["checks"] if not c["ok"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (correct, attempted, failed, metrics, notes)."""
    start = time.monotonic()
    notes = []
    units = sim(["units"]) if trace else None
    plain, traced = [], []
    # Untraced rounds are bracketed by calibration passes: round i sits
    # between cals[i] and cals[i + 1].
    cals = [] if trace else [sim(["calibrate"])["cal_s"]]
    while True:
        plain.append(round_(workload, seed))
        if not trace:
            cals.append(sim(["calibrate"])["cal_s"])
        if trace:
            traced.append(round_(workload, seed, traced=True))
        elapsed = time.monotonic() - start
        enough = len(plain) >= (1 if trace else MIN_ROUNDS) and elapsed >= seconds
        if enough or elapsed >= DEADLINE_S:
            break
    rounds = plain + traced
    problems = [p for r in rounds for p in failed_checks(r)]
    # Same seed, same inputs: every round (traced or not) must reproduce the
    # first one's deterministic outputs exactly.
    det0 = rounds[0]["det"]
    for i, r in enumerate(rounds[1:], 1):
        if r["det"] != det0:
            diff = sorted(k for k in det0 if r["det"].get(k) != det0[k])
            problems.append("round %d differs from round 0 on %s" % (i, diff))
    det = det0
    if trace:
        host_plain = median([r["host_s"] for r in plain])
        host_traced = median([r["host_s"] for r in traced])
        metrics = {}
        for name, unit, src in PER_LAYER:
            if src == "layer":
                v = median([r["layers"][name] for r in traced])
            elif src == "gc":
                v = median([r["gc"][name[len("gc."):]] for r in plain])
            elif src == "units":
                v = units[name]["p50"]
            else:
                v = host_traced / host_plain
            metrics[name] = {"value": v, "unit": unit}
        notes.append("rounds: %d untraced + %d traced, host s untraced %s traced %s" % (
            len(plain), len(traced), fmt_list([r["host_s"] for r in plain]),
            fmt_list([r["host_s"] for r in traced])))
        notes.append("crypto/batch unit costs (p25 / p50 / p75):")
        for name, s in units.items():
            notes.append("  %-42s %10.4f %10.4f %10.4f" % (name, s["p25"], s["p50"], s["p75"]))
        notes.append("host time by event kind (last traced round; the benchmark's "
                     "delivery hook is carved out into the last column):")
        kinds = sorted(traced[-1]["kinds"], key=lambda k: -k["wall_s"])
        total = sum(k["wall_s"] + k["own_s"] for k in kinds) or 1.0
        for k in kinds:
            notes.append("  %-16s %9d events %9.4f s %5.1f%%  hook %8.4f s" % (
                k["kind"], k["events"], k["wall_s"], 100 * k["wall_s"] / total, k["own_s"]))
    else:
        speed = [2 * REF_CAL_S / (a + b) for a, b in zip(cals, cals[1:])]
        metrics = {
            "host_us_per_msg": median([r["host_us_per_msg"] * f for r, f in zip(plain, speed)]),
            "setup_s": median([r["setup_s"] * f for r, f in zip(plain, speed)]),
            "peak_heap_mb": median([r["peak_heap_mb"] for r in plain]),
            "sim_tput_msg_s": det["sim_tput_msg_s"],
            "sim_lat_p50_s": det["sim_lat_p50_s"],
            "sim_lat_p99_s": det["sim_lat_p99_s"],
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        notes.append("calibration kernel: %s s; each round's host times above are "
                     "raw x %.3g s / (mean of the passes around it)" % (fmt_list(cals), REF_CAL_S))
        for key in ("host_us_per_msg", "setup_s"):
            xs = [r[key] for r in plain]
            lo, hi = quartiles(xs)
            notes.append("raw %s over %d rounds: %s (quartiles %.4g .. %.4g)" % (
                key, len(xs), fmt_list(xs), lo, hi))
    attempted, failed = det["attempted"], det["failed"]
    notes.append("latency samples: %d (>= 1000 leaves >= 10 above p99)" % det["lat_samples"])
    notes.append("failed_share: %.6f (%d of %d generated messages not delivered exactly "
                 "once at server 0)" % (failed / max(1, attempted), failed, attempted))
    notes.append("delivered at server 0: %d messages; digest %s" % (det["delivered"], det["digest"]))
    return not problems, attempted, failed, metrics, notes + ["CHECK FAILED: " + p for p in problems]


def fmt_list(xs):
    return "[" + ", ".join("%.4g" % x for x in xs) + "]"


def print_report(workload, seed, trace, correct, metrics, notes):
    print("== simbench %s seed %d (%s) ==" % (
        workload, seed, "per-layer, traced" if trace else "end-to-end, untraced"))
    for name, m in metrics.items():
        print("  %-42s %16.6g %s" % (name, m["value"], m["unit"]))
    for n in notes:
        print("  " + n)
    print("  correct: %s" % ("yes" if correct else "NO"))


def selftest():
    """Determinism and accounting self-tests, on the benchmarked workloads."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        print("  %s %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    def deterministic_layers(r):
        return {k: v for k, v in r["layers"].items()
                if not k.endswith("_us_per_msg") and k != "prof.attributed_share"}

    for w in WORKLOADS:
        print("selftest %s" % w)
        a = round_(w, 11, traced=True)
        b = round_(w, 11, traced=True)
        u = round_(w, 11)
        o = round_(w, 12, traced=True)
        for r in (a, b, u, o):
            expect(r["correct"], "checks pass (seed %d, traced %s): %s" % (
                r["seed"], r["traced"], failed_checks(r) or "all"))
        expect(a["det"] == b["det"], "same seed, traced twice: identical sim_*, counts, digests")
        expect(deterministic_layers(a) == deterministic_layers(b),
               "same seed, traced twice: identical deterministic per-layer metrics")
        expect([(k["kind"], k["events"]) for k in a["kinds"]]
               == [(k["kind"], k["events"]) for k in b["kinds"]],
               "same seed, traced twice: identical events per kind")
        expect(a["det"] == u["det"], "profiling is write-only: traced == untraced outputs")
        expect(a["det"]["digest"] != o["det"]["digest"], "another seed changes the digest")
        own = a["det"]["own_events"]
        bench = sum(k["events"] for k in a["kinds"] if k["kind"].startswith("bench."))
        expect(own > 0 and own == bench,
               "bench.* kinds account for all %d benchmark-scheduled events (%d)" % (own, bench))
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not build():
        log("simbench: build failed")
        return 2
    try:
        if a.selftest:
            return 0 if selftest() else 1
        workloads = [a.workload] if a.workload else WORKLOADS
        all_ok, attempted, failed, out = True, 0, 0, {}
        for w in workloads:
            ok, att, fail, metrics, notes = run_workload(w, a.seed, a.seconds, a.trace == 1)
            print_report(w, a.seed, a.trace == 1, ok, metrics, notes)
            all_ok, attempted, failed = all_ok and ok, attempted + att, failed + fail
            if a.workload:
                out = metrics
            else:
                out.update({"%s.%s" % (w, k): v for k, v in metrics.items()})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log("simbench: %s" % e)
        return 1
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
