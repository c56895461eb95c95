"""toriccontact benchmark: one workload per run, closed loop, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

Workloads: reduce, join, extremal, cli (see perfbench/README.md for why each
exists and which layer it stresses).  Ops run back to back, each starting when
the previous one returns, in whole cycles until the ops' busy time reaches
--seconds.  Every op is checked outside its timed span.  With --trace 0 the
last stdout line carries the end-to-end metrics, with times at the reference
host speed (see hostspeed.py); with --trace 1 each op runs
once plain and once traced (order alternating) and the line carries the
per-layer metrics.  A JSON run record with every raw sample is written to
perfbench/records/.  --held-out draws a fresh seed, printed and recorded, to
re-check a claim on inputs not used while it was developed.
"""

import sys

sys.dont_write_bytecode = True  # leave no bytecode caches, in the checkout or elsewhere

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import time
from pathlib import Path

import hostspeed
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
OP_DEADLINE_S = 20.0


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so library code cannot swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def timed_op(wl, spec, ctx, deadline):
    """Run one op under a deadline; returns (output, error or None, seconds)."""
    if wl.in_process:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        out, err = wl.run(spec, ctx), None
    except DeadlineExceeded:
        out, err = None, f"missed its {deadline:g} s deadline"
    except Exception as exc:  # any exception fails the op, LinAlgError included
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if wl.in_process:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, err, dt


def checked(wl, spec, out, err):
    if err is not None:
        return err
    try:
        return wl.check(spec, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def cycle_rng(seed, index):
    return random.Random(f"toriccontact-bench/{seed}/{index}")


def setup(wl, seed):
    """Import, input generation and warm-up; returns (seconds, first cycle)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    wl.load()
    first = wl.cycle(cycle_rng(seed, 0))
    for spec in wl.cycle(cycle_rng(seed, "warm-up"))[: wl.warmup_ops]:
        timed_op(wl, spec, {}, OP_DEADLINE_S)
    return time.perf_counter() - t0, first


def child_setup_sample(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"setup sample failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_loop(wl, seed, seconds, first, tracer, norm):
    """Whole cycles until busy time >= seconds; returns samples and failures."""
    latencies, failures, kinds = [], [], []
    busy, index, specs = 0.0, 0, first
    while True:
        ctx, plain_ctx = {}, {}
        for spec in specs:
            if tracer is None:
                out, err, dt = timed_op(wl, spec, ctx, OP_DEADLINE_S)
            else:
                traced_first = len(latencies) % 2 == 1
                for traced in (traced_first, not traced_first):
                    if traced:
                        with tracer.installed():
                            out, err, dt = timed_op(wl, spec, ctx, OP_DEADLINE_S)
                        tracer.traced_s += dt
                    else:
                        _, _, plain = timed_op(wl, spec, plain_ctx, OP_DEADLINE_S)
                        tracer.untraced_s += plain
            busy += dt
            latencies.append(dt)
            norm.add(dt)
            kinds.append(spec["kind"])
            reason = checked(wl, spec, out, err)
            if reason is not None:
                failures.append({"op": len(latencies) - 1, "kind": spec["kind"],
                                 "error": reason})
        index += 1
        if busy >= seconds:
            norm.flush()
            return latencies, kinds, failures, busy
        specs = wl.cycle(cycle_rng(seed, index))


def run_probes(wl, seed):
    """Inputs that hit known defects, untimed, each under its deadline."""
    results = []
    for spec, deadline in wl.probes(cycle_rng(seed, "probe")):
        out, err, dt = timed_op(wl, spec, {}, deadline)
        reason = checked(wl, spec, out, err)
        results.append({"kind": spec["kind"], "seconds": dt, "error": reason})
    return results


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy
    import sympy

    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="ignore --seed and draw a fresh one (recorded)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s samples)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toriccontact" / "__init__.py").is_file():
        print(f"perfbench: no toriccontact sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    seed = int.from_bytes(os.urandom(4), "little") if args.held_out else args.seed
    signal.signal(signal.SIGALRM, _alarm)
    wl = WORKLOADS[args.workload](ROOT)

    if args.setup_only:
        print(json.dumps({"setup_s": setup(wl, seed)[0]}))
        return 0

    setup_s, first = setup(wl, seed)
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [child_setup_sample(args.workload, seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    tracer = Tracer(patch_library=wl.in_process) if args.trace else None
    wl.tracer = tracer
    norm = hostspeed.Normalizer(hostspeed.CPU_KERNEL if wl.in_process
                                else hostspeed.COLD_SPAWN)
    latencies, kinds, failures, busy = run_loop(wl, seed, args.seconds, first, tracer, norm)
    normalized = norm.normalized
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                               else resource.RUSAGE_CHILDREN)
    probes = run_probes(wl, seed)
    probe_failures = [p for p in probes if p["error"] is not None]
    for p in probe_failures:
        p["known_defect"] = wl.known_defect(p["error"])
    attempted, failed = len(latencies), len(failures)
    p90 = quantile(normalized, 90)
    if args.trace:
        fail_ratio = (failed + len(probe_failures)) / (attempted + len(probes))
        metrics = tracer.metrics(attempted, fail_ratio, len(probe_failures))
    else:
        metrics = {
            "ops_per_s": {"value": attempted / sum(normalized), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(normalized), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
            "peak_rss_mb": {"value": usage.ru_maxrss / 1024, "unit": "MB"},
            # One calibration point right after a set-up proved noisier than
            # the set-up itself, so set-ups use the run's median speed factor.
            "setup_s": {"value": statistics.median(setup_samples)
                        / statistics.median(norm.factors), "unit": "s"},
        }

    record = {
        "workload": args.workload, "seed": seed, "held_out": args.held_out,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "sizes": {"ops": attempted, "cycles": attempted // len(first),
                  "ops_per_cycle": len(first), "busy_s": busy,
                  "samples_beyond_p90": sum(1 for x in normalized if x > p90)},
        "reference": {"measure": norm.measure.__name__, "nominal_s": norm.nominal_s},
        "speed_factors": norm.factors,
        "setup_samples_s": setup_samples,
        "latencies_s": latencies, "normalized_latencies_s": normalized, "kinds": kinds,
        "failures": failures, "probes": probes, "metrics": metrics,
    }
    out_dir = HERE / "records"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{seed}-trace{args.trace}-{time.time_ns()}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload}: seed {seed}, {attempted} ops in {busy:.2f} s busy, "
          f"{failed} failed; record perfbench/records/{name}")
    for f in failures:
        print(f"  FAILED op {f['op']} ({f['kind']}): {f['error']}")
    for p in probes:
        status = "ok" if p["error"] is None else (
            f"{'known defect' if p['known_defect'] else 'FAILED'}: {p['error']}")
        print(f"  probe {p['kind']} ({p['seconds']:.2f} s): {status}")
    correct = failed == 0 and all(p["known_defect"] for p in probe_failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
