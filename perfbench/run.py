"""Benchmark of the aagd package: time to a certified solution.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports the package from its
``src`` directory, never from an installed copy. A single closed-loop
client runs one operation at a time: after one untimed warm-up
operation, operations repeat for ``--seconds`` and each is checked.
With ``--trace 0`` each phase of a timed operation is bracketed by a
machine-speed reference (see calibration.py) and the end-to-end metrics
are medians over the timed operations, scaled to nominal machine speed.
With ``--trace 1`` untraced and traced operations alternate and the
per-layer metrics come from the traced ones. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in its own child process, one after another.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("quad-certified", "logistic-sparse", "cli-logsumexp")
CHILD_TIMEOUT_S = 900
# share of an operation's time spent on the speed reference at each of its
# four phase boundaries
CALIBRATION_SHARE = 0.025


def bootstrap():
    """Put the checkout's ``src`` first on the path and import the package from it."""
    if not (SRC / "aagd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import aagd

    if not Path(aagd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported aagd from {aagd.__file__}, not from {SRC}")
    return aagd


def _openblas_threads(np):
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(aagd, seed):
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "aagd").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": aagd.BACKEND,
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "seed": seed,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _guarded(op, *args):
    """Run one operation from a collected heap; an exception becomes a failed result."""
    from workloads import OpResult

    gc.collect()
    try:
        return op(*args)
    except Exception as exc:  # the loop must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        return OpResult(0.0, 0.0, 0.0, 0, 0, f"{type(exc).__name__}: {exc}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results):
    """Medians over the operations, times scaled to nominal machine speed."""
    ok = [r for r in results if r.error is None]
    series = {
        "setup_s": [r.setup_s * r.scales[0] for r in ok],
        "solve_s": [r.solve_s * r.scales[1] for r in ok],
        "certify_s": [r.certify_s * r.scales[2] for r in ok],
        "certified_s": [r.setup_s * r.scales[0] + r.solve_s * r.scales[1]
                        + r.certify_s * r.scales[2] for r in ok],
        "iters_per_s": [r.iters / (r.solve_s * r.scales[1]) for r in ok],
        "iters": [r.iters for r in ok],
        "evals": [r.evals for r in ok],
    }
    units = {"setup_s": "s", "solve_s": "s", "certify_s": "s", "certified_s": "s",
             "iters_per_s": "1/s", "iters": "count", "evals": "count"}
    out = {}
    for name, vals in series.items():
        if vals:
            lo, hi = _quartiles(vals)
            out[name] = {"value": statistics.median(vals), "unit": units[name],
                         "q1": lo, "q3": hi, "n": len(vals)}
    out["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB", "n": 1}
    # printed, not gated: on logistic-sparse the seed moves set-up time by a
    # factor of four (power-iteration count), more than any bound allows
    if "certified_s" in out:
        out["certified_s"]["printed_only"] = True
    # unscaled wall times and the speed factors, printed for reference
    for i, name in enumerate(("setup_s", "solve_s", "certify_s")):
        for label, vals, unit in ((f"{name} (unscaled)", [getattr(r, name) for r in ok], "s"),
                                  (f"{name} speed scale", [r.scales[i] for r in ok], "x")):
            if vals:
                lo, hi = _quartiles(vals)
                out[label] = {"value": statistics.median(vals), "unit": unit, "q1": lo,
                              "q3": hi, "n": len(vals), "printed_only": True}
    return out


def traced_sample(workload, untraced, traced, tracer):
    """Per-layer metrics of one traced operation, with its untraced twin for the overhead."""
    import tracing

    if traced.aagd_trace is not None:
        aagd_trace, root, solve_s = traced.aagd_trace, "solve", untraced.solve_s
    else:  # the CLI runs the solver itself: time its traced span
        aagd_trace, root = tracer.notes["aagd_traces"][0], "solver.run"
        solve_s = tracing.SpanTable(tracer.spans).total(root)
    m = tracing.layer_metrics(tracer.spans, tracer.notes, workload.kernel, aagd_trace, root, solve_s)
    m["trace.overhead_s"] = traced.solve_s - untraced.solve_s
    return m


def per_layer(samples, peak_mb):
    """Median of each layer metric over the traced operations."""
    import tracing

    if not samples:
        return {}
    out = {name: {"value": statistics.median(s[name] for s in samples), "n": len(samples)}
           for name in samples[0]}
    out["diagnostics.peak_mb"] = {"value": peak_mb, "n": 1}
    for name, m in out.items():
        m["unit"] = tracing.LAYER_UNITS[name]
    return out


def _certify_peak_mb(results):
    """Peak allocation traced by tracemalloc while one operation's certify phase reruns."""
    ok = [r for r in results if r.error is None and r.recertify is not None]
    if not ok:
        return 0.0
    tracemalloc.start()
    try:
        ok[0].recertify()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _digest_note(name, seed, digest):
    try:
        committed = json.loads((HERE / "digests.json").read_text())[name].get(str(seed))
    except (OSError, KeyError, ValueError):
        committed = None
    if not digest:
        return "trace_digest none"
    if committed is None:
        return f"trace_digest {digest} (no committed value for seed {seed})"
    if committed == digest:
        return f"trace_digest {digest} (matches digests.json)"
    return f"trace_digest {digest} (CHANGED: digests.json has {committed})"


def run_workload(name, seed, seconds, trace):
    aagd = bootstrap()
    sys.path.insert(0, str(HERE))
    import calibration
    import tracing
    from workloads import WORKLOADS

    env = environment(aagd, seed)
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"warning: BLAS uses {env['blas_threads']} threads on {env['nproc']} cores")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            workload = WORKLOADS[name](seed, tmp)
            calibration.warm_up()
            start = perf_counter()
            results = [_guarded(workload.op)]  # warm-up: checked, not timed
            budget = CALIBRATION_SHARE * (perf_counter() - start)
            samples = []
            deadline = perf_counter() + seconds
            while len(results) == 1 or perf_counter() < deadline:
                gauge = None if trace else calibration.Gauge(workload.references, budget)
                untraced = _guarded(workload.op, None, gauge)
                results.append(untraced)
                if not trace:
                    if untraced.error is None:  # a failed operation has no scaled times
                        untraced.scales = gauge.scales()
                    untraced.aagd_trace = untraced.recertify = None  # keep memory flat
                    continue
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    traced = _guarded(workload.op, tracer)
                results.append(traced)
                if untraced.error is None and traced.error is None:
                    samples.append(traced_sample(workload, untraced, traced, tracer))
                untraced.aagd_trace = untraced.recertify = traced.aagd_trace = None
            if trace:
                metrics = per_layer(samples, _certify_peak_mb(results))
            else:
                metrics = end_to_end(results[1:])
    finally:
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED operation: {r.error}")
    digests = sorted({r.digest for r in results if r.error is None})
    print(_digest_note(name, seed, digests[0] if digests else ""))
    if len(digests) > 1:
        print(f"note: trace digests differ between operations of one run: {digests}")
    print(f"fail_ratio {len(failed)}/{len(results)} = {len(failed) / len(results):.4f}")
    _print_table(name, seed, metrics, trace)
    return {
        "correct": not failed and bool(metrics),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()
                    if not v.get("printed_only")},
    }


def _print_table(name, seed, metrics, trace):
    print(f"{name} seed {seed} ({'traced, per layer' if trace else 'end to end'})")
    for key, m in metrics.items():
        spread = ""
        if "q1" in m:
            spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}{spread}  n={m['n']}")
    if trace and metrics:
        v = {k: m["value"] for k, m in metrics.items()}
        label = " (traced)" if name == "cli-logsumexp" else ""
        print("ROADMAP row: | case | us/iter | oracle us/iter | bookkeeping share |")
        print(f"| {name} seed {seed}{label} | {v['solver.us_per_iter']:.0f} "
              f"| {v['solver.oracle_us_per_iter']:.0f} "
              f"| {1.0 - v['solver.oracle_share']:.0%} |")


def run_all(seed, seconds, trace):
    """Each workload in its own child process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
