"""tribound benchmark: run one workload, verify every op, print its metrics.

Usage, from the checkout root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The last stdout line is the JSON result; the lines before
it name every metric with its unit, plus a run record.  --workload all runs
each workload in its own process and prints them all.
"""

import os

# One BLAS thread in the workload process and every child it starts: on a
# 2-core machine two OpenBLAS threads were both slower and noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy
import scipy
from scipy.linalg import LinAlgWarning

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("solve", "plateau", "states", "cli")

# The shared 2-vCPU host the benchmark was defined on runs the same code at
# speeds up to 1.75x apart, per vCPU, in phases from under a second to
# several minutes.  A fixed reference kernel (a pure-Python loop, two
# LAPACK calls on a 100x100 matrix and numpy passes over 6 MB; no tribound
# code) is timed right before and after every op and set-up probe, and the
# op's time is scaled by REF_SECONDS / (mean of the two).  REF_SECONDS is a
# fixed scale, the kernel's fastest times on that host; scaled times compare
# between commits, and read 10-20% below that host's quiet wall times.  The
# memory pass matters: without it the kernel missed part of the slowdown of
# the numpy-heavy `states` op.
REF_SECONDS = 0.0025
REF_LOOP = 10_000
REF_MATRIX = numpy.random.default_rng(0).standard_normal((100, 100))
REF_MATRIX += REF_MATRIX.T
REF_VECTOR = numpy.random.default_rng(1).standard_normal(400_000)
_ref_buffer = numpy.empty_like(REF_VECTOR)   # no temporaries, so peak RSS moves little
# Bound before the traced run wraps these names, so the kernel is never traced.
_ref_eigh, _ref_lu = numpy.linalg.eigh, scipy.linalg.lu_factor

# Fresh-interpreter set-ups per run, spread over the timed loop; setup_s is
# the median of their scaled times.
SETUP_PROBES = 5
# Fresh-interpreter probes per CLI import figure in the traced run.
IMPORT_PROBES = 3
# op_ms.tail is the highest whole percentile with at least this many ops beyond it.
TAIL_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    _ref_eigh(REF_MATRIX)
    _ref_lu(REF_MATRIX)
    numpy.multiply(REF_VECTOR, REF_VECTOR, out=_ref_buffer)
    numpy.exp(_ref_buffer, out=_ref_buffer)
    _ref_buffer.dot(REF_VECTOR)
    return time.perf_counter() - t0


def at_reference_speed(fn):
    """fn() between two reference-kernel timings: its result, and the factor
    that scales times taken meanwhile to the reference speed."""
    before = reference_seconds()
    result = fn()
    return result, 2.0 * REF_SECONDS / (before + reference_seconds())


def probe(code: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter running code, until it prints a line; that line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0:
        raise RuntimeError(f"probe exited with {p.returncode}: {code}")
    return elapsed, line.strip()


class SetupProbes:
    """Interpreter start, import tribound and input generation, in fresh processes.

    Called between ops with the op time so far; probe i runs once the ops
    have taken i/SETUP_PROBES of the run, so their median samples the whole
    run rather than one moment of it.  Times are scaled to reference speed.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
                     f"import tribound, workloads; workloads.WORKLOADS[{workload!r}]({seed})"
                     f".cycle(); print('ready', flush=True)")
        self.seconds = seconds
        self.times: list[float] = []

    def __call__(self, busy: float) -> bool:
        """Run the probes now due; whether any ran."""
        ran = False
        while (len(self.times) < SETUP_PROBES
               and busy >= len(self.times) * self.seconds / SETUP_PROBES):
            (elapsed, _), scale = at_reference_speed(lambda: probe(self.code))
            self.times.append(elapsed * scale)
            ran = True
        return ran

    def finish(self) -> list[float]:
        self(math.inf)
        return self.times


def cli_import_metrics() -> dict[str, float]:
    """Bare interpreter, fresh `import tribound.cli`, and -X importtime cumulatives."""
    interp = [probe("print('ready', flush=True)")[0] for _ in range(IMPORT_PROBES)]
    timed = ("import time; t = time.perf_counter(); import tribound.cli; "
             "print(time.perf_counter() - t, flush=True)")
    imports = [float(probe(timed)[1]) for _ in range(IMPORT_PROBES)]
    cumulative = {"tribound.solver": [], "tribound.oracle": []}
    for _ in range(IMPORT_PROBES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tribound.cli"],
                             capture_output=True, text=True, check=True).stderr
        seen = {}
        for line in err.splitlines():
            parts = [x.strip() for x in line.split("|")]
            if len(parts) == 3 and parts[2] in cumulative:
                seen[parts[2]] = int(parts[1]) / 1e3
        for mod in cumulative:
            cumulative[mod].append(seen.get(mod, 0.0))
    return {
        "cli.interp_ms": 1e3 * statistics.median(interp),
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.import.solver_ms": statistics.median(cumulative["tribound.solver"]),
        "cli.import.oracle_ms": statistics.median(cumulative["tribound.oracle"]),
    }


def attempt(work, fx, op):
    """Run one op; its wall time, None or the reason it counts as failed, its output."""
    t0 = time.perf_counter()
    try:
        out = work.run(op)
    except Exception as exc:   # every failure of the program is counted, not raised
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - t0
    return elapsed, work.check(fx, op, out), out


def timed_loop(work, fx, seconds, rec=None, between=None):
    """Whole seeded cycles, at least one, until the ops have taken `seconds`.

    One record per op, with its wall time and its time scaled to reference
    speed; the reference kernel run after one op also serves as the one
    before the next.  `between(busy)` runs between ops, outside op time,
    and returns whether it did anything.
    """
    records = []
    caught = []
    busy = 0.0
    ref_after = None
    while busy < seconds or not records:
        for op in work.cycle():
            if between is not None and between(busy):
                ref_after = None
            ref_before = ref_after or reference_seconds()
            if rec is None:
                elapsed, problem, out = attempt(work, fx, op)
            else:
                rec.op = len(records)
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter("always")
                    elapsed, problem, out = attempt(work, fx, op)
                rec.warnings[rec.op] += sum(issubclass(w.category, LinAlgWarning) for w in seen)
                caught += seen
            ref_after = reference_seconds()
            scale = 2.0 * REF_SECONDS / (ref_before + ref_after)
            busy += elapsed
            records.append({"label": op.label, "seconds": elapsed, "scaled": elapsed * scale,
                            "error": problem, "rss_kb": getattr(out, "maxrss_kb", 0)})
    for (category, message), n in Counter((w.category.__name__, str(w.message))
                                          for w in caught).items():
        print(f"warning x{n}: {category}: {message}", file=sys.stderr)
    return records, busy


def kind_medians(records) -> dict[str, float]:
    """Median scaled time of each op kind (label) in the run, in seconds.

    Failed ops are left out, so an op that fails fast cannot read as a
    faster kind; a kind that never passed has no entry.
    """
    times = {}
    for r in records:
        if r["error"] is None:
            times.setdefault(r["label"], []).append(r["scaled"])
    return {label: statistics.median(ts) for label, ts in times.items()}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with TAIL_BEYOND of n ops beyond it (50 at least)."""
    return max(50, math.floor(100 * (n - TAIL_BEYOND) / n))


def verifier_self_check(work, fx):
    """The output of one real op, perturbed, must count as failed.

    The perturbation adds 1e-6 to one level (library workloads) or flips
    one byte of the CLI's stdout.  Exits if the verifier accepts it.  Also
    serves as the warm-up op.  Returns the verdicts on the op as run and on
    the perturbed copy.
    """
    op = work.self_check_op()
    _, problem, out = attempt(work, fx, op)
    if problem:
        return {"unperturbed": problem, "perturbed": None}
    refused = work.check(fx, op, work.mutate(op, out))
    if refused is None:
        raise SystemExit(f"verifier self-check: perturbed {op.label} passed verification")
    return {"unperturbed": "pass", "perturbed": refused}


def run_record(args, work, records, self_check):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(records),
        "op_kinds": len({r["label"] for r in records}),
        "tail_percentile": tail_percentile(len(records)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "verifier_self_check": self_check,
    }


def end_to_end(records, busy, setups, work):
    """The BENCHMARK.json metrics, and the figures printed beside them."""
    passed = sum(r["error"] is None for r in records)
    kinds = list(kind_medians(records).values())
    if not kinds:   # no op passed, so the run reads correct=false
        kinds = [statistics.median(r["scaled"] for r in records)]
    if work.name == "cli":
        rss_kb = max(r["rss_kb"] for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "scaled_op_ms.geomean": 1e3 * statistics.geometric_mean(kinds),
        "scaled_ops_per_s": passed / len(records) * len(kinds) / sum(kinds),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    times = [r["seconds"] * 1e3 for r in records]
    tail = tail_percentile(len(times))
    plain = [
        ("reference_speed.p50", statistics.median(r["scaled"] / r["seconds"] for r in records),
         "x"),
        ("op_ms.p50", statistics.median(times), "ms"),
        (f"op_ms.tail (p{tail} of {len(times)} ops)", percentile(times, tail), "ms"),
        ("ops_per_s", passed / busy, "1/s"),
        ("failed_share", (len(records) - passed) / len(records), "share"),
    ]
    return metrics, plain


def traced(args, work, fx):
    """Untraced pass, then the same workload under the wrappers; per-layer metrics."""
    import spans
    half = args.seconds / 2.0
    plain, _ = timed_loop(work, fx, half)
    imports = cli_import_metrics()
    rec = spans.Recorder()
    if work.name == "cli":
        work.recorder = rec
    else:
        rec.install()
    try:
        records, _ = timed_loop(work, fx, half, rec)
    finally:
        rec.uninstall()
        work.recorder = None
    n = len(records)
    metrics = spans.layer_metrics(rec.spans, n, sum(rec.warnings.values()))
    breakdown(records, rec, spans)
    metrics.update(imports)
    metrics["solver.errors"] = sum((r["error"] or "").startswith("SolverError")
                                   for r in records) / n
    ceiling_errors = 0
    if work.name == "solve":
        for op in work.ceiling_ops():
            elapsed, problem, _ = attempt(work, fx, op)
            print(f"ceiling {op.label}: {elapsed:.3f} s, {problem or 'ok'}")
            ceiling_errors += (problem or "").startswith("SolverError")
    metrics["solver.ceiling_errors"] = ceiling_errors
    traced_kinds, plain_kinds = kind_medians(records), kind_medians(plain)
    metrics["trace.overhead_ms"] = 1e3 * statistics.median(
        [traced_kinds[k] - plain_kinds[k] for k in traced_kinds.keys() & plain_kinds.keys()]
        or [0.0])
    rec.dump(OUT / f"spans-{work.name}-seed{args.seed}.jsonl")
    return plain + records, metrics


def breakdown(records, rec, spans):
    """Per op label: mean op time and where it went (stdout, human-readable)."""
    by_label = {}
    for i, r in enumerate(records):
        by_label.setdefault(r["label"], []).append(i)
    for label, ids in sorted(by_label.items()):
        chosen = set(ids)
        sub = [s for s in rec.spans if s[2] in chosen]
        m = spans.layer_metrics(sub, len(ids), sum(rec.warnings[i] for i in ids))
        op_ms = 1e3 * statistics.fmean(records[i]["seconds"] for i in ids)
        stages = m["solver.eigen_ms"] + m["solver.assemble_ms"]
        print(f"breakdown {label}: ops={len(ids)} op_ms={op_ms:.2f} "
              f"eigen_ms={m['solver.eigen_ms']:.2f} assemble_ms={m['solver.assemble_ms']:.2f} "
              f"rule_ms={m['solver.rule_ms']:.2f} lu_calls={m['refine.lu_calls']:g} "
              f"sample_ms={m['wavefunction.sample_ms']:.2f} main_ms={m['cli.main_ms']:.2f} "
              f"(eigen+assemble)/op={stages / op_ms:.3f}")


def run_one(args) -> int:
    if not (SRC / "tribound" / "__init__.py").is_file():
        print(f"error: no tribound sources under {SRC}; run from the checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One CPU for the run and its children, so each op runs on the vCPU
    # whose speed the reference kernel measured next to it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    import tribound
    if Path(tribound.__file__).resolve().parent != (SRC / "tribound").resolve():
        print(f"error: imported tribound from {tribound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import verify
    import workloads

    OUT.mkdir(exist_ok=True)
    fx = verify.Fixtures()
    work = workloads.WORKLOADS[args.workload](args.seed)
    if args.workload == "cli":
        work.out_dir = OUT
    setups = []
    try:
        self_check = verifier_self_check(work, fx)
        if args.trace:
            records, metrics = traced(args, work, fx)
            wanted = spec["per_layer"]
        else:
            prober = SetupProbes(args.workload, args.seed, args.seconds)
            records, busy = timed_loop(work, fx, args.seconds, between=prober)
            setups = prober.finish()
            metrics, plain = end_to_end(records, busy, setups, work)
            wanted = spec["end_to_end"]
            for name, value, unit in plain:
                print(f"{name} = {value:.6g} {unit}")
    finally:
        work.close()
    failed = [r for r in records if r["error"] is not None]
    for r in failed[:5]:
        print(f"failed op {r['label']}: {r['error']}", file=sys.stderr)

    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    record = run_record(args, work, records, self_check)
    record["setup_probes_s"] = setups
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Each BENCHMARK.json workload in its own process; every metric of each,
    by name with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
        rows.append({"workload": name, **result})
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
