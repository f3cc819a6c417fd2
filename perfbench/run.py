"""Benchmark of graphondist: one workload per process, closed loop.

Usage, from the root of a checkout (nothing needs building or installing;
the package is imported from ``src/``)::

    python3 perfbench/run.py --workload field --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run sets up its inputs, then runs whole passes over the workload's fixed
op list, one op after another, until ``--seconds`` have passed and the
workload's minimum number of passes ran.  It sets up again after every
pass, so the reported median set-up time samples the whole run.
Every answer is checked against an independent reference.  The last line
of standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs each workload in its own process, one at a time.
See README.md in this directory for the metrics and the known failures.
"""

from __future__ import annotations

import os

# fixed before numpy loads; more BLAS threads than the machine has cores
# only adds contention, and one thread keeps runs steadier on a shared host
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

# set-ups a run times at least: one before the first pass, one after
# every pass, and more at the end if the passes were fewer
SETUP_REPEATS = 9
# a run stops starting passes after this long, to end well inside 180 s
HARD_STOP_S = 120.0

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "graphondist").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def _import_library():
    """Import graphondist afresh from this checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "graphondist" or m.startswith("graphondist.")]:
        del sys.modules[name]
    gd = importlib.import_module("graphondist")
    gd_cli = importlib.import_module("graphondist.cli")
    if not Path(gd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported graphondist from {gd.__file__}, "
                           f"not from {SRC}")
    return gd, gd_cli


def setup(workload, seed: int, workdir: Path):
    """Import, input generation and graphon construction, timed."""
    t0 = time.perf_counter()
    gd, gd_cli = _import_library()
    prep = workload.prepare(gd, seed, workdir)
    return gd, gd_cli, prep, time.perf_counter() - t0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Passes:
    """Latencies and outcomes of whole passes over an op list."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.known_s = 0.0
        self.failures: list[str] = []
        self.known_by_kind: dict[str, int] = {}
        self.layers: list[dict] = []

    def run_pass(self, ops, tracer=None) -> None:
        state: dict = {}
        cells_read = 0
        cli_bytes = 0
        pass_s = 0.0
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            error = None
            t0 = time.perf_counter()
            try:
                result = op.run(state)
            except Exception as exc:  # every raised error is an outcome
                error = exc
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = None
            pass_s += latency
            self.latencies.append(latency)
            self.by_kind.setdefault(op.kind, []).append(latency)
            self.attempted += 1
            if error is not None:
                if op.known is not None and op.known(error):
                    self.known += 1
                    self.known_s += latency
                    self.known_by_kind[op.kind] = \
                        self.known_by_kind.get(op.kind, 0) + 1
                else:
                    self._fail(op, f"{type(error).__name__}: {error}")
                continue
            try:
                ok = bool(op.check(result, state))
            except Exception as exc:  # a check that cannot read the answer
                ok = False
                error = exc
            if not ok:
                self._fail(op, f"wrong answer ({error!r})" if error
                           else "wrong answer")
                continue
            cells_read += op.cells_read
            if tracer is not None and op.out_dir is not None:
                cli_bytes += _dir_bytes(op.out_dir)
        # the ops' own time: the answer checks are not part of a pass
        self.pass_s.append(pass_s)
        if tracer is not None:
            spans, counters = tracer.take()
            counters["varadhan.field_cells_read"] += cells_read
            counters["cli.bytes_written"] += cli_bytes
            self.layers.append({"spans": spans, "counters": counters})

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.kind}: {message}")


def run_until(passes: Passes, ops, seconds: float, min_passes: int = 1,
              tracer=None, after_pass=None) -> None:
    start = time.perf_counter()
    n0 = len(passes.pass_s)
    while True:
        passes.run_pass(ops, tracer)
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        done = len(passes.pass_s) - n0
        if elapsed >= HARD_STOP_S:
            return
        if elapsed >= seconds and done >= min_passes:
            return


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setup_times, passes: Passes, ops_per_pass: int) -> dict:
    # percentiles over the op list of each op's mean latency across the
    # run's passes: the host switches between a fast and a slow state for
    # seconds at a time, and a mean moves in proportion to the share of
    # slow time, where a percentile over single calls jumps between states
    per_op = np.reshape(passes.latencies, (-1, ops_per_pass)).mean(axis=0)
    op_ms = [float(x) * 1e3 for x in per_op]
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(passes.pass_s),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


# per-layer metric name -> unit; ".calls", ".self_s", ".peak_mb" and ".fail"
# come from the spans of the function named before the suffix
PER_LAYER = {
    "connectivity.block_distance_matrix.calls": "count",
    "connectivity.block_distance_matrix.self_s": "s",
    "connectivity.is_connected.self_s": "s",
    "connectivity.diameter.self_s": "s",
    "connectivity.bfs_levels": "count",
    "connectivity.bfs_flops_computed": "flop",
    "connectivity.support_row_classes": "count",
    "varadhan.distance_field.calls": "count",
    "varadhan.distance_field.self_s": "s",
    "varadhan.distance_field.peak_mb": "MB",
    "varadhan.varadhan_distance.calls": "count",
    "varadhan.varadhan_distance.self_s": "s",
    "varadhan.set_distance.calls": "count",
    "varadhan.set_distance.self_s": "s",
    "varadhan.useful_cell_ratio": "ratio",
    "varadhan.heat_content.calls": "count",
    "varadhan.heat_content.self_s": "s",
    "varadhan.varadhan_slope.fail": "count",
    "varadhan.general_varadhan_slope.calls": "count",
    "varadhan.general_varadhan_slope.self_s": "s",
    "varadhan.general_varadhan_slope.fail": "count",
    "linalg.sym_eig.calls": "count",
    "linalg.sym_eig.self_s": "s",
    "linalg.expm.calls": "count",
    "linalg.expm.self_s": "s",
    "linalg.analytic_transform.calls": "count",
    "linalg.analytic_transform.self_s": "s",
    "linalg.transform_terms": "count",
    "linalg.transform_flops_computed": "flop",
    "metrics.communicability_embedding.self_s": "s",
    "metrics.communicability_distance.self_s": "s",
    "metrics.cut_norm.self_s": "s",
    "metrics.cut_subsets_computed": "count",
    "metrics.cut_distance_homogeneous.self_s": "s",
    "metrics.merge_twins.self_s": "s",
    "metrics.merge_twins.peak_mb": "MB",
    "sampler.sample_graph.calls": "count",
    "sampler.sample_graph.self_s": "s",
    "sampler.sample_graph.peak_mb": "MB",
    "sampler.compare_with_varadhan.self_s": "s",
    "sampler.vertex_pairs_computed": "count",
    "core.comp_power.calls": "count",
    "core.comp_power.self_s": "s",
    "core.evaluate.self_s": "s",
    "core.to_grid.self_s": "s",
    "io.load_graphon.calls": "count",
    "io.load_graphon.self_s": "s",
    "io.builtin_graphon.self_s": "s",
    "io.bytes_read": "bytes",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.fail": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead": "ratio",
}


def _pass_layers(record: dict) -> dict:
    """Per-layer values of one traced pass."""
    spans, counters = record["spans"], record["counters"]
    own = tracing.self_times(spans)
    out: dict = {}
    for span, self_s in zip(spans, own):
        name, failed, peak = span[0], span[5], span[6]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s
        out[name + ".fail"] = out.get(name + ".fail", 0) + int(failed)
        if peak is not None:
            out[name + ".peak_mb"] = max(out.get(name + ".peak_mb", 0.0), peak)
    out.update(counters)
    built = counters.get("connectivity.field_cells_built", 0)
    out["varadhan.useful_cell_ratio"] = (
        counters.get("varadhan.field_cells_read", 0) / built if built else 0.0)
    return out


def per_layer(passes: Passes, untraced: int, row_classes: int) -> dict:
    """Per-layer values from the traced passes, which follow the first
    `untraced` passes of the run."""
    per_pass = [_pass_layers(r) for r in passes.layers]
    values = {}
    for name in PER_LAYER:
        column = [p.get(name, 0) for p in per_pass]
        values[name] = (max(column) if name.endswith(".peak_mb")
                        else statistics.median(column))
    values["connectivity.support_row_classes"] = row_classes
    values["trace.overhead"] = (statistics.median(passes.pass_s[untraced:])
                                / statistics.median(passes.pass_s[:untraced]))
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def _kind_summary(values: list[float]) -> dict:
    """Latency summary of one kind of op over the run."""
    ms = sorted(v * 1e3 for v in values)
    return {"count": len(ms), "p50_ms": statistics.median(ms),
            "max_ms": ms[-1]}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sys.path.insert(0, str(SRC))
        gd, gd_cli, prep, setup_s = setup(workload, seed, workdir)
        setup_times = [setup_s]
        ops = workload.make_ops(gd, gd_cli, prep)
        outcome = Passes()
        spans = None
        if not traced:
            # the host's speed changes within seconds, so the set-ups are
            # spread over the run rather than timed back to back; the ops
            # keep the first set-up's library and graphons
            def set_up_again():
                setup_times.append(setup(workload, seed, workdir)[3])

            run_until(outcome, ops, seconds, workload.min_passes,
                      after_pass=set_up_again)
            while len(setup_times) < SETUP_REPEATS:
                set_up_again()
            metrics = end_to_end(setup_times, outcome, len(ops))
        else:
            # untraced passes first, for the overhead ratio, then traced ones
            run_until(outcome, ops, seconds / 3)
            untraced = len(outcome.pass_s)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_until(outcome, ops, 2 * seconds / 3, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(outcome, untraced,
                                prep.inputs["support_row_classes"])
            spans = [r["spans"] for r in outcome.layers]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    details = {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(traced),
        "environment": environment(),
        "setup_s_samples": setup_times,
        "pass_s_samples": outcome.pass_s,
        "ops_per_pass": len(ops),
        "known_failures": outcome.known,
        "known_failures_by_kind": outcome.known_by_kind,
        "known_failure_share_of_pass_s": outcome.known_s / sum(outcome.pass_s),
        "error_rate": (outcome.failed + outcome.known) / outcome.attempted,
        "failures": outcome.failures,
        "op_kinds": {k: _kind_summary(v)
                     for k, v in sorted(outcome.by_kind.items())},
        "result": result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(traced)}"
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1) + "\n")
    if spans is not None:
        # one row per span: name, start, end, parent index, op id,
        # failed, tracemalloc peak (MB) -- one list per traced pass
        Path(str(stem) + "-spans.json").write_text(json.dumps(spans))
    _print_summary(details)
    return result


def _print_summary(d: dict) -> None:
    r = d["result"]
    print(f"workload {d['workload']}  seed {d['seed']}  "
          f"passes {len(d['pass_s_samples'])}  ops/pass {d['ops_per_pass']}")
    print(f"  attempted {r['attempted']}  failed {r['failed']}  "
          f"known_failures {d['known_failures']}  "
          f"error_rate {d['error_rate']:.4f} ratio "
          f"(({r['failed']} + {d['known_failures']}) / {r['attempted']})  "
          f"known failures take {d['known_failure_share_of_pass_s']:.1%} "
          "of pass time")
    for name, m in r["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for line in d["failures"]:
        print(f"  FAILED {line}")
    print(f"  environment {json.dumps(d['environment'])}")


def run_all(seed: int, seconds: float, trace_flag: int) -> dict:
    """Each workload in a fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace_flag)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphondist" / "__init__.py").is_file():
        print(f"no graphondist sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
