"""rodtwin benchmark: one workload per run, end-to-end or traced per layer.

Run from the root of a rodtwin checkout:

    python3 rodbench/run.py --workload roster_train --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``roster_train``, ``sweep_generate`` and
``monitor_stream``. With ``--trace 0`` the run reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it wraps the public functions of the
layer modules (spans.py) and reports the per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
environment and every metric by name with its unit. A failed check makes the
run exit with code 1.

The package is imported from ``src/`` of the checkout and nowhere else, so a
directory without the program fails fast instead of measuring something else.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()  # before numpy, scipy and rodtwin import

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".rodbench"

# Pinned, not inherited from the host: one BLAS thread gave the steadier
# snapshot tail on a 2-core machine, and it never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the classes in workloads.py; named here because that module imports numpy
WORKLOAD_NAMES = ("roster_train", "sweep_generate", "monitor_stream")

# end-to-end metric -> unit; every workload reports each of them
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

# per-layer metric -> (unit, spans, quantity, parent span)
# quantity is "busy", "self", "calls" or a counter read from the return value;
# with a parent span, only the busy time of calls made directly from it
PER_LAYER = {
    "khnet.loss_grad.s": ("s", ("khnet.loss_and_gradients",), "busy", None),
    "khnet.loss_grad.calls": ("count", ("khnet.loss_and_gradients",),
                              "calls", None),
    "khnet.adam.s": ("s", ("khnet.adam_step",), "busy", None),
    "khnet.dense_forward.s": ("s", ("khnet.dense_forward",), "busy",
                              "khnet.train"),
    "khnet.boundary_features.s": ("s", ("khnet.boundary_features",), "busy",
                                  "khnet.train"),
    "khnet.train.self_s": ("s", ("khnet.train",), "self", None),
    "khnet.reconstruct.s": ("s", ("khnet.reconstruct_field",), "busy", None),
    "khnet.reconstruct.calls": ("count", ("khnet.reconstruct_field",),
                                "calls", None),
    "thermomech.stress_field.s": ("s", ("thermomech.stress_field",), "busy",
                                  None),
    "thermomech.slices.calls": ("count", ("thermomech.lame_thermoelastic_slice",
                                          "thermomech.solid_cylinder_slice"),
                                "calls", None),
    "thermomech.hoop_strain.s": ("s", ("thermomech.hoop_strain_summary",),
                                 "busy", None),
    "metrics.compute.s": ("s", ("metrics.compute_metrics",), "busy", None),
    "pipeline.couple.s": ("s", ("pipeline.couple_rod_channel",), "busy", None),
    "pipeline.couple.self_s": ("s", ("pipeline.couple_rod_channel",), "self",
                               None),
    "pipeline.coupling_sweeps": ("count", ("pipeline.couple_rod_channel",),
                                 "pipeline.coupling_sweeps", None),
    "conduction.solve.s": ("s", ("conduction.assemble_and_solve_conduction",),
                           "busy", None),
    "conduction.solve.calls": ("count",
                               ("conduction.assemble_and_solve_conduction",),
                               "calls", None),
    "conduction.picard_sweeps": ("count",
                                 ("conduction.assemble_and_solve_conduction",),
                                 "conduction.picard_sweeps", None),
    "channel.solve.s": ("s", ("channel.solve_channel",), "busy", None),
    "channel.solve.calls": ("count", ("channel.solve_channel",), "calls", None),
    "core.water_properties.calls": ("count", ("core.water_properties",),
                                    "calls", None),
    "core.water_properties.s": ("s", ("core.water_properties",), "busy", None),
    "io.save_dataset.s": ("s", ("io.save_dataset",), "busy", None),
    "io.load_dataset.s": ("s", ("io.load_dataset",), "busy", None),
    "io.save_checkpoint.s": ("s", ("io.save_checkpoint",), "busy", None),
    "io.load_checkpoint.s": ("s", ("io.load_checkpoint",), "busy", None),
}
# measured by the benchmark or derived, not summed from spans
PER_LAYER_EXTRA_UNITS = {
    "io.dataset_bytes": "B",
    "io.checkpoint_bytes": "B",
    "khnet.step_gflops": "GFLOP/s",
    "trace.overhead_frac": "ratio",
}


def pin_blas_threads() -> None:
    """Set the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))


def import_rodtwin():
    """Import rodtwin from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "rodtwin" / "__init__.py").is_file():
        sys.exit(f"rodbench: no rodtwin package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import rodtwin
    if Path(rodtwin.__file__).resolve().parent != (src / "rodtwin").resolve():
        sys.exit(f"rodbench: imported rodtwin from {rodtwin.__file__}, "
                 f"not from {src}")
    return rodtwin


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be queried."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    import rodtwin
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or blas.get("name")
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rodtwin": rodtwin.__version__,
        "blas_build": blas_build,
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _openblas_threads(np),
        "git_commit": _git_commit(ROOT),
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it


def tail(values: list[float]) -> tuple[float, float]:
    """Whole-run tail latency and its percentile.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it: the (n - 10)-th smallest of n values, p(100 (n - 10) / n).
    With TAIL_BEYOND samples or fewer no such percentile exists and the
    result is the maximum (p100).
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, seconds: float, tracer=None) -> dict:
    """Set up, warm up, then run timed operations for ``seconds``.

    With a tracer, set-ups are traced and timed operations alternate traced
    (even index) and untraced (odd), so the per-layer numbers and the tracing
    overhead come from one process.
    """
    setup_s = []
    for j in range(workload.scale.setups):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        with tracer.span("setup") if tracer else nullcontext():
            workload.setup(j)
        setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()

    attempted = failed = 0
    problems: list[str] = []

    def checked(inputs, outputs) -> None:
        nonlocal failed
        found = workload.check(inputs, outputs)
        if found:
            failed += 1
            problems.extend(found)

    for inputs in workload.warmups():
        attempted += 1
        try:
            checked(inputs, workload.run(inputs)[2])
        except Exception:  # a failing operation is counted, not fatal
            failed += 1
            problems.append(traceback.format_exc())

    ops = []  # (latency_s, items, work_s, traced)
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        inputs = workload.prepare(i)
        traced = tracer is not None and i % 2 == 0
        attempted += 1
        try:
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.span("op") if traced else nullcontext():
                    items, work_s, outputs = workload.run(inputs)
                latency = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            ops.append((latency, items, latency if work_s is None else work_s,
                        traced))
            checked(inputs, outputs)
            del outputs  # peak RSS then covers one operation's outputs
        except Exception:  # a failing operation is counted, not fatal
            failed += 1
            problems.append(traceback.format_exc())
        i += 1
    return {"setup_s": setup_s, "ops": ops, "attempted": attempted,
            "failed": failed, "problems": problems}


def end_to_end(run: dict, import_s: float) -> tuple[dict, dict]:
    """End-to-end metric values and the notes printed beside them."""
    ops = run["ops"]
    lat_ms = [1e3 * op[0] for op in ops]
    items = sum(op[1] for op in ops)
    work = sum(op[2] for op in ops)
    tail_ms, pct = tail(lat_ms) if lat_ms else (float("nan"), float("nan"))
    values = {
        "setup_s": import_s + statistics.median(run["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "items_per_s": items / work if work > 0 else float("nan"),
        "op_p50_ms": statistics.median(lat_ms) if lat_ms else float("nan"),
        "op_tail_ms": tail_ms,
    }
    notes = {
        "setup_s": f"imports {import_s:.3f} s + median of "
                   f"{len(run['setup_s'])} set-ups "
                   f"{[round(s, 3) for s in run['setup_s']]}",
        "peak_rss_mb": "peak resident set size of this process",
        "items_per_s": f"{items} items in {work:.3f} s",
        "op_p50_ms": f"median of {len(lat_ms)} operations",
        "op_tail_ms": (f"p{pct:.2f} of {len(lat_ms)} operations, "
                       f"{TAIL_BEYOND} beyond it" if pct < 100 else
                       f"maximum (p100) of {len(lat_ms)} operations"),
    }
    return values, notes


def per_layer(tracer, run: dict, workload) -> tuple[dict, list[str]]:
    """Per-layer values for one set-up plus one timed operation.

    Each value is the total over the traced set-ups divided by their number
    plus the total over the traced operations divided by theirs. Metrics of
    a span that no longer exists are 0 and listed as absent.
    """
    from spans import summarize

    by_root = summarize(tracer.spans, tracer.counts)
    n_setup = len(run["setup_s"])
    traced = [op for op in run["ops"] if op[3]]
    untraced = [op for op in run["ops"] if not op[3]]
    shares = [("setup", n_setup), ("op", len(traced))]

    def total(span: str, quantity: str, parent: str | None) -> float:
        value = 0.0
        for root, count in shares:
            row = by_root.get(root, {}).get(span)
            if not row or not count:
                continue
            got = (row["parents"].get(parent, 0.0) if parent is not None
                   else row.get(quantity, 0))
            value += got / count
        return value

    values, absent = {}, []
    for name, (_, span_names, quantity, parent) in PER_LAYER.items():
        missing = [s for s in span_names if s in tracer.absent]
        if missing:
            absent.append(name)
        values[name] = sum(total(s, quantity, parent) for s in span_names
                           if s not in missing)

    for key in ("io.dataset_bytes", "io.checkpoint_bytes"):
        sizes = workload.io_bytes.get(key, [])
        values[key] = statistics.mean(sizes) if sizes else 0.0

    flops = khnet_step_flops(workload.cfg)
    grad_s = values["khnet.loss_grad.s"]
    values["khnet.step_gflops"] = (flops * values["khnet.loss_grad.calls"]
                                   / grad_s / 1e9 if grad_s > 0 else 0.0)
    if "khnet.loss_grad.s" in absent:
        absent.append("khnet.step_gflops")

    if traced and untraced:
        values["trace.overhead_frac"] = (
            statistics.median(op[0] for op in traced)
            / statistics.median(op[0] for op in untraced) - 1.0)
    else:
        values["trace.overhead_frac"] = 0.0
        absent.append("trace.overhead_frac")
    return values, absent


def khnet_step_flops(cfg) -> float:
    """Computed forward + backward FLOPs of one full Adam step.

    Two dense stacks, each over batch_size x n_sensors rows. Forward: one
    GEMM per layer; backward: a weight GEMM per layer and an input GEMM per
    layer but the first. Elementwise work is not counted.
    """
    from rodtwin.khnet import LAYER_SIZES
    rows = cfg.training.batch_size * len(cfg.sensors.z_fracs)
    layers = list(zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]))
    gemm = sum(2 * fi * fo for fi, fo in layers)
    backward = gemm + sum(2 * fi * fo for fi, fo in layers[1:])
    return 2.0 * rows * (gemm + backward)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def execute(name: str, seed: int, seconds: float, trace: bool,
            import_s: float, scale=None, out=sys.stdout) -> tuple[dict, int]:
    """Run one workload and print its report; returns (result, exit code).

    ``import_s`` is the start-up time charged to ``setup_s``.
    """
    import workloads
    from spans import Tracer

    scale = scale or workloads.NOMINAL
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work_{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[name](scale, seed, workdir)
        tracer = Tracer() if trace else None
        run = measure(workload, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def show(metric, value, unit, note=""):
        print(f"metric {metric} {value!r} {unit}" + (f"  # {note}" if note
                                                      else ""), file=out)

    print("env " + json.dumps(environment(name, seed)), file=out)
    print(f"workload {name}: closed loop, 1 client; item = {workload.item}; "
          f"operation = {workload.operation}; {workload.why}", file=out)
    for key, value in workload.notes.items():
        print(f"property {key} {value!r}", file=out)
    for p in run["problems"]:
        print("FAILED CHECK " + p.rstrip(), file=out)

    if trace:
        values, absent = per_layer(tracer, run, workload)
        units = {k: v[0] for k, v in PER_LAYER.items()}
        units.update(PER_LAYER_EXTRA_UNITS)
        print("per-layer values are per set-up plus per operation; "
              f"absent: {absent or 'none'}", file=out)
        for key, value in values.items():
            show(key, value, units[key], "absent" if key in absent else "")
        tracer_path = OUT_DIR / f"spans_{name}_seed{seed}.jsonl"
        tracer.write(tracer_path)
        print(f"spans {len(tracer.spans)} written to "
              f"{tracer_path.relative_to(ROOT)}", file=out)
    else:
        values, notes = end_to_end(run, import_s)
        units = END_TO_END_UNITS
        for key, value in values.items():
            show(key, value, units[key], notes[key])
        show(workload.rate_name, values["items_per_s"], "1/s",
             "= items_per_s")
        if name == "roster_train":
            epochs = scale.train_epochs
            per_epoch = [op[2] / epochs for op in run["ops"]]
            show("train_s_per_epoch", statistics.median(per_epoch), "s",
                 f"median over {len(per_epoch)} trainings of {epochs} epochs "
                 "each; not extrapolated")
        if name == "monitor_stream":
            show("snapshot_p50_ms", values["op_p50_ms"], "ms", "= op_p50_ms")
            show("snapshot_tail_ms", values["op_tail_ms"], "ms",
                 "= op_tail_ms; " + notes["op_tail_ms"])
    failed_frac = run["failed"] / run["attempted"]
    show("failed_frac", failed_frac, "ratio",
         f"{run['failed']} of {run['attempted']} operations")

    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    print(json.dumps(result), file=out)
    return result, 0 if result["correct"] else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_rodtwin()
    import workloads  # noqa: F401  (numpy, scipy and rodtwin load here)
    import_s = time.perf_counter() - PROCESS_T0
    return execute(args.workload, args.seed, args.seconds, bool(args.trace),
                   import_s)[1]


if __name__ == "__main__":
    sys.exit(main())
