"""Self-test of the benchmark on a tiny configuration (coarse mesh, one epoch,
a fraction of a second per workload). Run from the root of the checkout:

    python3 rodbench/selftest.py

It asserts that
1. every metric named in BENCHMARK.json is printed with its unit, on every
   workload, untraced and traced;
2. outputs corrupted on purpose trip each workload's checks and make the run
   exit non-zero;
3. a wrapped function that no longer exists yields an absent span and an
   absent metric instead of an error.
"""

from __future__ import annotations

import dataclasses
import io as stdio
import json
import sys
from contextlib import contextmanager

import run as bench

SECONDS = 0.2


@contextmanager
def patched(obj, attr, value):
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


def execute(name: str, trace: bool):
    import workloads
    out = stdio.StringIO()
    result, code = bench.execute(name, seed=0, seconds=SECONDS, trace=trace,
                                 import_s=0.0, scale=workloads.TINY, out=out)
    return result, code, out.getvalue()


def check_metric_names(spec: dict) -> None:
    import workloads
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, code, text = execute(name, trace)
            assert code == 0 and result["correct"], (name, trace, text)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, key, got, expected)
            printed = {tuple(line.split()[1:4:2]) for line in text.splitlines()
                       if line.startswith("metric ")}
            for metric, unit in expected.items():
                assert (metric, unit) in printed, (name, metric, unit)
            assert json.loads(text.splitlines()[-1]) == result
            print(f"ok   {name} trace={int(trace)}: "
                  f"{len(expected)} metrics printed with units")


def check_corruption_trips() -> None:
    import numpy as np
    from rodtwin import io, khnet

    real_reconstruct = khnet.reconstruct_field
    real_load = io.load_dataset

    def hot_field(*args, **kwargs):
        field = real_reconstruct(*args, **kwargs)
        return dataclasses.replace(field, T_fuel=field.T_fuel + 500.0,
                                   T_clad=field.T_clad + 500.0)

    def nan_field(*args, **kwargs):
        field = real_reconstruct(*args, **kwargs)
        T_clad = field.T_clad.copy()
        T_clad[0, 0] = float("nan")
        return dataclasses.replace(field, T_clad=T_clad)

    def nudged_dataset(path):
        ds = real_load(path)
        case = ds.cases[0]
        T = case.T.copy()
        T[0] = np.nextafter(T[0], np.inf)
        cases = [dataclasses.replace(case, T=T)] + ds.cases[1:]
        return dataclasses.replace(ds, cases=cases)

    corruptions = (
        ("roster_train", khnet, "reconstruct_field", hot_field),
        ("monitor_stream", khnet, "reconstruct_field", hot_field),
        ("monitor_stream", khnet, "reconstruct_field", nan_field),
        ("sweep_generate", io, "load_dataset", nudged_dataset),
    )
    for name, module, attr, fake in corruptions:
        with patched(module, attr, fake):
            result, code, text = execute(name, trace=False)
        assert code != 0 and not result["correct"] and result["failed"] > 0, \
            (name, fake.__name__, text)
        assert "FAILED CHECK" in text
        print(f"ok   {name}: {fake.__name__} tripped "
              f"{result['failed']} of {result['attempted']} checks")


def check_absent_span() -> None:
    import spans
    targets = dict(spans.TARGETS)
    targets["khnet"] = targets["khnet"] + ("no_such_function",)
    layer = dict(bench.PER_LAYER)
    layer["khnet.no_such.s"] = ("s", ("khnet.no_such_function",), "busy",
                                None)
    with patched(spans, "TARGETS", targets), \
            patched(bench, "PER_LAYER", layer):
        result, code, text = execute("monitor_stream", trace=True)
    assert code == 0, text
    assert result["metrics"]["khnet.no_such.s"]["value"] == 0.0
    assert any(line.startswith("metric khnet.no_such.s ")
               and line.endswith("# absent") for line in text.splitlines())
    print("ok   a missing wrapped function is reported as an absent span")


def main() -> int:
    bench.pin_blas_threads()
    bench.import_rodtwin()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_corruption_trips()
    check_absent_span()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
