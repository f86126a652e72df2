"""Clustering-throughput benchmark of the HYBRID-DBSCAN reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit_uniform --seed 1 --seconds 20 --trace 0

Set-up (input generation, client construction, warm-up) runs five
times and ``setup_s`` is its median.  Then one phase of closed-loop
operations runs whole rounds until ``--seconds`` have passed; its wall
times give the end-to-end metrics.  With ``--trace 1`` a second phase
follows with timing shims installed, and the per-layer metrics come
from its spans; the spans are written as Chrome trace-event JSON under
``perfbench/out/``.  After the phases, every operation's labels are
compared with labels from another code path; a mismatch, an exception,
a degraded answer or a rejection counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs for the self-test; figures are not comparable")
    return p.parse_args(argv)


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def provenance(wl, args: argparse.Namespace) -> dict:
    import numpy
    import scipy
    from repro.bench.harness import environment_info

    env = environment_info()
    env.pop("repro_scale")  # the workloads fix their own scale
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": commit(),
        **env,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **wl.provenance(),
    }


def measure(wl, rounds: Iterator, seconds: float, rec=None):
    """Closed loop over whole rounds until ``seconds`` of operation wall
    time have passed and at least ``wl.min_ops`` operations ran."""
    from metrics import Phase, Sample
    from workloads import digest

    phase = Phase(samples=[], wall_s=0.0)
    while phase.wall_s < seconds or phase.attempted < wl.min_ops:
        for op in next(rounds):
            ctx = (
                rec.operation(phase.attempted, wl.op_name)
                if rec is not None and op.key is not None
                else nullcontext()
            )
            t0 = time.perf_counter()
            try:
                with ctx:
                    res = op.run()
            except Exception:  # a failed operation is counted, not fatal
                phase.wall_s += time.perf_counter() - t0
                traceback.print_exc()
                phase.failed += 1
                continue
            dt = time.perf_counter() - t0
            phase.wall_s += dt
            if op.key is not None:
                phase.samples.append(Sample(
                    key=op.key,
                    wall_s=dt,
                    digest=digest(res.labels) if res.labels is not None else None,
                    exact=res.exact,
                    info=res.info,
                ))
    return phase


def check(wl, phases: list) -> None:
    """Compare every operation's labels with the reference labels of its
    variant; runs after all timed phases."""
    from workloads import digest

    refs: dict = {}
    for phase in phases:
        for s in phase.samples:
            if s.key not in refs:
                refs[s.key] = digest(wl.reference(s.key))
            s.ok = s.exact and s.digest == refs[s.key]


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
    from spans import Shims, SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    rounds = wl.rounds()
    phase = measure(wl, rounds, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [phase]
    rec = None
    if args.trace:
        rec = SpanRecorder()
        with Shims(rec):
            phases.append(measure(wl, rounds, args.seconds, rec))
    check(wl, phases)

    if args.trace:
        values, units = per_layer(rec, phases[1], phase.variants_per_s), PER_LAYER
    else:
        values, units = end_to_end(phase, setup_s, peak_rss_mb), END_TO_END
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed + sum(not s.ok for s in p.samples) for p in phases)
    prov = provenance(wl, args)
    prov["ops"] = [len(p.samples) for p in phases]
    p90 = float(np.percentile(phase.walls, 90))
    prov["samples_above_p90"] = sum(w > p90 for w in phase.walls)
    if rec is not None:
        out = HERE / "out" / f"trace_{wl.name}_seed{args.seed}.json"
        rec.write_chrome_trace(out, prov)
        prov["trace_file"] = str(out.relative_to(ROOT))
        prov["layer_self_s"] = {k: round(v, 6) for k, v in rec.layer_self_s().items()}

    print("provenance " + json.dumps(prov))
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
