"""Regenerate the golden kernelcheck and cost-model reports.

Run after an *intentional* analyzer or kernel change::

    PYTHONPATH=src:. python -m tests.analysis.regolden

then review the diff — a golden churn you cannot explain is a finding,
not an update.
"""

import json
from pathlib import Path

from repro.analysis.costmodel import derive_cost
from repro.analysis.kernelcheck import analyze_kernel
from repro.kernels import shipped_kernels

GOLDEN_DIR = Path(__file__).parent / "golden"
#: one file pinning ``derive_cost(k).to_dict()`` per shipped kernel
#: (``null`` for kernels without device code)
COST_GOLDEN = GOLDEN_DIR / "cost_models.json"


def cost_reports() -> dict:
    return {
        kernel.name: (m.to_dict() if (m := derive_cost(kernel)) else None)
        for kernel in shipped_kernels()
    }


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for kernel in shipped_kernels():
        path = GOLDEN_DIR / f"{kernel.name}.json"
        path.write_text(
            analyze_kernel(kernel).to_json() + "\n", encoding="utf-8"
        )
        print(f"wrote {path}")
    COST_GOLDEN.write_text(
        json.dumps(cost_reports(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {COST_GOLDEN}")


if __name__ == "__main__":
    main()
