#!/usr/bin/env python3
"""Regenerate the stored accuracy references in perfbench/references/.

    python3 perfbench/make_references.py [desk-ga] [prod-trace] [eigensolve-prod]

With no argument all three are made. Populations come from the benchmark's own
split-operator (``reference.py``) on the grid, at a quarter of the program's
time step or finer; bound levels come from the package's DVR eigensolver.
Each file records the command; the population files also record the time step
and a self-convergence figure, the same reference at half that step.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads as W  # noqa: E402

COMMAND = "python3 perfbench/make_references.py"


def write(name: str, data: dict):
    path = W.REFERENCES / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"command": COMMAND, **data}, indent=1) + "\n")
    print(f"wrote {path}")


def desk_ga():
    """Fine-dt fitness of every pulse the default seed scores."""
    wl = W.DeskGa(W.DEFAULT_SEED, BENCH / "_work")
    wl.write_inputs()
    rep = wl.execute(BENCH / "_work" / "out" / "make-references", traced=False)
    pulses, seen = [], set()
    for genes, j in wl.scores(rep):
        key = W.key(genes)
        if key not in seen:
            seen.add(key)
            pulses.append({"genes": list(key), "j_program": j,
                           "j_fine": W.desk_reference(genes, wl.REF_DT)})
            print(f"desk-ga pulse {len(pulses)}: |J - J_fine| = "
                  f"{abs(j - pulses[-1]['j_fine']):.3g}", flush=True)
    first = dict(zip(reference.GENES, pulses[0]["genes"]))
    half = W.desk_reference(first, wl.REF_DT / 2)
    write("desk-ga", {
        "seed": W.DEFAULT_SEED, "dt_au": wl.REF_DT, "program_dt_au": 40.0,
        "self_convergence": {"pulse": 1, "dt_au": wl.REF_DT / 2,
                             "abs_diff": abs(half - pulses[0]["j_fine"])},
        "pulses": pulses,
    })


def prod_trace():
    """Fine-dt populations of all bound levels for the default-seed pulse."""
    genes = W.ProdTrace.pulse(W.DEFAULT_SEED)
    cache = BENCH / "_work" / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    dt = W.ProdTrace.REF_DT
    pops = W.prod_reference(genes, dt, cache)
    half = W.prod_reference(genes, dt / 2, cache)
    write("prod-trace", {
        "seed": W.DEFAULT_SEED, "pulse": genes, "dt_au": dt,
        "self_convergence": {"dt_au": dt / 2, "max_abs_diff": float(np.max(np.abs(half - pops)))},
        "populations": pops.tolist(),
    })


def eigensolve_prod():
    """Bound-level energies of the old20 preset."""
    c = W.cli.load_config(None, "old20")
    spec = W.dvr.solve_spectrum(c.grid, c.potential)
    write("eigensolve-prod", {
        "preset": "old20", "grid_points": c.grid.n_points,
        "bound_count": spec.bound_count, "energies": spec.energies.tolist(),
    })


MAKERS = {"desk-ga": desk_ga, "prod-trace": prod_trace, "eigensolve-prod": eigensolve_prod}

if __name__ == "__main__":
    for name in sys.argv[1:] or MAKERS:
        MAKERS[name]()
