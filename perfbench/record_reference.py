"""Write reference.json: period, vertex count and exponents of every gated case.

Usage: PYTHONPATH=src python3 perfbench/record_reference.py

The values come from the spectrum of the loop Jacobian at the assembled
fixed point, which needs no Newton solve, so cases whose ``run_case`` raises
(C18 and D19 at the commit that defined the benchmark) still get reference
values.  Run it only at a commit whose exponents are trusted: the gate exists
to catch a later change to them.
"""

import json

from yexp import spectral, ysys

import workloads


def cases():
    names = [f"{family}{rank}" for family in "ABCD"
             for rank in range(workloads.RANK_FLOOR[family],
                               workloads.FULL["sweep"]["rank_max"] + 1)]
    return names + workloads.FULL["high_rank"]["cases"]


def record(name):
    ep = ysys.assemble_eta(workloads.parse_case(name))
    rep = spectral.spectrum(ep.loop, ep.eta)
    return workloads.case_signature({"period": rep.exponents.period,
                                     "n_vertices": ep.loop.n_vertices,
                                     "exponents": rep.exponents.exponents})


if __name__ == "__main__":
    reference = {name: record(name) for name in cases()}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {len(reference)} cases to {workloads.REFERENCE_PATH}")
