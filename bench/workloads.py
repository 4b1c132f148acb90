"""Seeded workload generator: each workload is an INI config in the CLI format.

The generated file is all the program receives, so a workload can be replayed
outside the benchmark with

    PYTHONPATH=src python3 -m ellcert.cli run <generated.cfg>

Every section carries `seed = <workload seed>` (plus the seed offset, for a
section cut by seed; see below).  The shipped `default.cfg`
relies on the library default seed of 42, so workload seed 42 reproduces the
default suite's `poisson` and `shift` checks exactly.  `qnk-relation` is left
out: it is a non-gating convention probe that FAILs by design.

Checks that loop over independent cases are written as one section per case
(`[poisson-hamiltonians:n4-s2]`; the CLI reads the name before the colon), so
that the benchmark can time each case on its own.  A cut section draws
exactly the inputs the uncut check draws for that case, and its sections run
in the order the check would run them, in one interpreter, so lazily built
caches are shared as before.

Usage: python3 bench/workloads.py <workload> --seed N [--out PATH]
"""

from __future__ import annotations

import argparse
import sys

# Checks at `default.cfg` parameters; a value of {} means the defaults.
POISSON = {
    "poisson-hamiltonians": {"n": "2,3,4", "seeds": 5, "points": 20},
    "poisson-jacobi": {"points": 20},
    "psi2": {"samples": 20},
    "quotient-rule": {"points": 20},
}

SHIFT = {
    "transfer-commute": {"n": "2,3,4,5", "seeds": 5, "samples": 20},
    "sos-commute": {"n": "2,3", "seeds": 3},
    "ttilde-commute": {"p": "2,2", "seeds": 3},
    "transfer-det": {"n": "2,3", "samples": 15},
    "bosonization-rank": {"pairs": "3x1;3x2;4x2;5x2"},
    "fu-commute": {"m": "2,3", "seeds": 3},
    "star-assoc": {"n": "2,3,4"},
    "star-closure": {"n": "2,3,4"},
    "eta-flatness": {"n": 3},
    "sos-ratio": {"n": "2,3"},
}

# No expression trees: determinant backends, plain theta series and Fay,
# scaled up from `default.cfg` so that per-point cost dominates.
DENSE = {
    "cf-commute": {"sizes": "2x2;2x3;3x2;3x3;4x2;4x3", "seeds": 20},
    "cf-triangle": {"sizes": "2x2;2x3;3x2;3x3;4x2", "seeds": 20},
    "delta-family": {"n": 4, "k": 3, "seeds": 20},
    "plucker": {"orders": "2,3,4", "seeds": 200},
    "theta-quasiperiodicity": {"n_max": 8, "points": 2000, "taus": "0.8j;0.3+1.1j"},
    "fay": {"count": 400, "taus": "0.8j;0.3+1.1j"},
    "casimir-diagonal": {"m": "2,3"},
}

WORKLOADS = {"poisson": POISSON, "shift": SHIFT, "dense": DENSE}

# Parameters a check is cut along, outermost first.  A list parameter gives
# one section per value; `seeds` gives one section per seed offset s, with
# `seeds = 1` and `seed = <seed> + s`.  Only loops whose cases draw their
# inputs from nothing but that case are cut, so the cut changes no input.
SPLITS = {
    "poisson-hamiltonians": ("n", "seeds"),
    "transfer-commute": ("n",),
    "sos-commute": ("n",),
    "bosonization-rank": ("pairs",),
    "cf-commute": ("sizes",),
    "cf-triangle": ("sizes",),
    "delta-family": ("seeds",),
    "plucker": ("orders",),
    "theta-quasiperiodicity": ("taus",),
    "fay": ("taus",),
}
LIST_SEPARATOR = {"n": ",", "orders": ",", "sizes": ";", "pairs": ";", "taus": ";"}


def _cut(label, params, seed, key):
    """Cut one (label, params, seed) section along `key`; taus are labelled by position."""
    label = f"{label}-" if label else ""
    if key == "seeds":
        return [(f"{label}s{s}", {**params, "seeds": 1}, seed + s) for s in range(int(params["seeds"]))]
    values = str(params[key]).split(LIST_SEPARATOR[key])
    return [(f"{label}{key}{i if key == 'taus' else v}", {**params, key: v}, seed)
            for i, v in enumerate(values)]


def sections(workload: str, seed: int, scale: float = 1.0,
             cut: bool = True) -> list[tuple[str, dict, int]]:
    """(section name, params, seed) of every section of `workload`, in run order.

    `scale` < 1 shrinks every repetition count (`seeds`, `points`, `count`)
    for smoke tests; the benchmark itself always runs at scale 1.  With
    `cut` false every check is one section, as in `default.cfg`.
    """
    if seed < 0:
        raise ValueError("workload seed must be non-negative")
    out = []
    for name, params in WORKLOADS[workload].items():
        if scale != 1.0:
            params = {k: (max(2, int(v * scale)) if k in ("seeds", "points", "count") else v)
                      for k, v in params.items()}
        parts = [("", params, seed)]
        for key in SPLITS.get(name, ()) if cut else ():
            parts = [cut for part in parts for cut in _cut(*part, key)]
        out += [(f"{name}:{label}" if label else name, p, s) for label, p, s in parts]
    return out


def config_text(workload: str, seed: int, scale: float = 1.0, cut: bool = True) -> str:
    """INI text of `workload` at `seed`; see `sections`."""
    lines = [f"# ellcert benchmark workload {workload!r}, seed {seed}"]
    for section, params, section_seed in sections(workload, seed, scale, cut):
        lines.append("")
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in params.items()]
        lines.append(f"seed = {section_seed}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", help="write here instead of standard output")
    args = ap.parse_args(argv)
    text = config_text(args.workload, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
