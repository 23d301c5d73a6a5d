"""Command-line front end: thresholds, tradeoff curves, verification suite,
sampling simulation, and operator-compatibility checks.

Exit codes: 0 ok, 1 verification failure or invalid input, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import constructions, lp, separability, simulator, thresholds
from .gates import NOISE_FAMILIES
from .spaces import PovmSet, StateSpaceSpec, operator_compatible, qubit_xyz_povms


def _tolerance_banner(out) -> None:
    print(
        f"tolerances: lp-feasibility={lp.FEASIBILITY_TOL:g} "
        f"positivity={separability.POSITIVITY_TOL:g}",
        file=out,
    )


def _threshold_query(noise: str, space: str, R: float) -> thresholds.ThresholdQuery:
    if space == "cube":
        return thresholds.ThresholdQuery(
            noise, StateSpaceSpec.cube(R), "cube-separable", "worst-vertex"
        )
    return thresholds.ThresholdQuery(
        noise, StateSpaceSpec.sphere(R), "quantum-separable", "sphere-grid"
    )


def _cmd_threshold(args, out) -> int:
    _tolerance_banner(out)
    q = _threshold_query(args.noise, args.space, args.R)
    lam = thresholds.min_noise(q)
    print(f"{lam:.{args.precision}f}", file=out)
    return 0


def _cmd_curve(args, out) -> int:
    _tolerance_banner(out)
    q = _threshold_query(args.noise, args.space, args.r_min)
    points = thresholds.curve(q, args.r_min, args.r_max, args.steps)
    csv = thresholds.curve_to_csv(points)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"wrote {len(points)} points to {args.out}", file=out)
    else:
        out.write(csv)
    return 0


# each bundle's (label, passed, detail) rows, stated beside the quantities
# they check
_VERIFIERS = {
    "appendix1": separability.appendix1_checks,
    "appendix2": lambda: constructions.appendix2_checks().checks(),
    "appendix3": constructions.appendix3_checks,
    "bell": constructions.bell_checks,
    "lemma8": constructions.lemma8_checks,
    "epg-bounds": lambda: constructions.error_per_gate_bounds().checks(),
    "orbit": constructions.orbit_checks,
}


def _cmd_verify(args, out) -> int:
    _tolerance_banner(out)
    rows = _VERIFIERS[args.which]()
    for label, passed, detail in rows:
        print(f"[{'PASS' if passed else 'FAIL'}] {label}{' ' + detail if detail else ''}",
              file=out)
    return 0 if all(passed for _, passed, _ in rows) else 1


def _cmd_simulate(args, out) -> int:
    # a circuit the run must refuse prints nothing, not even the banner
    with open(args.circuit) as fh:
        circuit = simulator.parse_circuit(fh.read())
    if args.compare_dense:
        simulator.check_dense_width(circuit.num_qubits)
    _tolerance_banner(out)
    result = simulator.simulate_hn(circuit, args.shots, args.seed)
    print(f"rng: {result.rng_name} seed: {result.seed} shots: {result.shots}", file=out)
    out.write(simulator.histogram_to_csv(result.histogram))
    if args.compare_dense:
        exact = simulator.simulate_dense(circuit)
        dist = simulator.tvd(result.histogram, exact)
        print(f"tvd_vs_dense: {dist:.6f}", file=out)
    return 0


def _entry(c) -> complex:
    """One POVM entry: a list of exactly two real numbers [re, im]."""
    if (type(c) is not list or len(c) != 2
            or not all(type(x) in (int, float) for x in c)):
        raise TypeError
    return complex(c[0], c[1])


def _load_povms(path: str) -> PovmSet:
    """POVM file: JSON {"dim": d, "povms": [[element...]]} with complex
    entries encoded as [re, im] pairs.  A file of any other shape raises
    ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not {"dim", "povms"} <= data.keys():
        raise ValueError(f"POVM file {path}: expected an object with keys 'dim' and 'povms'")
    dim = data["dim"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"POVM file {path}: 'dim' must be a positive integer; got {dim!r}")
    try:
        povms = tuple(tuple(np.array([[_entry(c) for c in row] for row in m])
                            for m in p) for p in data["povms"])
    except (TypeError, ValueError):     # ValueError: a ragged matrix
        raise ValueError(f"POVM file {path}: each element must be a matrix of "
                         "[re, im] pairs") from None
    return PovmSet(povms, dim)


def _cmd_compat(args, out) -> int:
    _tolerance_banner(out)
    povms = qubit_xyz_povms() if args.povms == "xyz" else _load_povms(args.povms)
    res = operator_compatible(povms)
    if res.compatible:
        print(f"compatible: yes ({len(res.corners)} corner operators)", file=out)
        return 0
    print(f"compatible: no ({res.reason})", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencube",
        description="Noise thresholds and separability for Bloch-cube and "
                    "rescaled-sphere state spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="minimal noise for separability at one R")
    p.add_argument("--noise", required=True, choices=NOISE_FAMILIES)
    p.add_argument("--space", required=True, choices=("cube", "sphere"))
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--precision", type=int, default=6)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("curve", help="threshold as a function of R (CSV)")
    p.add_argument("--noise", required=True, choices=NOISE_FAMILIES)
    p.add_argument("--space", required=True, choices=("cube", "sphere"))
    p.add_argument("--r-min", dest="r_min", type=float, required=True)
    p.add_argument("--r-max", dest="r_max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("verify", help="run a named verification bundle")
    p.add_argument("which", choices=sorted(_VERIFIERS))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="sample a circuit with the HN method")
    p.add_argument("--circuit", required=True)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare-dense", action="store_true")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("compat", help="operator compatibility of a POVM set")
    p.add_argument("--povms", required=True,
                   help="JSON file, or 'xyz' for the Pauli projective set")
    p.set_defaults(fn=_cmd_compat)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (ValueError, OSError, thresholds.ThresholdBracketError,
            simulator.CircuitNotSimulableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
