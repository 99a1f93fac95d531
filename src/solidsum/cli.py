"""Command-line driver.

Subcommands load a polytope from JSON, run an evaluator or identity verifier,
and emit machine-readable JSON (or CSV for series).  Exit codes: 0 success,
1 verification failure (residual above tolerance), 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import SolidSumError
from .geometry import polytope_from_json, simple_cone
from .lattice import alpha_polytope_direct
from .macdonald import (
    brianchon_gram_check,
    conjecture_check,
    macdonald_sum,
    macdonald_volume,
    verify_brion,
    verify_cone_reciprocity,
    verify_macdonald,
)
from .oracle import discrete_volume, point_weight
from .transforms import DEFAULT_EPS0, DEFAULT_EPS_LEVELS, DampedSumConfig, default_eps_schedule


def parse_complex_vector(text: str) -> np.ndarray:
    """Parse 're+imi' components, e.g. '0.3+0.2i,-0.1+0.4i'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    vals = []
    for part in parts:
        try:
            vals.append(complex(part.replace("i", "j")))
        except ValueError as exc:
            raise ValueError(f"bad complex component {part!r} (expected 're+imi')") from exc
    return np.asarray(vals, dtype=complex)


def parse_real_vector(text: str) -> np.ndarray:
    return np.asarray([float(p) for p in text.split(",") if p.strip()], dtype=float)


def _parse_t_list(args) -> list:
    if args.t_range:
        # exact decimal arithmetic: each t is start + k step rounded once,
        # and the last one is the largest that does not pass stop
        try:
            start, stop, step = (Fraction(v) for v in args.t_range.split(":"))
        except ValueError as exc:
            raise ValueError("--t-range expects start:stop:step") from exc
        if step <= 0:
            raise ValueError("--t-range step must be positive")
        return [float(start + k * step) for k in range(math.floor((stop - start) / step) + 1)]
    if args.t is None:
        raise ValueError("one of --t or --t-range is required")
    return [float(v) for v in str(args.t).split(",")]


def _identity_payload(report) -> dict:
    """Verification report record: identity, inputs, residual, tolerance, pass."""
    return {
        "identity": report.identity,
        "inputs": report.inputs,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "residual": report.residual,
        "tolerance": report.tolerance,
        "pass": report.passed,
        "details": report.details,
    }


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit(args, payload, csv_rows=None, csv_header=None) -> None:
    """Write JSON, or CSV when the command passes rows and ``--format csv``."""
    if csv_rows is not None and args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cfg_from_args(args) -> DampedSumConfig:
    return DampedSumConfig(p=args.p, eps_schedule=default_eps_schedule(args.eps0, args.eps_levels),
                           truncation_radius=args.radius)


def _load(args):
    return polytope_from_json(args.polytope)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; each registers only the flags its handler
    reads, through the shared flag groups below."""
    parser = argparse.ArgumentParser(
        prog="solidsum",
        description="Generalized l^p solid-angle sums over real convex polytopes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def group(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    def command(name, parents, summary):
        # no prefix matching: a flag a command does not take must be an error,
        # not an abbreviation of another flag (brianchon-gram --p -> --polytope)
        return subs.add_parser(name, parents=parents + [out], help=summary, allow_abbrev=False)

    out = group()
    out.add_argument("--output", default=None, help="output file (default: stdout)")
    poly = group()
    poly.add_argument("--polytope", required=True, help="path to a polytope JSON file")
    norm = group()
    norm.add_argument("--p", type=float, default=2.0, help="l^p norm parameter (default 2)")
    seed = group()
    seed.add_argument("--seed", type=int, default=0, help="RNG seed for Monte Carlo paths")
    mc = group(norm, seed)
    mc.add_argument("--samples", type=int, default=20_000, help="Monte Carlo sample count")
    damped = group(norm)
    damped.add_argument("--eps0", type=float, default=DEFAULT_EPS0,
                        help=f"largest damping level (default {DEFAULT_EPS0})")
    damped.add_argument("--eps-levels", type=int, default=DEFAULT_EPS_LEVELS,
                        help=f"number of damping levels, halved each step (default {DEFAULT_EPS_LEVELS})")
    damped.add_argument("--radius", type=int, default=None,
                        help="sup-norm lattice cutoff R, an integer (default: the smallest R >= 30 "
                             "with pi eps R^2 >= 36 at each level)")

    sp = command("solid-angle", [poly, mc], "solid angle of a point with respect to a polytope")
    sp.add_argument("--x", required=True, help="evaluation point, e.g. '0,0'")

    sp = command("alpha", [poly, mc], "solid-angle generating sum over the polytope's lattice points")
    sp.add_argument("--s", required=True, help="complex argument, components 're+imi'")

    sp = command("macdonald", [poly, damped],
                 "dilation solid-angle sum (with --s) or its s->0 limit")
    sp.add_argument("--t", required=True, type=float, help="dilation factor")
    sp.add_argument("--s", default=None, help="complex argument; omit to take the s->0 limit")

    sp = command("macdonald-series", [poly, damped], "discrete volume over a range of dilations")
    sp.add_argument("--t", default=None, help="comma-separated dilations")
    sp.add_argument("--t-range", default=None, help="start:stop:step")
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = command("verify-reciprocity", [damped], "cone reciprocity residual")
    sp.add_argument("--apex", default=None, help="cone apex (default origin)")
    sp.add_argument("--generators", default=None,
                    help="semicolon-separated generator rows, e.g. '1,0;0,1' (default identity)")
    sp.add_argument("--shift", default=None, help="apex shift vector (default 0)")
    sp.add_argument("--s", required=True)
    sp.add_argument("--tolerance", type=float, default=1e-5)

    sp = command("verify-brion", [poly, damped], "Brion identity residual")
    sp.add_argument("--s", required=True)
    sp.add_argument("--tolerance", type=float, default=1e-4)

    sp = command("verify-macdonald", [poly, damped], "dilation reciprocity residual")
    sp.add_argument("--t", required=True, type=float)
    sp.add_argument("--s", required=True)
    sp.add_argument("--tolerance", type=float, default=1e-5)

    sp = command("brianchon-gram", [poly, seed], "indicator identity spot check")
    sp.add_argument("--n-points", type=int, default=100)

    sp = command("conjecture", [poly, damped], "discrete volume at t = 0")
    sp.add_argument("--tolerance", type=float, default=1e-3)

    sp = command("oracle", [poly, mc], "brute-force discrete volume")
    sp.add_argument("--t", required=True, type=float)
    sp.add_argument("--keep-weights", action="store_true")

    return parser


def _cmd_solid_angle(args) -> int:
    P = _load(args)
    x = parse_real_vector(args.x)
    value, se = point_weight(P, 1.0, x, p=args.p, n_samples=args.samples, seed=args.seed)
    _emit(args, {"value": value, "std_error": se, "x": x.tolist(), "p": args.p})
    return 0


def _cmd_alpha(args) -> int:
    P = _load(args)
    est = alpha_polytope_direct(P, parse_complex_vector(args.s), p=args.p,
                                n_samples=args.samples, seed=args.seed)
    _emit(args, {"value": est.value, "std_error": est.error})
    return 0


def _cmd_macdonald(args) -> int:
    P = _load(args)
    cfg = _cfg_from_args(args)
    if args.s:
        ev = macdonald_sum(P, args.t, parse_complex_vector(args.s), cfg)
        _emit(args, {"t": ev.t, "s": list(ev.s), "value": ev.value, "error": ev.error,
                     "per_vertex": [{"vertex": list(v), "partial": c} for v, c in ev.per_vertex]})
    else:
        est = macdonald_volume(P, args.t, cfg=cfg)
        _emit(args, {"t": args.t, "value": est.value, "error": est.error})
    return 0


def _cmd_macdonald_series(args) -> int:
    P = _load(args)
    cfg = _cfg_from_args(args)
    rows = []
    for t in _parse_t_list(args):
        est = macdonald_volume(P, t, cfg=cfg)
        rows.append((t, float(np.real(est.value)), est.error))
    payload = [{"t": t, "value": v, "error": e} for t, v, e in rows]
    _emit(args, payload, csv_rows=rows, csv_header=("t", "value", "error"))
    return 0


def _cmd_verify_reciprocity(args) -> int:
    s = parse_complex_vector(args.s)
    d = s.size
    if args.generators:
        gens = np.array([parse_real_vector(row) for row in args.generators.split(";")])
    else:
        gens = np.eye(d)
    apex = parse_real_vector(args.apex) if args.apex else np.zeros(d)
    shift = parse_real_vector(args.shift) if args.shift else np.zeros(d)
    report = verify_cone_reciprocity(simple_cone(apex, gens), shift, s,
                                     _cfg_from_args(args), tolerance=args.tolerance)
    _emit(args, _identity_payload(report))
    return 0 if report.passed else 1


def _cmd_verify_brion(args) -> int:
    report = verify_brion(_load(args), parse_complex_vector(args.s), _cfg_from_args(args),
                          tolerance=args.tolerance)
    _emit(args, _identity_payload(report))
    return 0 if report.passed else 1


def _cmd_verify_macdonald(args) -> int:
    report = verify_macdonald(_load(args), args.t, parse_complex_vector(args.s),
                              _cfg_from_args(args), tolerance=args.tolerance)
    _emit(args, _identity_payload(report))
    return 0 if report.passed else 1


def _cmd_brianchon_gram(args) -> int:
    result = brianchon_gram_check(_load(args), n_points=args.n_points, seed=args.seed)
    _emit(args, {"identity": "brianchon_gram",
                 "inputs": {"polytope": args.polytope, "n_points": args.n_points,
                            "seed": args.seed},
                 "residual": float(result.n_failures), "tolerance": 0.0,
                 "pass": result.passed,
                 "counterexamples": list(result.counterexamples)})
    return 0 if result.passed else 1


def _cmd_conjecture(args) -> int:
    est = conjecture_check(_load(args), cfg=_cfg_from_args(args))
    passed = abs(est.value) < args.tolerance
    _emit(args, {"identity": "zero_at_origin", "value": est.value, "error": est.error,
                 "residual": abs(float(np.real(est.value))), "tolerance": args.tolerance,
                 "pass": bool(passed)})
    return 0 if passed else 1


def _cmd_oracle(args) -> int:
    result = discrete_volume(_load(args), args.t, p=args.p, n_samples=args.samples,
                             seed=args.seed, keep_weights=args.keep_weights)
    _emit(args, result)
    return 0


_COMMANDS = {
    "solid-angle": _cmd_solid_angle,
    "alpha": _cmd_alpha,
    "macdonald": _cmd_macdonald,
    "macdonald-series": _cmd_macdonald_series,
    "verify-reciprocity": _cmd_verify_reciprocity,
    "verify-brion": _cmd_verify_brion,
    "verify-macdonald": _cmd_verify_macdonald,
    "brianchon-gram": _cmd_brianchon_gram,
    "conjecture": _cmd_conjecture,
    "oracle": _cmd_oracle,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SolidSumError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"solidsum: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
