"""Command-line front end.

Subcommands: ``adjoint``, ``conjugacy``, ``current``, ``verify``, ``dirac``,
``reproduce``, ``list``.  Exit code 0 only if every requested check passes,
so runs can gate CI.  Identical inputs and seeds produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _print_json(report):
    from .scenario import _json_default

    print(json.dumps(report, indent=2, sort_keys=True, default=_json_default))


def _seed(text):
    """The ``--seed`` value: an integer >= 0, like a scenario's ``seed``."""
    from .scenario import _parse_seed

    try:
        return _parse_seed(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_adjoint(args):
    from .adjoint import classify_adjointness, formal_adjoint, semi_conjugacy_solve, SemiConjugacyNotFound
    from .catalog import build_operator
    from .dsl import format_operator

    L = build_operator(args.operator)
    Ls = formal_adjoint(L)
    print(f"operator : {format_operator(L)}")
    print(f"adjoint  : {format_operator(Ls)}")
    print(f"class    : {classify_adjointness(L)}")
    try:
        pair = semi_conjugacy_solve(L, seed=args.seed or 0)
    except SemiConjugacyNotFound as exc:
        print(f"conjugating pair: not found ({exc})")
        return 1
    kind = "parity-free" if pair.sign_absorbed else "with full reflection"
    print(f"conjugating pair ({kind}), residual {pair.residual:.2e}:")
    print(f"A1 = {np.array2string(pair.A1, precision=6, suppress_small=True)}")
    print(f"A2 = {np.array2string(pair.A2, precision=6, suppress_small=True)}")
    return 0


def _cmd_conjugacy(args):
    from .adjoint import adjoint_factorization, semi_conjugacy_solve, SemiConjugacyNotFound
    from .catalog import build_operator

    L = build_operator(args.operator)
    seed = args.seed or 0
    try:
        pair = semi_conjugacy_solve(L, seed=seed)
    except SemiConjugacyNotFound as exc:
        print(f"not found: {exc}")
        return 1
    fact = adjoint_factorization(L, pair)
    report = {
        "parity_mask": list(pair.parity_mask),
        "coefficient_residual": pair.residual,
        "symbol_identity_residual": fact.symbol_residual,
        "A1": [[str(x) for x in row] for row in pair.A1],
        "A2": [[str(x) for x in row] for row in pair.A2],
        "seed": seed,
    }
    _print_json(report)
    return 0


def _cmd_current(args):
    from .catalog import build_operator
    from .current import concomitant_flux
    from .dsl import VAR_NAMES

    L = build_operator(args.operator)
    flux = concomitant_flux(L)
    defect = flux.divergence_defect(L)
    if args.json:
        report = {
            "divergence_defect": defect,
            "components": [
                [
                    {"q_jet": list(beta), "q_comp": i, "p_jet": list(gamma), "p_comp": j,
                     "coeff": str(c)}
                    for (beta, i, gamma, j), c in sorted(comp.items())
                ]
                for comp in flux.components
            ],
        }
        _print_json(report)
        return 0 if defect == 0.0 else 1
    print(f"divergence defect: {defect:.3e}")
    for v, comp in enumerate(flux.components):
        if not comp:
            continue
        print(f"X^{VAR_NAMES[v]}:")
        for (beta, i, gamma, j), c in sorted(comp.items()):
            def jet(label, idx, alpha):
                d = "".join(
                    f" d{VAR_NAMES[s]}" * e for s, e in enumerate(alpha) if e
                )
                return f"{label}{idx + 1}{d}" if d else f"{label}{idx + 1}"

            cc = f"{c}" if c != 1 else ""
            print(f"  {cc:>18}  {jet('Q', i, beta)} * {jet('P', j, gamma)}")
    return 0 if defect == 0.0 else 1


def _cmd_verify(args):
    import dataclasses

    from .scenario import load_scenario, run_scenario

    scn = load_scenario(args.scenario)
    if args.seed is not None:
        scn = dataclasses.replace(scn, seed=args.seed)
    report = run_scenario(scn, out_dir=args.out_dir)
    _print_json(report)
    return 0 if report["pass"] else 1


def _cmd_dirac(args):
    from .dirac import dirac_suite

    report = dirac_suite(fast=args.fast)
    _print_json(report)
    return 0 if report["pass"] else 1


def _cmd_reproduce(args):
    from .scenario import reproduce, reproductions

    if args.name == "all":
        ok = True
        for name in sorted(reproductions()):
            report = reproduce(name, out_dir=args.out_dir)
            passed = report["pass"]
            ok &= passed
            print(f"[{'PASS' if passed else 'FAIL'}] {name:26s} {report['certifies']}")
        return 0 if ok else 1
    report = reproduce(args.name, out_dir=args.out_dir)
    _print_json(report)
    print(f"certifies: {report['certifies']}", file=sys.stderr)
    return 0 if report["pass"] else 1


def _cmd_list(args):
    from .catalog import named_operators, named_profiles, named_symmetries
    from .scenario import reproductions

    print("operators:")
    for name in sorted(named_operators()):
        print(f"  {name}")
    print("symmetries:")
    for name in sorted(named_symmetries()):
        print(f"  {name}")
    print("profiles:")
    for name in sorted(named_profiles()):
        print(f"  {name}")
    print("reproductions:")
    for name, entry in sorted(reproductions().items()):
        print(f"  {name:26s} {entry.certifies}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conslaw",
        description="Conservation laws of constant-coefficient linear systems, "
        "verified by exact spectral evolution.",
    )
    parser.add_argument(
        "--seed", type=_seed, default=None,
        help="randomized-solver seed (default 0; overrides a scenario's seed)",
    )
    parser.add_argument("--out-dir", default=None, help="directory for CSV/JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adjoint", help="print the formal adjoint and its factorization")
    p.add_argument("operator", help="catalog name or DSL, e.g. 'Dt - Dx^2'")
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("conjugacy", help="solve for the conjugating pair (JSON)")
    p.add_argument("operator")
    p.set_defaults(func=_cmd_conjugacy)

    p = sub.add_parser("current", help="print the bilinear current component by component")
    p.add_argument("operator")
    p.add_argument("--json", action="store_true", help="machine-readable term list")
    p.set_defaults(func=_cmd_current)

    p = sub.add_parser("verify", help="run a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dirac", help="run the full spin-1/2 suite")
    p.add_argument("--fast", action="store_true", help="skip the slow angular-momentum run")
    p.set_defaults(func=_cmd_dirac)

    p = sub.add_parser("reproduce", help="run a named built-in reproduction ('all' for every one)")
    p.add_argument("name")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("list", help="list catalog entries and reproductions")
    p.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, RuntimeError, OSError, MemoryError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
