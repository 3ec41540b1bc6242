"""Command-line entry point.

Subcommands: `mub gen|verify|complexity`, `channel apply|check`,
`qpt run`, `sweep`. Each flag's default, type and choices are declared
once, in `build_parser`. A JSON config file (`--config FILE`, keys are
the flag names with underscores, values of the flag's JSON type, strings
for flags without a type) sets flag defaults, so explicit flags win.
Data goes to files or standard output, diagnostics to standard error.
Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys

from .channels import apply_channel, channel_checks, load_kraus, parse_channel_spec
from .errors import NumericalError, ValidationError
from .experiments import default_mu_grid, export_results, run_sweep, run_trial
from .mub import (
    ComplexityModel,
    complexity_totals,
    default_complexity,
    default_factorization,
    generate_mub,
    load_mub,
    mub_to_json,
    verify_mub,
)
from .numerics import (
    check_density_matrix,
    json_value,
    matrix_from_json,
    matrix_to_json,
    read_json_object,
    write_json_object,
)
from .tomography import build_beta, chi_to_json

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through the
    # validation path so the documented exit codes hold
    def error(self, message):
        raise ValidationError(message)


def _config_defaults(parser: argparse.ArgumentParser, obj: dict) -> None:
    """Make the values of a config object the defaults of a subcommand
    parser, so that explicit flags win when argv is parsed again. A value
    must have its flag's JSON type (`json_value` with the flag's `type`,
    bool for an on/off flag, str without a type) and be one of its
    `choices`; null, like an absent flag, keeps the declared default."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(obj) - set(actions))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, val in obj.items():
        if val is None:
            continue
        action = actions[key]
        val = json_value(obj, key, bool if action.const is True else action.type or str)
        if action.choices is not None and val not in action.choices:
            raise ValidationError(
                f"bad config value {key}={val!r}: choose from {', '.join(action.choices)}"
            )
        values[key] = val
    parser.set_defaults(**values)


def _require(args, key: str):
    val = getattr(args, key)
    if val is None:
        raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    return val


def _emit(obj: dict, out_path) -> None:
    if out_path:
        write_json_object(out_path, obj, "output")
    else:
        print(json.dumps(obj))


def _channel_spec(args) -> str:
    spec = _require(args, "channel")
    if args.param is None:
        return spec
    if ":" in spec:
        raise ValidationError(
            "give the channel parameter either in the spec or via --param, not both"
        )
    return f"{spec}:{args.param}"


def cmd_mub_gen(args) -> None:
    _emit(mub_to_json(generate_mub(_require(args, "dim"))), args.out)


def cmd_mub_verify(args) -> None:
    mub_set = load_mub(_require(args, "in"), verify=False)
    report = verify_mub(mub_set, args.tol)
    _emit(
        {
            "dim": mub_set.dim,
            "max_orthonormality_violation": report.max_orthonormality_violation,
            "max_unbiasedness_violation": report.max_unbiasedness_violation,
            "tol": report.tol,
            "pass": report.passed,
        },
        None,
    )
    if not report.passed:
        raise ValidationError(
            f"basis set fails verification at tol {report.tol:.1e}"
        )


def cmd_mub_complexity(args) -> None:
    dim = _require(args, "dim")
    mub_set = generate_mub(dim)
    dims = _int_list(args, "factorization") or default_factorization(dim)
    c_alpha = _int_list(args, "c_alpha")
    model = default_complexity(mub_set, dims) if c_alpha is None else ComplexityModel(c_alpha, dims)
    totals = complexity_totals(model, dim)
    _emit(
        {
            "dim": dim,
            "factorization": list(model.factorization),
            "c_alpha": list(model.c_alpha),
            "C": totals["C"],
            "qpt_gates": totals["qpt_gates"],
        },
        None,
    )


def _int_list(args, key: str) -> tuple[int, ...] | None:
    """A comma-separated integer flag as a tuple, None when not given."""
    text = getattr(args, key)
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --{key.replace('_', '-')} value {text!r}: {exc}") from exc


def cmd_channel_apply(args) -> None:
    rho = check_density_matrix(matrix_from_json(read_json_object(_require(args, "state"), "state")))
    ch = parse_channel_spec(_channel_spec(args), rho.shape[0])
    _emit(matrix_to_json(apply_channel(ch, rho)), args.out)


def cmd_channel_check(args) -> None:
    ch = load_kraus(_require(args, "in"), strict=False)
    checks = channel_checks(ch)
    _emit(
        {
            "dim": ch.dim,
            "name": ch.name,
            "trace_preserving": checks.trace_preserving,
            "unital": checks.unital,
            "trace_residual": checks.trace_residual,
            "unital_residual": checks.unital_residual,
        },
        None,
    )


def cmd_qpt_run(args) -> None:
    dim = _require(args, "dim")
    ch = parse_channel_spec(_channel_spec(args), dim)
    mub_set = generate_mub(dim)
    beta = build_beta(mub_set)
    res = run_trial(ch, mub_set, beta, args.mu, args.seed, args.refine)
    print(
        f"dim={dim} channel={ch.name} mu={args.mu:g} rank={beta.rank} "
        f"asymmetry={res.chi.asymmetry:.3e} residual={res.chi.forward_residual:.3e} "
        f"fidelity={res.fidelity:.10f}",
        file=sys.stderr,
    )
    _emit(chi_to_json(res.chi), args.out)


def cmd_sweep(args) -> None:
    out = _require(args, "out")
    if args.format == "json" and args.aggregates_out is not None:
        raise ValidationError("--aggregates-out is for CSV; JSON output holds the aggregates")
    mub_set = generate_mub(args.dim)
    specs = [s for s in args.channels.split(",") if s.strip()]
    if not specs:
        raise ValidationError("no channels given")
    channels = [parse_channel_spec(s, args.dim) for s in specs]
    grid = default_mu_grid(args.mu_start, args.mu_end, args.mu_step)
    result = run_sweep(
        channels, mub_set, grid, trials=args.trials, base_seed=args.seed, refine=args.refine
    )
    export_results(result, args.format, out, args.aggregates_out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mubqpt", description=__doc__.splitlines()[0])
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(title="subcommands")

    def group(name, helptext):
        return sub.add_parser(name, help=helptext).add_subparsers(title="subcommands")

    def add(subparsers, name, handler, helptext):
        p = subparsers.add_parser(name, help=helptext, description=helptext)
        p.set_defaults(handler=handler, parser=p)
        p.add_argument("--config", help="JSON file mirroring the flags; flags override")
        return p

    mub_sub = group("mub", "basis generation, checks, and costs")

    p = add(mub_sub, "gen", cmd_mub_gen, "generate a maximal basis set")
    p.add_argument("--dim", type=int, help="dimension (primes up to 23, or 4, 8)")
    p.add_argument("--out", help="output path (default: stdout)")

    p = add(mub_sub, "verify", cmd_mub_verify, "check a basis file")
    p.add_argument("--in", help="basis file")
    p.add_argument("--tol", type=float, default=1e-10, help="tolerance (default %(default)g)")

    p = add(mub_sub, "complexity", cmd_mub_complexity, "measurement gate costs")
    p.add_argument("--dim", type=int, help="dimension")
    p.add_argument("--c-alpha", help="comma-separated per-basis costs override")
    p.add_argument("--factorization", help="comma-separated subsystem dims")

    channel_sub = group("channel", "apply or inspect channels")

    p = add(channel_sub, "apply", cmd_channel_apply, "apply a channel to a state")
    p.add_argument("--channel", help="spec name[:param], e.g. dep:0.1 or cnot")
    p.add_argument("--param", type=float, help="parameter if not in the spec")
    p.add_argument("--state", help="density-matrix JSON file")
    p.add_argument("--out", help="output path (default: stdout)")

    p = add(channel_sub, "check", cmd_channel_check, "trace-preservation and unitality report")
    p.add_argument("--in", help="Kraus-operator JSON file")

    qpt_sub = group("qpt", "process reconstruction")

    p = add(qpt_sub, "run", cmd_qpt_run, "reconstruct one channel")
    p.add_argument("--dim", type=int, help="dimension")
    p.add_argument("--channel", help="spec name[:param]")
    p.add_argument("--param", type=float, help="parameter if not in the spec")
    p.add_argument("--mu", type=float, default=0.0, help="error amplitude (default %(default)g)")
    p.add_argument("--seed", type=int, default=0, help="noise seed (default %(default)s)")
    p.add_argument("--refine", action="store_true", help="positivity refinement")
    p.add_argument("--out", help="process-matrix output path (default: stdout)")

    p = add(sub, "sweep", cmd_sweep, "noise-robustness study over an error grid")
    p.add_argument("--dim", type=int, default=4, help="dimension (default %(default)s)")
    p.add_argument("--channels", default="dep:0.1,ad:0.4,cnot",
                   help="comma-separated specs (default %(default)s)")
    p.add_argument("--mu-start", type=float, default=0.01, help="grid start (default %(default)g)")
    p.add_argument("--mu-end", type=float, default=0.15, help="grid end (default %(default)g)")
    p.add_argument("--mu-step", type=float, default=0.01, help="grid step (default %(default)g)")
    p.add_argument("--trials", type=int, default=100,
                   help="trials per grid point (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    p.add_argument("--refine", action="store_true", help="positivity refinement")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default %(default)s)")
    p.add_argument("--out", help="row output path")
    p.add_argument("--aggregates-out", help="per-point aggregate CSV path")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.handler is None:
            raise ValidationError("no subcommand given (see mubqpt --help)")
        if args.config is not None:
            _config_defaults(args.parser, read_json_object(args.config, "config"))
            args = parser.parse_args(argv)
        args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0
