"""Command-line entry point.

Subcommands: `mub gen|verify|complexity`, `channel apply|check`,
`qpt run`, `sweep`. Every flag can also be supplied through a JSON
config file (`--config FILE`, keys are the flag names with underscores,
values of the flag's JSON type); explicit flags win over config values.
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
from .experiments import (
    NoiseConfig,
    default_mu_grid,
    export_results,
    run_sweep,
    run_trial,
)
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


# JSON types a config value may take, and their name, by its flag's kind
_CONFIG_KINDS = {int: (int, "integer"), float: ((int, float), "number"), bool: (bool, "boolean")}


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags.

    A config value must have the JSON type of its flag (an integer for
    `type=int`, a number for `type=float`, a boolean for an on/off flag)
    and be one of the flag's `choices`, so it fails where the same value
    would fail on the command line instead of being truncated or
    reinterpreted. A null value, like an absent flag, keeps the default.
    """
    opts = dict(defaults)
    ns = vars(args)
    cfg_path = ns.get("config")
    if cfg_path:
        obj = read_json_object(cfg_path, "config")
        unknown = sorted(set(obj) - set(defaults))
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        actions = {a.dest: a for a in args.parser._actions}
        for key, val in obj.items():
            if val is None:
                continue
            action = actions[key]
            kind = bool if action.const is True else action.type
            if kind is not None:
                allowed, name = _CONFIG_KINDS[kind]
                if isinstance(val, bool) != (kind is bool) or not isinstance(val, allowed):
                    raise ValidationError(f"bad config value {key}={val!r}: expected a JSON {name}")
                try:
                    val = kind(val)
                except OverflowError as exc:
                    raise ValidationError(f"bad config value {key}={val!r}: {exc}") from exc
            if action.choices is not None and val not in action.choices:
                raise ValidationError(
                    f"bad config value {key}={val!r}: choose from {', '.join(action.choices)}"
                )
            opts[key] = val
    for key in defaults:
        val = ns.get(key)
        if val is not None:
            opts[key] = val
    return opts


def _require(opts: dict, key: str):
    if opts.get(key) is None:
        raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    return opts[key]


def _emit(obj: dict, out_path) -> None:
    if out_path:
        write_json_object(out_path, obj, "output")
    else:
        print(json.dumps(obj))


def _channel_spec(opts: dict) -> str:
    spec = str(_require(opts, "channel"))
    param = opts.get("param")
    if param is None:
        return spec
    if ":" in spec:
        raise ValidationError(
            "give the channel parameter either in the spec or via --param, not both"
        )
    return f"{spec}:{param}"


def cmd_mub_gen(args) -> None:
    opts = _merge(args, {"dim": None, "out": None})
    mub_set = generate_mub(int(_require(opts, "dim")))
    _emit(mub_to_json(mub_set), opts["out"])


def cmd_mub_verify(args) -> None:
    opts = _merge(args, {"in": None, "tol": 1e-10})
    mub_set = load_mub(_require(opts, "in"), verify=False)
    report = verify_mub(mub_set, float(opts["tol"]))
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
    opts = _merge(args, {"dim": None, "c_alpha": None, "factorization": None})
    dim = int(_require(opts, "dim"))
    mub_set = generate_mub(dim)
    if opts["factorization"] is None:
        dims = default_factorization(dim)
    else:
        dims = tuple(_parse_int_list(opts["factorization"], "factorization"))
    if opts["c_alpha"] is None:
        model = default_complexity(mub_set, dims)
    else:
        model = ComplexityModel(tuple(_parse_int_list(opts["c_alpha"], "c-alpha")), dims)
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


def _parse_int_list(text, what: str) -> list[int]:
    if isinstance(text, (list, tuple)):
        items = list(text)
    else:
        items = str(text).split(",")
    try:
        return [int(x) for x in items]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad --{what} value {text!r}: {exc}") from exc


def cmd_channel_apply(args) -> None:
    opts = _merge(args, {"channel": None, "param": None, "state": None, "out": None})
    rho = check_density_matrix(matrix_from_json(read_json_object(_require(opts, "state"), "state")))
    ch = parse_channel_spec(_channel_spec(opts), rho.shape[0])
    _emit(matrix_to_json(apply_channel(ch, rho)), opts["out"])


def cmd_channel_check(args) -> None:
    opts = _merge(args, {"in": None})
    ch = load_kraus(_require(opts, "in"), strict=False)
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
    opts = _merge(
        args,
        {
            "dim": None,
            "channel": None,
            "param": None,
            "mu": 0.0,
            "seed": 0,
            "refine": False,
            "out": None,
        },
    )
    dim = int(_require(opts, "dim"))
    ch = parse_channel_spec(_channel_spec(opts), dim)
    noise = NoiseConfig(float(opts["mu"]), int(opts["seed"]))  # range checks
    mub_set = generate_mub(dim)
    beta = build_beta(mub_set)
    res = run_trial(ch, mub_set, beta, noise.mu, noise.seed, bool(opts["refine"]))
    print(
        f"dim={dim} channel={ch.name} mu={noise.mu:g} rank={beta.rank} "
        f"asymmetry={res.chi.asymmetry:.3e} residual={res.chi.forward_residual:.3e} "
        f"fidelity={res.fidelity:.10f}",
        file=sys.stderr,
    )
    _emit(chi_to_json(res.chi), opts["out"])


def cmd_sweep(args) -> None:
    opts = _merge(
        args,
        {
            "dim": 4,
            "channels": "dep:0.1,ad:0.4,cnot",
            "mu_start": 0.01,
            "mu_end": 0.15,
            "mu_step": 0.01,
            "trials": 100,
            "seed": 0,
            "refine": False,
            "format": "csv",
            "out": None,
            "aggregates_out": None,
        },
    )
    out = _require(opts, "out")
    if opts["format"] == "json" and opts["aggregates_out"] is not None:
        raise ValidationError("--aggregates-out is for CSV; JSON output holds the aggregates")
    dim = int(opts["dim"])
    mub_set = generate_mub(dim)
    specs = [s for s in str(opts["channels"]).split(",") if s.strip()]
    if not specs:
        raise ValidationError("no channels given")
    channels = [parse_channel_spec(s, dim) for s in specs]
    grid = default_mu_grid(float(opts["mu_start"]), float(opts["mu_end"]), float(opts["mu_step"]))
    result = run_sweep(
        channels,
        mub_set,
        grid,
        trials=int(opts["trials"]),
        base_seed=int(opts["seed"]),
        refine=bool(opts["refine"]),
    )
    export_results(result, str(opts["format"]), out, opts["aggregates_out"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mubqpt", description=__doc__.splitlines()[0])
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(title="subcommands")

    def add(subparsers, name, handler, helptext):
        p = subparsers.add_parser(name, help=helptext, description=helptext)
        p.set_defaults(handler=handler, parser=p)
        p.add_argument("--config", help="JSON file mirroring the flags; flags override")
        return p

    mub = sub.add_parser("mub", help="basis generation, checks, and costs")
    mub.set_defaults(handler=None)
    mub_sub = mub.add_subparsers(title="subcommands")

    p = add(mub_sub, "gen", cmd_mub_gen, "generate a maximal basis set")
    p.add_argument("--dim", type=int, help="dimension (primes up to 23, or 4, 8)")
    p.add_argument("--out", help="output path (default: stdout)")

    p = add(mub_sub, "verify", cmd_mub_verify, "check a basis file")
    p.add_argument("--in", help="basis file")
    p.add_argument("--tol", type=float, help="tolerance (default 1e-10)")

    p = add(mub_sub, "complexity", cmd_mub_complexity, "measurement gate costs")
    p.add_argument("--dim", type=int, help="dimension")
    p.add_argument("--c-alpha", help="comma-separated per-basis costs override")
    p.add_argument("--factorization", help="comma-separated subsystem dims")

    channel = sub.add_parser("channel", help="apply or inspect channels")
    channel.set_defaults(handler=None)
    channel_sub = channel.add_subparsers(title="subcommands")

    p = add(channel_sub, "apply", cmd_channel_apply, "apply a channel to a state")
    p.add_argument("--channel", help="spec name[:param], e.g. dep:0.1 or cnot")
    p.add_argument("--param", type=float, help="parameter if not in the spec")
    p.add_argument("--state", help="density-matrix JSON file")
    p.add_argument("--out", help="output path (default: stdout)")

    p = add(channel_sub, "check", cmd_channel_check, "trace-preservation and unitality report")
    p.add_argument("--in", help="Kraus-operator JSON file")

    qpt = sub.add_parser("qpt", help="process reconstruction")
    qpt.set_defaults(handler=None)
    qpt_sub = qpt.add_subparsers(title="subcommands")

    p = add(qpt_sub, "run", cmd_qpt_run, "reconstruct one channel")
    p.add_argument("--dim", type=int, help="dimension")
    p.add_argument("--channel", help="spec name[:param]")
    p.add_argument("--param", type=float, help="parameter if not in the spec")
    p.add_argument("--mu", type=float, help="error amplitude (default 0)")
    p.add_argument("--seed", type=int, help="noise seed (default 0)")
    p.add_argument("--refine", action="store_const", const=True, help="positivity refinement")
    p.add_argument("--out", help="process-matrix output path (default: stdout)")

    p = add(sub, "sweep", cmd_sweep, "noise-robustness study over an error grid")
    p.add_argument("--dim", type=int, help="dimension (default 4)")
    p.add_argument("--channels", help="comma-separated specs (default dep:0.1,ad:0.4,cnot)")
    p.add_argument("--mu-start", type=float, help="grid start (default 0.01)")
    p.add_argument("--mu-end", type=float, help="grid end (default 0.15)")
    p.add_argument("--mu-step", type=float, help="grid step (default 0.01)")
    p.add_argument("--trials", type=int, help="trials per grid point (default 100)")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--refine", action="store_const", const=True, help="positivity refinement")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--out", help="row output path")
    p.add_argument("--aggregates-out", help="per-point aggregate CSV path")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            raise ValidationError("no subcommand given (see mubqpt --help)")
        handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0
