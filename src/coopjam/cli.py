"""Command-line front end.

Commands:
    rate    achievable secrecy rate and branch at an explicit operating point
    power   rate-maximizing allocation for a budget (optionally grid-checked)
    bound   capacity upper-bound breakdown at a budget
    sweep   CSV table of rate and bound along one gain
    fig2/fig3/fig4
            preset sweeps with budgets (2, 2) matching the standard
            symmetric, b-versus, and a-versus parameterizations
    verify  run the seeded invariant suite; nonzero exit on any violation

Every command accepts `--config FILE` with one `key = value` per line.
Keys are the command's long option names without `--`; each entry is
parsed as the flag `--key=value` placed before the explicit flags, so
argparse casts and checks it, an unknown key is a usage error, and an
explicit flag wins.  The switches `check-grid` and `symmetric` take
true/false, yes/no, on/off or 1/0.
Exit codes: 0 success, 1 verification/invariant failure, 2 usage or
domain error.  A command computes its whole answer before it prints, so
one that fails with exit 1 or 2 leaves stdout empty, except `verify`,
which prints every check's PASS/FAIL line before exiting 1 on a FAIL.

Each handler imports what it calls, so a process loads only the modules
its command runs.  `rate`, `bound` and `power` answer by the closed forms
and never import NumPy.  `sweep`, `fig2/3/4` and `power --check-grid` run
as scalar code while their work fits about one NumPy import
(`model._scalar_pays`), as at their default sizes; beyond that they
import NumPy when they first build an array, and `verify` always does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .model import (
    _GRID_STEPS,
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    gauss_cap,
)

__all__ = ["main"]

_FIG_BUDGET = (2.0, 2.0)
_FIG_RANGE = (0.0, 4.0)
# name: (help, curves); each curve is (output tag, swept gain, fixed gain, symmetric).
_FIG_PRESETS = {
    "fig2": ("symmetric a = b sweep, budgets (2, 2)", [("symmetric", "a", 0.0, True)]),
    "fig3": (
        "sweep b at fixed a in {0.6, 1.2}, budgets (2, 2)",
        [("a0.6", "b", 0.6, False), ("a1.2", "b", 1.2, False)],
    ),
    "fig4": (
        "sweep a at fixed b in {0.2, 1.2}, budgets (2, 2)",
        [("b0.2", "a", 0.2, False), ("b1.2", "a", 1.2, False)],
    ),
}
_BOOLEAN_KEYS = ("check-grid", "symmetric")
_DEFAULT_STEPS = 400
_DEFAULT_SAMPLES = 2000


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"config value for {key!r}: expected a boolean, got {text!r}")


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _require(args: argparse.Namespace, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            raise DomainError(f"missing required option --{dest.rstrip('_')}")


def _emit_csv(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_rate(args: argparse.Namespace) -> int:
    from .achievable import achievable_rate

    _require(args, "a", "b", "p1", "p2")
    gains = ChannelGains(args.a, args.b)
    alloc = PowerAllocation(args.p1, args.p2)
    rate, branch = achievable_rate(gains, alloc)
    print(f"a = {gains.a:.12g}  b = {gains.b:.12g}  p1 = {alloc.p1:.12g}  p2 = {alloc.p2:.12g}")
    print(f"secrecy_rate = {rate.value:.12g} bit/channel use")
    print(f"branch = {branch}")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from .power import grid_search_allocation, optimal_allocation

    _require(args, "a", "b", "pbar1", "pbar2")
    gains = ChannelGains(args.a, args.b)
    budget = PowerBudget(args.pbar1, args.pbar2)
    result = optimal_allocation(gains, budget)
    if args.check_grid:
        grid = grid_search_allocation(gains, budget, args.grid_steps)
    print(f"p1 = {result.alloc.p1:.12g}  p2 = {result.alloc.p2:.12g}")
    print(f"secrecy_rate = {result.rate.value:.12g} bit/channel use")
    print(f"branch = {result.branch}")
    print(f"source = {result.source.value}")
    if args.check_grid:
        diff = result.rate.value - grid.rate.value
        print(
            f"grid_rate = {grid.rate.value:.12g} at p1 = {grid.alloc.p1:.12g}, "
            f"p2 = {grid.alloc.p2:.12g} (n_steps = {args.grid_steps})"
        )
        print(f"closed_minus_grid = {diff:.3e}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from .bound import sato_upper_bound

    _require(args, "a", "b", "pbar1", "pbar2")
    gains = ChannelGains(args.a, args.b)
    budget = PowerBudget(args.pbar1, args.pbar2)
    ev = sato_upper_bound(gains, budget)
    direct_cap = gauss_cap(budget.p1_max)
    print(f"rho_star = {ev.rho_star.rho:.12g}")
    print(f"discriminant = {ev.discriminant:.12g}")
    print(f"r_u = {ev.f_at_star:.12g} bit/channel use")
    print(f"direct_link_cap = {direct_cap:.12g} bit/channel use")
    print(f"final_bound = {ev.final_bound.value:.12g} bit/channel use")
    print(f"active_term = {'genie' if ev.f_at_star <= direct_cap else 'direct_link_cap'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import PowerMode, SweepSpec, render_csv, run_sweep

    other = "b" if args.param == "a" else "a"
    fixed = getattr(args, other)
    if fixed is None and not args.symmetric:
        raise DomainError(f"provide --{other} for the fixed gain, or --symmetric")
    _require(args, "from_", "to", "pbar1", "pbar2")
    spec = SweepSpec(
        param=args.param,
        start=args.from_,
        end=args.to,
        steps=args.steps,
        budget=PowerBudget(args.pbar1, args.pbar2),
        fixed_gain=0.0 if fixed is None else fixed,
        symmetric=args.symmetric,
        power_mode=PowerMode(args.power_mode),
    )
    _emit_csv(render_csv(run_sweep(spec)), args.out)
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from .sweep import PowerMode, SweepSpec, render_csv, run_sweep

    curves = _FIG_PRESETS[args.command][1]
    outputs = []
    for tag, param, fixed_gain, symmetric in curves:
        spec = SweepSpec(
            param=param,
            start=_FIG_RANGE[0],
            end=_FIG_RANGE[1],
            steps=args.steps,
            budget=PowerBudget(*_FIG_BUDGET),
            fixed_gain=fixed_gain,
            symmetric=symmetric,
            power_mode=PowerMode(args.power_mode),
        )
        target = args.out
        if target is not None and len(curves) > 1:
            path = Path(target)
            target = str(path.with_name(f"{path.stem}_{tag}{path.suffix or '.csv'}"))
        outputs.append((render_csv(run_sweep(spec)), target))
    for text, target in outputs:
        _emit_csv(text, target)
        if target is not None:
            print(f"wrote {target}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all

    results = run_all(args.samples, args.seed, args.grid_steps)
    print(f"seed = {args.seed}")
    failed = False
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{status} {res.name} (samples={res.samples})")
        if not res.ok:
            failed = True
            for violation in res.violations[:10]:
                print(f"  {violation}", file=sys.stderr)
            if len(res.violations) > 10:
                print(f"  ... {len(res.violations) - 10} more", file=sys.stderr)
    return 1 if failed else 0


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file mirroring the flags")


def _add_gain_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, help="transmitter-to-eavesdropper gain")
    parser.add_argument("--b", type=float, help="interferer-to-receiver gain")


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pbar1", type=float, help="transmitter power budget")
    parser.add_argument("--pbar2", type=float, help="interferer power budget")


def _add_power_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--power-mode", choices=("optimal", "full"), default="optimal")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopjam",
        description=(
            "Secrecy rates, power control, and capacity bounds for the "
            "jammer-assisted Gaussian wiretap channel."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="achievable rate at explicit powers")
    _add_gain_flags(p_rate)
    p_rate.add_argument("--p1", type=float, help="transmit power")
    p_rate.add_argument("--p2", type=float, help="interferer power")
    _add_config(p_rate)
    p_rate.set_defaults(handler=_cmd_rate)

    p_power = sub.add_parser("power", help="rate-maximizing allocation")
    _add_gain_flags(p_power)
    _add_budget_flags(p_power)
    p_power.add_argument(
        "--check-grid",
        action="store_true",
        help="also run the lattice oracle and report agreement",
    )
    p_power.add_argument("--grid-steps", type=int, default=_GRID_STEPS)
    _add_config(p_power)
    p_power.set_defaults(handler=_cmd_power)

    p_bound = sub.add_parser("bound", help="capacity upper-bound breakdown")
    _add_gain_flags(p_bound)
    _add_budget_flags(p_bound)
    _add_config(p_bound)
    p_bound.set_defaults(handler=_cmd_bound)

    p_sweep = sub.add_parser("sweep", help="CSV sweep along one gain")
    p_sweep.add_argument(
        "--param", choices=("a", "b"), default="a", help="which gain to sweep"
    )
    p_sweep.add_argument("--from", type=float, dest="from_", help="sweep start")
    p_sweep.add_argument("--to", type=float, help="sweep end")
    p_sweep.add_argument(
        "--steps", type=int, default=_DEFAULT_STEPS, help="number of intervals"
    )
    _add_gain_flags(p_sweep)
    _add_budget_flags(p_sweep)
    p_sweep.add_argument(
        "--symmetric", action="store_true", help="force a = b along the sweep"
    )
    _add_power_mode(p_sweep)
    p_sweep.add_argument("--out", help="output CSV path (default: stdout)")
    _add_config(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    for name, (blurb, _) in _FIG_PRESETS.items():
        p_fig = sub.add_parser(name, help=blurb)
        p_fig.add_argument("--steps", type=int, default=_DEFAULT_STEPS)
        _add_power_mode(p_fig)
        p_fig.add_argument("--out", help="output path; curves get a suffix per tag")
        _add_config(p_fig)
        p_fig.set_defaults(handler=_cmd_fig)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--samples", type=int, default=_DEFAULT_SAMPLES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--grid-steps", type=int, default=_GRID_STEPS)
    _add_config(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _config_flags(path: str) -> list[str]:
    """The entries of a config file as flags; booleans become a bare flag or nothing."""
    flags = []
    for key, value in _read_config(path).items():
        if key not in _BOOLEAN_KEYS:
            flags.append(f"--{key}={value}")
        elif _parse_bool(key, value):
            flags.append(f"--{key}")
    return flags


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # Config entries go before the explicit flags, so the explicit
            # flags, parsed last, win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
