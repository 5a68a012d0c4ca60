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
argparse casts and checks it, and an explicit flag wins.  A flag or key
the command lacks is a usage error (exit 2) whatever its value, a switch
of another command too.  The command's own switches (`check-grid` for
`power`, `symmetric` for `sweep`) take true/false, yes/no, on/off or 1/0.
Each option is declared once, in `_FLAGS`; `_COMMANDS` gives each
command's options in help order and which of them it requires, and only
the running command's parser gets its options.
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


def _require(args: argparse.Namespace, flags: tuple[str, ...]) -> None:
    for flag in flags:
        if getattr(args, _FLAGS[flag].get("dest", flag)) is None:
            raise DomainError(f"missing required option --{flag}")


def _emit_csv(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_rate(args: argparse.Namespace) -> int:
    from .achievable import achievable_rate

    gains = ChannelGains(args.a, args.b)
    alloc = PowerAllocation(args.p1, args.p2)
    rate, branch = achievable_rate(gains, alloc)
    print(f"a = {gains.a:.12g}  b = {gains.b:.12g}  p1 = {alloc.p1:.12g}  p2 = {alloc.p2:.12g}")
    print(f"secrecy_rate = {rate.value:.12g} bit/channel use")
    print(f"branch = {branch}")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from .power import grid_search_allocation, optimal_allocation

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


# Each long option once: its name without `--` and its add_argument keywords.
_FLAGS = {
    "param": dict(choices=("a", "b"), default="a", help="which gain to sweep"),
    "from": dict(type=float, dest="from_", help="sweep start"),
    "to": dict(type=float, help="sweep end"),
    "steps": dict(type=int, default=400, help="number of intervals"),
    "a": dict(type=float, help="transmitter-to-eavesdropper gain"),
    "b": dict(type=float, help="interferer-to-receiver gain"),
    "p1": dict(type=float, help="transmit power"),
    "p2": dict(type=float, help="interferer power"),
    "pbar1": dict(type=float, help="transmitter power budget"),
    "pbar2": dict(type=float, help="interferer power budget"),
    "check-grid": dict(
        action="store_true", help="also run the lattice oracle and report agreement"
    ),
    "grid-steps": dict(type=int, default=_GRID_STEPS),
    "symmetric": dict(action="store_true", help="force a = b along the sweep"),
    "power-mode": dict(choices=("optimal", "full"), default="optimal"),
    "out": dict(help="output CSV path (default: stdout); two curves get a suffix per tag"),
    "samples": dict(type=int, default=2000),
    "seed": dict(type=int, default=0),
    "config": dict(help="key = value file mirroring the flags"),
}
_RATE_POINT = ("a", "b", "p1", "p2")
_POINT = ("a", "b", "pbar1", "pbar2")
# name: (help, handler, flags in help order before --config, required flags).
_COMMANDS = {
    "rate": ("achievable rate at explicit powers", _cmd_rate, _RATE_POINT, _RATE_POINT),
    "power": (
        "rate-maximizing allocation", _cmd_power, (*_POINT, "check-grid", "grid-steps"), _POINT
    ),
    "bound": ("capacity upper-bound breakdown", _cmd_bound, _POINT, _POINT),
    "sweep": (
        "CSV sweep along one gain",
        _cmd_sweep,
        ("param", "from", "to", "steps", *_POINT, "symmetric", "power-mode", "out"),
        ("from", "to", "pbar1", "pbar2"),
    ),
    **{
        name: (blurb, _cmd_fig, ("steps", "power-mode", "out"), ())
        for name, (blurb, _) in _FIG_PRESETS.items()
    },
    "verify": ("run the invariant suite", _cmd_verify, ("samples", "seed", "grid-steps"), ()),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand, with arguments added only to `command`'s, the one that runs."""
    parser = argparse.ArgumentParser(
        prog="coopjam",
        description=(
            "Secrecy rates, power control, and capacity bounds for the "
            "jammer-assisted Gaussian wiretap channel."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, _, flags, _) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=blurb)
        if name == command:
            for flag in (*flags, "config"):
                subparser.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _config_flags(path: str, flags: tuple[str, ...]) -> list[str]:
    """A config file's entries as flags; a switch of `flags` becomes a bare flag or nothing.

    Every other key goes to argparse as `--key=value`, which rejects a key
    the command lacks, a switch of another command too.
    """
    switches = [flag for flag in flags if _FLAGS[flag].get("action") == "store_true"]
    entries = []
    for key, value in _read_config(path).items():
        if key not in switches:
            entries.append(f"--{key}={value}")
        elif _parse_bool(key, value):
            entries.append(f"--{key}")
    return entries


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no option but -h, so the first other word names the command.
    parser = _build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    args = parser.parse_args(argv)
    _, handler, flags, required = _COMMANDS[args.command]
    try:
        if args.config is not None:
            # Config entries go before the explicit flags, so the explicit
            # flags, parsed last, win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config, flags) + argv[at:])
        _require(args, required)
        return handler(args)
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
