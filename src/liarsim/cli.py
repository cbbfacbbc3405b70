"""Command-line harness.

Two subcommands:

``liarsim run``
    Configure and execute a batch of trials, print aggregate statistics,
    and optionally write newline-delimited JSON records with ``--out``.
    Settings may come from a ``key=value`` config file (``--config``);
    explicit flags take precedence over the file, which takes precedence
    over built-in defaults.

``liarsim oracle``
    Print every analytic table the simulator is checked against: the
    four-qubit state amplitudes, the per-round outcome distributions for
    each slot assignment, per-entry escape probabilities, and the
    fabrication rejection bound.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .adversary import integer
from .oracle import (
    Assignment, EscapeProbabilities, escape_ratios, rejection_lower_bound, round_distribution,
)
from .qstate import make_singlet
from .runner import TrialConfig, run_trials, summarize_to_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

_INT_KEYS = ("trials", "seed", "M", "N1", "N2", "L")
_FLOAT_KEYS = ("qubit_loss_prob", "min_fraction")
_STR_KEYS = ("strategy_a", "strategy_b", "source_state", "direction_policy", "out")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _STR_KEYS


def real(text: str) -> float:
    """``text`` as a float, when it is ASCII with no ``_`` digit separators."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid number {text!r}")
    return float(text)


def parse_config_file(path: str) -> dict:
    """Read ``key=value`` settings; '#' starts a comment, blanks ignored."""
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or not key or not value:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            if key not in _ALL_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            convert = integer if key in _INT_KEYS else real if key in _FLOAT_KEYS else str
            try:
                values[key] = convert(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache  # one parser per process, and its {subcommand: parser} map: main() reuses both
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="liarsim",
        description="Three-party liar-detection protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a batch of seeded trials")
    run.add_argument("--config", help="key=value config file (flags win)")
    run.add_argument("--trials", type=integer, help="number of trials (default 100)")
    run.add_argument("--seed", type=integer, help="64-bit master seed (default 0)")
    run.add_argument("--L", type=integer, help="surviving pool size per trial")
    run.add_argument("--M", type=integer, help="systems distributed per trial")
    run.add_argument("--N1", type=integer, help="first test subset size")
    run.add_argument("--N2", type=integer, help="second test subset size")
    run.add_argument("--strategy-a", help='"honest", "split:n=N", or "forgefull:k=K"')
    run.add_argument("--strategy-b", help='"honest" or "flipforge:k=K"')
    run.add_argument("--qubit-loss-prob", type=real, help="transit loss probability")
    run.add_argument("--source-state", help='"singlet" or a 4-bit product state')
    run.add_argument("--min-fraction", type=real, help="length-test strictness in [0,1]")
    run.add_argument(
        "--direction-policy",
        choices=("random", "fixed"),
        help="test-round measurement directions",
    )
    run.add_argument("--out", help="write one JSON record per trial plus a summary")
    run.set_defaults(func=cmd_run)

    oracle = sub.add_parser("oracle", help="print the analytic tables")
    oracle.set_defaults(func=cmd_oracle)
    return parser, sub.choices


def cmd_run(args: argparse.Namespace) -> int:
    values: dict[str, object] = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in _ALL_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    out = values.pop("out", None)
    config = TrialConfig.build(**values)
    stats = run_trials(config, out_path=out)
    print(summarize_to_text(stats))
    if out is not None:
        print(f"records written to {out}")
    return EXIT_OK


def _amplitude_table() -> list[str]:
    state = make_singlet(4)
    unit = 1.0 / (2.0 * math.sqrt(3.0))
    lines = ["Four-qubit state amplitudes (qubit 1 is the leftmost bit):"]
    for i, amp in enumerate(state.amplitudes):
        if abs(amp) < 1e-15:
            continue
        coefficient = round(amp.real / unit)
        lines.append(
            f"  |{state.bitstring(i)}>  {coefficient:+d}/(2*sqrt(3))  = {amp.real:+.12f}"
        )
    return lines


def _holds_description(assignment: Assignment | None) -> str:
    if assignment is None:
        return "either pair (equal mixture)"
    return ",".join(f"j{slot}" for slot in assignment.a_slots)


def _exact(value) -> str:
    """An exact table value as its reduced fraction and its decimal."""
    return f"{value} = {float(value):.12f}"


def _distribution_lines(assignment: Assignment | None) -> list[str]:
    dist = round_distribution(assignment)
    holds = _holds_description(assignment)
    lines = [f"Round outcomes, A holds {holds} [{dist.label}]:"]
    for (pair, b, c), p in sorted(dist.table.items()):
        lines.append(f"  P(A_pair={pair[0]}{pair[1]}, B={b}, C={c}) = {_exact(p)}")
    lines.append("  pair marginals:")
    for pair, p in sorted(dist.pair_marginal().items()):
        lines.append(f"    P(A_pair={pair[0]}{pair[1]} | holds {holds}) = {_exact(p)}")
    return lines


def oracle_dump() -> str:
    """All analytic tables as text, exact fractions alongside decimals."""
    from fractions import Fraction  # loaded on use: only the dump renders exact values

    escapes = EscapeProbabilities._make(Fraction(*ratio) for ratio in escape_ratios())
    sections = [_amplitude_table()]
    for assignment in (Assignment.A_HOLDS_12, Assignment.A_HOLDS_13, None):
        sections.append(_distribution_lines(assignment))
    sections.append(
        [
            "Per-entry escape probabilities:",
            f"  P(fake entry passes B) = {_exact(escapes.p_fake_entry_passes_B)}",
            "  P(forwarded entry passes C against A's full list) = "
            f"{_exact(escapes.p_fake_entry_passes_C_vs_lA)}",
            f"  P(forged double passes C's own bit) = {_exact(escapes.p_fake_double_passes_C)}",
            "  expected double fraction per message bit = "
            f"{_exact(escapes.expected_double_fraction)}",
        ]
    )
    bound_lines = ["Rejection bound for n fabricated entries:"]
    for n in range(1, 9):
        bound = Fraction(rejection_lower_bound(n))  # exact: 1 - 2**-n is a float
        bound_lines.append(f"  n={n}: P(B rejects) >= {_exact(bound)}")
    sections.append(bound_lines)
    return "\n\n".join("\n".join(section) for section in sections)


def cmd_oracle(args: argparse.Namespace) -> int:
    print(oracle_dump())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    try:
        if argv and argv[0] in commands:  # parse a subcommand's flags once, with its own parser
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:  # -h, no arguments or an unknown command
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
