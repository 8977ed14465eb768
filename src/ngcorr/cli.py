"""Command-line interface: figure data sweeps, single-state measurement,
and the self-test oracle suites.  All data output is CSV.

State-spec file grammar (measure subcommand): one ``key = value`` pair per
line, each key at most once, ``#`` comments allowed.  Keys: ``family``
(required), ``cutoff`` (optional integer >= 1), ``eta`` (optional), and the
family's parameters (``states.FAMILY_PARAMS``: ``gamma``, ``f``, ``r``,
``nbar``, ``coeffs`` as a comma-separated list, ``levels`` likewise,
``sign``, ``modes``); a missing required parameter, one the family does not
take, or a non-finite one is refused.  ``eta``, in [0, 1], applies a
symmetric loss channel after construction.  One state per file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .channels import apply_loss
from .errors import BadSpec, NGCorrError, check_eta
from .figures import COLUMNS, FIGURE_IDS, FIGURES, measure, run_figure, sweep
from .gaussian import MI_KINDS, ORDERED_KINDS
from .measures import NG_KINDS
from .states import FAMILIES, StateSpec, _count, make_state

_RANGE_KEYS = ("gamma", "alpha", "eta", "f", "r", "x")

#: The checkout's test suites, next to ``src/``.
TESTS_DIR = Path(__file__).resolve().parents[2] / "tests"


def _fmt(value):
    if value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.17g" % value
    return str(value)


def write_csv(rows, stream):
    stream.write(",".join(COLUMNS) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row[c]) for c in COLUMNS) + "\n")


def _count_arg(text, name="count", least=1):
    """``states._count`` as an argparse type: a bad count is a usage error."""
    try:
        return _count(text, name, least)
    except BadSpec:
        raise argparse.ArgumentTypeError(
            f"{name} {text!r} must be an integer >= {least}") from None


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range {text!r} must be start:stop:count"
        )
    start, stop = float(parts[0]), float(parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"range {text!r} must have a finite start and stop")
    return start, stop, _count_arg(parts[2])


def _complex_or_real(text):
    z = complex(text.strip())
    return z.real if z.imag == 0 else z


#: Value parsers of the non-float state-spec keys.
_SPEC_VALUES = {
    "cutoff": int,
    "sign": int,
    "modes": int,
    "levels": lambda v: [int(x) for x in v.split(",") if x.strip()],
    "coeffs": lambda v: [_complex_or_real(x) for x in v.split(",") if x.strip()],
}


def parse_state_file(path):
    """StateSpec plus optional loss transmittance from a key-value file."""
    keys = {}
    try:
        with open(path) as fh:
            lines = list(fh)
    except OSError as exc:
        raise BadSpec(f"{path}: cannot read state-spec file: {exc.strerror}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadSpec(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in keys:
            raise BadSpec(f"{path}:{lineno}: key {key!r} repeats line {keys[key][1]}")
        keys[key] = (value.strip(), lineno)
    if "family" not in keys:
        raise BadSpec(f"{path}: missing required key 'family'")
    family = keys.pop("family")[0]
    if family not in FAMILIES:
        raise BadSpec(f"{path}: unknown family {family!r}; expected {FAMILIES}")

    def number(key):
        value, lineno = keys.pop(key)
        try:
            num = _SPEC_VALUES.get(key, float)(value)
        except ValueError:
            raise BadSpec(
                f"{path}:{lineno}: key {key!r}: value {value!r} is not numeric"
            ) from None
        if key == "eta":
            check_eta(num, f"{path}:{lineno}: ")
        return num

    cutoff = number("cutoff") if "cutoff" in keys else None
    loss_eta = number("eta") if "eta" in keys else None
    params = {key: number(key) for key in list(keys)}
    return StateSpec(family, params, cutoff=cutoff), loss_eta


def _parse_measure_id(text):
    """kind[:alpha] with optional delta:/ng: prefix -> (group, kind, alpha);
    alpha is required for the renyi and sandwiched kinds, refused otherwise."""
    parts = text.split(":")
    group = "mi"
    if parts[0] in ("delta", "ng"):
        group = parts[0]
        parts = parts[1:]
    if not parts or not parts[0]:
        raise BadSpec(f"empty measure id in {text!r}")
    kind, *order = parts
    if group == "ng":
        if kind not in NG_KINDS:
            raise BadSpec(f"unknown ng kind {kind!r}; expected {NG_KINDS}")
    elif kind not in MI_KINDS:
        raise BadSpec(f"unknown measure kind {kind!r}; expected {MI_KINDS}")
    ordered = group != "ng" and kind in ORDERED_KINDS
    if len(order) != ordered:
        need = "one order, as kind:A" if ordered else "no order"
        raise BadSpec(f"measure id {text!r}: {kind} takes {need}")
    try:
        alpha = float(order[0]) if order else None
    except ValueError:
        alpha = math.nan
    if order and not 0.0 < alpha < math.inf:
        raise BadSpec(f"measure id {text!r}: order {order[0]!r} is not a positive number")
    return group, kind, alpha


def measure_rows(spec, loss_eta, measure_ids):
    """One row per measure id on the state of ``spec``, lossy if ``loss_eta``.

    Every id is parsed before the state is built.
    """
    measures = [(mid, measure(*_parse_measure_id(mid))) for mid in measure_ids]
    params = {key: float(abs(val) if isinstance(val, complex) else val)
              for key, val in spec.params.items() if key in ("gamma", "f", "r")}
    if loss_eta is not None:
        params["eta"] = loss_eta

    def build(_params):
        state = make_state(spec)
        return state if loss_eta is None else apply_loss(state, loss_eta)

    return sweep("measure_state", [params], measures, build)


def _cmd_run_figure(args):
    options = {
        "grid": args.grid,
        "samples": args.samples,
        "seed": args.seed,
        "cutoff": args.cutoff,
    }
    for key in _RANGE_KEYS:
        val = getattr(args, key)
        if val is not None:
            options[key] = val
    rows = run_figure(args.id, options, threads=args.threads)
    _emit(rows, args.out)
    return 0


def _cmd_measure_state(args):
    spec, loss_eta = parse_state_file(args.spec)
    rows = measure_rows(spec, loss_eta, args.measures)
    _emit(rows, args.out)
    return 0


def _cmd_selftest(args):
    if not Path(args.tests).is_dir():
        raise BadSpec(f"test directory {args.tests} not found")
    import pytest

    pytest_args = ["-q", "--color=no"]
    if args.level == "quick":
        pytest_args += ["-m", "not slow"]
    pytest_args += [args.tests]
    code = pytest.main(pytest_args)
    print("selftest:", "PASS" if code == 0 else f"FAIL (exit {code})")
    return int(code)


def _emit(rows, out):
    if out:
        with open(out, "w") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ngcorr",
        description="Correlation and non-Gaussian-correlation measures "
        "for two-mode bosonic states; figure-data sweeps emit CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("run_figure", help="emit the data behind one figure")
    p_fig.add_argument("id", choices=FIGURE_IDS)
    p_fig.add_argument("--out", help="output CSV path (default: stdout)")
    p_fig.add_argument("--cutoff", type=_count_arg, help="Fock cutoff override")
    p_fig.add_argument("--grid", type=_count_arg, help="grid density override")
    p_fig.add_argument("--samples", type=_count_arg, help="sample count override")
    p_fig.add_argument("--seed", type=lambda text: _count_arg(text, "seed", 0),
                       help="sampling seed, an integer >= 0 (default 0)")
    p_fig.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: NGCORR_THREADS or all cores)")
    for key in _RANGE_KEYS:
        p_fig.add_argument(f"--{key}", type=_parse_range, metavar="START:STOP:COUNT")
    p_fig.set_defaults(func=_cmd_run_figure)

    p_meas = sub.add_parser("measure_state", help="evaluate measures on a state")
    p_meas.add_argument("spec", help="key-value state-spec file")
    p_meas.add_argument("measures", nargs="+",
                        help="measure ids like vn, renyi:2, delta:hs, ng:tr")
    p_meas.add_argument("--out", help="output CSV path (default: stdout)")
    p_meas.set_defaults(func=_cmd_measure_state)

    p_self = sub.add_parser("selftest", help="run the package test suites")
    p_self.add_argument("level", choices=("quick", "full"))
    p_self.add_argument("--tests", default=str(TESTS_DIR),
                        help="test directory (default: the checkout's tests/)")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run_figure":
        fig = FIGURES[args.id]
        swept = [axis[0] for axis in fig.axes]
        for key in _RANGE_KEYS:
            if getattr(args, key) is not None and key not in swept:
                accepted = " ".join(f"--{name}" for name in swept) or "none"
                parser.error(f"{args.id} sweeps no {key} axis; "
                             f"its range flags: {accepted}")
        for key, why in fig.unused.items():
            if getattr(args, key) is not None:
                parser.error(f"{args.id} {why}; --{key} does not apply")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except NGCorrError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): what is left to write,
        # and the flush at exit, go to the null device, as the Python signal
        # module's documentation advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
