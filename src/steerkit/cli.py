"""Command-line front end: sweeps, Monte Carlo runs, thresholds, data analysis.

Exit codes: 0 on success, 2 for usage errors (bad flags, missing/empty input
file), 3 for input-data errors (malformed counts rows).  Any ``ValueError``
the library raises for a flag value is a usage error: :func:`main` prints its
message and exits 2, so the subcommands do not re-check or re-wrap it.  All
outputs are deterministic given the flags (and ``--seed`` where sampling is
involved).

A config file (``--config FILE``, ``key = value`` lines, ``#`` comments) may
supply any long flag of the chosen subcommand, each value read as that flag's
value; explicit flags override it.
Relative ``--out`` paths are resolved against ``$STEERKIT_OUTDIR`` when set.

:func:`main` may be called any number of times in one process.  It builds
the argument parser on its first call and reuses it; no state is carried
from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager

from . import __version__, criteria, entropy, expio, montecarlo, qcore

#: Most points a START:STOP:STEP grid may hold; checked before the list is built.
MAX_GRID_POINTS = 100_001


def _parse_grid(text: str) -> list[float]:
    """Parse START:STOP:STEP (stop inclusive) or a single value; all finite."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"grid must be START:STOP:STEP or a single value, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-numeric grid specification {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0.0 or stop < start:
        raise ValueError(f"grid needs stop >= start and step > 0, got {text!r}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # also an overflow to inf
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(span) + 1)]


def _split_criteria(text: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_criteria(text: str) -> list[criteria.Criterion]:
    tokens = _split_criteria(text)
    if not tokens:
        raise ValueError("empty criteria list")
    return [criteria.Criterion.parse(tok) for tok in tokens]


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get("STEERKIT_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


@contextmanager
def _output(path: str | None):
    resolved = _resolve_out(path)
    if resolved is None:
        yield sys.stdout
    else:
        with open(resolved, "w", newline="") as stream:
            yield stream


def _emit_json(obj, path: str | None) -> None:
    with _output(path) as stream:
        stream.write(json.dumps(obj, indent=2))
        stream.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    crit_list = _parse_criteria(args.criteria)
    alphas = _parse_grid(args.alpha_grid)
    rows = criteria.sweep(args.mu, alphas, args.phi, args.m, crit_list, mode=args.mode)
    if args.format == "json":
        _emit_json([row.__dict__ for row in rows], args.out)
    else:
        with _output(args.out) as stream:
            criteria.sweep_rows_to_csv(rows, stream)
    return 0


def _default_scheme(mc_class: str, m: int) -> str:
    if mc_class == "crm":
        return "isotropic"
    return "dihedral" if m == 2 else "haar"


def _cmd_mc(args) -> int:
    scheme = args.scheme or _default_scheme(args.mc_class, args.m)
    if montecarlo.measurement_class(scheme) != args.mc_class:
        raise ValueError(
            f"scheme {scheme!r} belongs to class {montecarlo.measurement_class(scheme)!r}, "
            f"not {args.mc_class!r}"
        )
    mu_grid = _parse_grid(args.mu_grid)
    cfg = montecarlo.MCConfig(
        m=args.m,
        scheme=scheme,
        mu_grid=tuple(mu_grid),
        n_samples=args.samples,
        bound_factor=args.bound_factor,
        seed=args.seed,
    )
    hist_out, hist_error = _histogram_request(args, cfg)
    if args.hist is None or hist_error is not None:
        estimates = montecarlo.violation_probability(cfg, n_workers=args.workers)
    else:
        # one pass fills both the counts and the histogram bins
        estimates, bin_counts = montecarlo.violation_probability(
            cfg, n_workers=args.workers, hist_bins=args.hist
        )
    if args.format == "json":
        _emit_json([est.__dict__ for est in estimates], args.out)
    else:
        with _output(args.out) as stream:
            montecarlo.estimates_to_csv(estimates, stream)
    if args.hist is not None:
        # histogram errors surface only after the main output is written
        if hist_error is not None:
            raise ValueError(hist_error)
        hist = montecarlo.violation_histogram(cfg, bins=args.hist, bin_counts=bin_counts)
        with _output(hist_out) as stream:
            montecarlo.histogram_to_csv(hist, stream)
    return 0


def _histogram_request(args, cfg):
    """``(hist_out, error)`` for ``mc --hist``: the output path, or why no histogram can be made."""
    if args.hist is None:
        return None, None
    hist_out = args.hist_out
    if hist_out is None and args.out is not None:
        hist_out = args.out + ".hist.csv"
    if hist_out is None:
        return None, "--hist needs --hist-out (or --out to derive a path from)"
    try:
        montecarlo.histogram_edges(cfg, args.hist)
    except ValueError as exc:
        return hist_out, str(exc)
    return hist_out, None


def _threshold_criterion(args) -> criteria.Criterion:
    if args.criterion == "tsallis":
        return criteria.Criterion("tsallis", q=args.q)
    if args.criterion == "renyi":
        try:
            r, s = (criteria.parse_order(text) for text in args.rs.split(","))
        except ValueError:
            raise ValueError(f"--rs must be R,S (inf or oo allowed), got {args.rs!r}") from None
        return criteria.Criterion("renyi", r=r, s=s)  # its ValueError passes through as is
    return criteria.Criterion(args.criterion)


def _cmd_threshold(args) -> int:
    criterion = _threshold_criterion(args)
    alpha = criteria.critical_alpha(criterion, args.mu, args.phi, args.m)
    payload = {
        "criterion": criterion.kind,
        "order": criterion.order_label(args.m),
        "mu": args.mu,
        "phi_deg": args.phi,
        "m": args.m,
        "critical_alpha_deg": alpha,
    }
    if alpha is None:
        payload["note"] = "criterion value does not change sign for alpha in [0, 90] degrees"
    _emit_json(payload, args.out)
    return 0


def _cmd_analyze(args) -> int:
    qcore.as_angles(args.alpha, args.phi)  # whether or not --mode reads them
    path = args.input
    if not os.path.exists(path):
        raise ValueError(f"parse error: no such counts file: {path}")
    if os.path.getsize(path) == 0:
        raise ValueError(f"parse error: empty counts file: {path}")
    data = expio.load_counts(path)  # CountsFormatError -> exit 3 in main()
    if args.attach_mode is not None and data.alice is None:
        scenario = criteria.Scenario(0.0, args.alpha, args.phi, len(data.counts), args.attach_mode)
        data = expio.CountsData(data.counts, *scenario.settings())
    crit_list = _parse_criteria(args.criteria)
    evaluated = expio.evaluate_with_errors(
        data,
        crit_list,
        bootstrap=args.bootstrap,
        jitter_deg=args.jitter,
        seed=args.seed,
    )
    _emit_json(expio.results_to_json_records(evaluated), args.out)
    return 0


def _cmd_bound(args) -> int:
    if args.criterion == "db":
        value = criteria.db_bound(args.m, args.da)
    elif args.criterion == "tsallis":
        value = entropy.eur_bound_tsallis(args.q, m=args.m)
    else:  # renyi2
        value = entropy.eur_bound_renyi2()
    with _output(args.out) as stream:
        stream.write(f"{value:.10g}\n")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Steering criteria for two-qubit Werner states: sweeps, "
        "Monte Carlo violation probabilities, thresholds, and data analysis.",
    )
    parser.add_argument("--version", action="version", version=f"steerkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="criterion values over a misalignment grid (CSV)")
    sweep.add_argument("--m", type=int, choices=(2, 3), required=True)
    sweep.add_argument("--phi", type=float, default=0.0, help="plane tilt in degrees")
    sweep.add_argument("--mu", type=float, required=True, help="Werner mixing probability")
    sweep.add_argument("--alpha-grid", default="0:90:10", help="START:STOP:STEP in degrees")
    sweep.add_argument(
        "--criteria",
        default="shannon,tsallis2,renyi,db",
        help="comma list: shannon, tsallisQ, renyi, renyi(R,S), db",
    )
    sweep.add_argument("--mode", choices=("mub", "nom"), default="mub")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None, help="output path (default stdout)")

    mc = sub.add_parser("mc", help="violation probability under random measurements (CSV)")
    mc.add_argument("--m", type=int, choices=(2, 3), required=True)
    mc.add_argument("--class", dest="mc_class", choices=("rom", "crm"), required=True)
    mc.add_argument(
        "--scheme",
        choices=montecarlo.SCHEMES,
        default=None,
        help="sampler (defaults: rom m=2 dihedral, rom m=3 haar, crm isotropic)",
    )
    mc.add_argument("--mu-grid", required=True, help="START:STOP:STEP or single value")
    mc.add_argument("--samples", type=int, required=True)
    mc.add_argument("--bound-factor", type=float, default=1.0)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--hist", type=int, default=None, metavar="BINS",
                    help="also write a violation-amount histogram (single-mu grids)")
    mc.add_argument("--hist-out", default=None)
    mc.add_argument("--format", choices=("csv", "json"), default="csv")
    mc.add_argument("--out", default=None)

    threshold = sub.add_parser("threshold", help="critical misalignment angle (JSON)")
    threshold.add_argument(
        "--criterion", choices=("shannon", "tsallis", "renyi", "db"), required=True
    )
    threshold.add_argument("--q", type=float, default=2.0, help="Tsallis order")
    threshold.add_argument("--rs", default="0.5,inf", help="Renyi orders R,S")
    threshold.add_argument("--mu", type=float, required=True)
    threshold.add_argument("--phi", type=float, default=0.0)
    threshold.add_argument("--m", type=int, choices=(2, 3), default=2)
    threshold.add_argument("--out", default=None)

    analyze = sub.add_parser("analyze", help="evaluate criteria on a counts file (JSON)")
    analyze.add_argument("--input", required=True, help="counts CSV (setting,a,b,counts[,vectors])")
    analyze.add_argument("--criteria", default="shannon,tsallis2,db")
    analyze.add_argument("--bootstrap", type=int, default=1000)
    analyze.add_argument("--jitter", type=float, default=0.1,
                         help="systematic angular jitter of Bob's vectors, degrees")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--mode",
        dest="attach_mode",
        choices=("mub", "nom"),
        default=None,
        help="attach canonical measurement vectors when the file has none",
    )
    analyze.add_argument("--alpha", type=float, default=0.0, help="with --mode mub")
    analyze.add_argument("--phi", type=float, default=0.0, help="with --mode mub")
    analyze.add_argument("--out", default=None)

    bound = sub.add_parser("bound", help="print a classical bound value")
    bound.add_argument("--criterion", choices=("db", "tsallis", "renyi2"), required=True)
    bound.add_argument("--m", type=int, default=2)
    bound.add_argument("--da", type=int, default=2, help="untrusted-side dimension (db)")
    bound.add_argument("--q", type=float, default=2.0, help="Tsallis order")
    bound.add_argument("--out", default=None)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Inject config-file entries as flags right after the subcommand."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv) or argv[idx + 1].startswith("--"):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    if not rest:
        raise ValueError("--config requires a subcommand")
    try:
        with open(path) as stream:
            lines = stream.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    injected: list[str] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"{path}:{line_no}: empty key")
        injected.extend([f"--{key}", value])
    # config first, user flags after: argparse keeps the last occurrence
    return rest[:1] + injected + rest[1:]


_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _takes_value(token: str) -> bool:
    """Whether ``token`` is a long flag that reads a value (any but ``--``, ``--help``, ``--version``)."""
    if not token.startswith("--") or "=" in token:
        return False
    # argparse also accepts unambiguous prefixes such as --vers
    return not any(flag.startswith(token) for flag in ("--help", "--version"))


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -VALUE`` as ``--flag=-VALUE`` when VALUE starts like a number.

    argparse takes a token such as ``-10:10:10`` or ``-1e5`` for an option
    and reports a missing argument; the ``=`` form is the one it accepts.
    """
    out: list[str] = []
    for token in argv:
        if out and _takes_value(out[-1]) and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


#: The parser, built on the first :func:`main` call and reused by every later one.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _attach_negative_values(_apply_config(argv))
    except ValueError as exc:
        print(f"steerkit: {exc}", file=sys.stderr)
        return 2
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    # looked up per call, so a replaced _cmd_* function is the one that runs
    commands = {
        "sweep": _cmd_sweep,
        "mc": _cmd_mc,
        "threshold": _cmd_threshold,
        "analyze": _cmd_analyze,
        "bound": _cmd_bound,
    }
    try:
        return commands[args.command](args)
    except expio.CountsFormatError as exc:
        print(f"steerkit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # flag values the library rejects, unwritable --out
        print(f"steerkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
