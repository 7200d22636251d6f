"""Command-line front end: classify points, run iterations, verify
constructions, and render region plots.

    hardylane classify --N 5 --mu1 -2 --mu2 0 --p 2 --q 4 --witness
    hardylane iterate  --N 5 --mu1 -2 --mu2 -2 --p 2.5 --q 3.5 --variant clamped
    hardylane verify   --N 5 --mu1 -2 --mu2 0 --p 2 --q 3 --case C1
    hardylane plot     --N 5 --mu1 -2 --mu2 0 --p-range 0.1..8 --q-range 0.1..8 \
                       --res 400 --out region --format csv,svg

Single-record commands print JSON to stdout or write it to <out>.json;
plot writes <out>.csv / <out>.svg (and <out>.json metadata when requested).
A JSON run configuration can be supplied with --config: an object whose
keys name options of the command exactly ("N", "p-range" or "p_range", ...;
neither a prefix nor an option the command lacks is accepted) plus an
optional "command".  Its options are typed and checked exactly like flags,
and explicit flags override them.

Exit codes: 0 success, 1 validation error (bad flags or config included),
2 internal inconsistency (a classifier/engine disagreement or any other
unexpected error), so automation can tell bugs from bad input.  Errors are
reported on one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional

import numpy as np

from .constructions import (CASE_IDS, SCALE_SCAN, build_candidate,
                            find_scale, verify_on_grid)
from .exponents import DomainValidationError, HardyParams, Powers
from .iteration import DEFAULT_CAP, iterate_clamped, iterate_plain
from .plotting import PlotSpec, emit_csv, emit_svg, region_markers
from .radial import default_grid
from .regions import (Verdict, WitnessMismatchError, classify,
                      classify_field, nonexistence_witness)
from .schemas import SCHEMA_VERSION

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INCONSISTENT = 2

#: Upper bounds of iterate --cap and verify --grid-points.  At these values
#: a run peaks near 224 MB RSS (a full trace at p = q = 1) and 102 MB (the
#: grid), measured with Python 3.11 and numpy 2.4.
MAX_CAP = 100_000
MAX_GRID_POINTS = 2 ** 20

#: command -> (the formats it can write, those it writes without --format)
_FORMATS = {"iterate": (("csv", "json"), ("json",)),
            "plot": (("csv", "json", "svg"), ("csv", "svg"))}


def _json_safe(obj):
    """Replace non-finite floats so records stay strict JSON."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return 1e308 if obj > 0 else -1e308
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _parse_range(text: str) -> tuple:
    try:
        lo, hi = text.split("..")
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise DomainValidationError(
            f"range must look like 'a..b', got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainValidationError(f"range bounds must be finite, got {text}")
    if not (0.0 < lo < hi):
        raise DomainValidationError(f"range must satisfy 0 < a < b, got {text}")
    return lo, hi


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a validation error, not a SystemExit.

    A separate token that reads as a negative number counts as a value,
    exponent notation included (--mu1 -1e-06); argparse alone accepts only
    -1 and -1.5 and would take -1e-06 for an option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise DomainValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev is off everywhere: no prefix of --config can slip past
    # the splicing in _parse, and a config key must name its option exactly
    parser = _Parser(
        prog="hardylane", allow_abbrev=False,
        description="Region classification and supersolution verification "
                    "for coupled Hardy-potential systems.")
    parser.add_argument("--config", help="JSON run configuration; explicit "
                                         "flags override its values")
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--N", type=int, default=None, help="dimension (3 to 2**53)")
        sp.add_argument("--mu1", type=float, default=None)
        sp.add_argument("--mu2", type=float, default=None)
        sp.add_argument("--out", default=None, help="output path prefix")

    def formats(sp, command):
        allowed = ",".join(_FORMATS[command][0])
        sp.add_argument("--format", default=None,
                        help=f"comma-separated subset of {allowed}")

    sp = sub.add_parser("classify", allow_abbrev=False,
                        help="classify one (p, q) point")
    common(sp)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--witness", action="store_true",
                    help="attach the nonexistence evidence chain")

    sp = sub.add_parser("iterate", allow_abbrev=False,
                        help="run the exponent bootstrap")
    common(sp)
    formats(sp, "iterate")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--variant", choices=["plain", "clamped"], default=None)
    sp.add_argument("--cap", type=int, default=None)

    sp = sub.add_parser("verify", allow_abbrev=False,
                        help="verify a supersolution construction")
    common(sp)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--case", choices=list(CASE_IDS), default=None)
    sp.add_argument("--grid-points", type=int, default=None)
    sp.add_argument("--r-min", type=float, default=None)

    sp = sub.add_parser("plot", allow_abbrev=False,
                        help="sweep a (p, q) window and render it")
    common(sp)
    formats(sp, "plot")
    sp.add_argument("--p-range", default=None, help="a..b")
    sp.add_argument("--q-range", default=None, help="a..b")
    sp.add_argument("--res", type=int, default=None)
    return parser


# main runs many times in one process when driven from Python; building the
# parser takes about a millisecond and parsing leaves no state in it
_parser = functools.lru_cache(maxsize=1)(build_parser)


def _require_args(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise DomainValidationError(
            "missing required option(s): " + ", ".join(f"--{n}" for n in missing))


def _params(args) -> HardyParams:
    _require_args(args, ["N", "mu1", "mu2"])
    return HardyParams(args.N, args.mu1, args.mu2)


def _formats(args) -> set:
    """The --format list, checked against the formats the command writes."""
    allowed, default = _FORMATS[args.command]
    if args.format is None:
        return set(default)
    fmts = {f.strip() for f in args.format.split(",")} - {""}
    if not fmts:
        raise DomainValidationError("--format names no format")
    bad = fmts.difference(allowed)
    if bad:
        raise DomainValidationError(
            f"{args.command} cannot write format(s) {sorted(bad)}; "
            f"choose from {list(allowed)}")
    return fmts


def _emit_record(record: dict, args, suffix: str = ".json") -> None:
    text = json.dumps(_json_safe(record), indent=2, sort_keys=True,
                      allow_nan=False)
    if args.out:
        with open(args.out + suffix, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _record_head(command: str, params, pq=None) -> dict:
    """A record's schema version, command and point; p and q given pq."""
    rec = {"schema_version": SCHEMA_VERSION, "command": command,
           "n": params.N, "mu1": params.mu1, "mu2": params.mu2}
    return rec if pq is None else {**rec, "p": pq.p, "q": pq.q}


def _certificate_record(cert) -> dict:
    """An iteration outcome as its record: kind, step, value, threshold."""
    return {"kind": cert.kind.value, "step": cert.step, "value": cert.value,
            "threshold": cert.threshold}


def _witness_record(params, pq, region) -> dict:
    w = nonexistence_witness(params, pq, region)
    rec = {"mechanism": w.mechanism, "provenance": w.provenance,
           "description": w.description}
    if w.mechanism == "integrability":
        rec["exponent"] = w.exponent
        rec["weight_mu"] = w.weight_mu
        rec["integrable"] = w.verdict.integrable
        rec["critical_exponent_gap"] = w.verdict.critical_exponent_gap
    else:
        rec["certificate"] = _certificate_record(w.trace.outcome)
        rec["steps"] = len(w.trace.steps) - 1
    return rec


def cmd_classify(args) -> int:
    params = _params(args)
    _require_args(args, ["p", "q"])
    pq = Powers(args.p, args.q)
    region = classify(params, pq)
    record = {
        **_record_head("classify", params, pq),
        "verdict": region.verdict.value,
        "citation": region.citation,
        "margin": region.margin,
        "regime": region.regime,
        "swapped": region.swapped,
        "mu0_edge": region.mu0_edge,
        "domain": region.domain,
    }
    if args.witness and region.verdict is Verdict.NONEXISTENCE:
        record["witness"] = _witness_record(params, pq, region)
    _emit_record(record, args)
    return EXIT_OK


def cmd_iterate(args) -> int:
    params = _params(args)
    _require_args(args, ["p", "q"])
    pq = Powers(args.p, args.q)
    variant = args.variant or "plain"
    cap = args.cap if args.cap is not None else DEFAULT_CAP
    # the library checks cap >= 1; a trace holds one record per cycle
    if cap > MAX_CAP:
        raise DomainValidationError(
            f"--cap must lie in [1, {MAX_CAP}], got {cap}")
    fmts = _formats(args)
    if "csv" in fmts and not args.out:
        raise DomainValidationError("--out is required for csv output")
    run = iterate_plain if variant == "plain" else iterate_clamped
    trace = run(params, pq, cap=cap)
    steps = [{"j": s.j, "tau1": s.tau1, "tau2": s.tau2,
              "tau1_clamped": s.tau1_clamped, "tau2_clamped": s.tau2_clamped,
              "tau1_carried": s.tau1_carried} for s in trace.steps]
    record = {
        **_record_head("iterate", params, pq),
        "variant": variant, "cap": cap,
        "steps": steps,
        "certificate": _certificate_record(trace.outcome),
    }
    if "json" in fmts:
        _emit_record(record, args)
    if "csv" in fmts:
        lines = ["j,tau1,tau2,s_j"]
        prev = None
        for s in trace.steps:
            s_j = "" if prev is None else f"{s.tau1 - prev:.12g}"
            lines.append(f"{s.j},{s.tau1:.12g},{s.tau2:.12g},{s_j}")
            prev = s.tau1
        with open(args.out + ".csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params(args)
    _require_args(args, ["p", "q", "case"])
    # RadialGrid checks count >= 2; verification holds arrays of count
    if args.grid_points is not None and args.grid_points > MAX_GRID_POINTS:
        raise DomainValidationError(
            f"--grid-points must lie in [2, {MAX_GRID_POINTS}], "
            f"got {args.grid_points}")
    pq = Powers(args.p, args.q)
    cand = build_candidate(args.case, params, pq)
    given = {"count": args.grid_points, "r_min": args.r_min}
    grid = default_grid(**{k: v for k, v in given.items() if v is not None})
    found = find_scale(cand, grid=grid)
    if found is None:
        # reported at the smallest scale the scan tries
        t: Optional[float] = None
        report = verify_on_grid(cand, t=SCALE_SCAN[-1], grid=grid)
    else:
        t, report = found
    record = {
        **_record_head("verify", params, pq),
        "case": args.case,
        "ok": report.ok and t is not None,
        "t": t,
        "r_domain": 1.0,
        "min_slack_u": report.min_slack_u,
        "min_slack_v": report.min_slack_v,
        "positivity_ok": report.positivity_ok,
        "diagnostic": report.diagnostic,
        "notes": list(cand.notes),
        "grid": {"r_min": grid.r_min, "r_max": grid.r_max,
                 "count": grid.count},
    }
    _emit_record(record, args)
    return EXIT_OK


def cmd_plot(args) -> int:
    params = _params(args)
    _require_args(args, ["p-range", "q-range", "res"])
    p_range = _parse_range(args.p_range)
    q_range = _parse_range(args.q_range)
    res = args.res
    if not (2 <= res <= 4096):
        raise DomainValidationError(f"--res must lie in [2, 4096], got {res}")
    fmts = _formats(args)
    if not args.out:
        raise DomainValidationError("--out is required for plot")

    spec = PlotSpec(params=params, p_range=p_range, q_range=q_range,
                    resolution=res,
                    title=f"N={params.N} mu1={params.mu1:g} mu2={params.mu2:g}")
    files = {"csv": None, "svg": None}
    # the JSON record holds no cell, so a JSON-only plot classifies none
    if "csv" in fmts or "svg" in fmts:
        p_values = np.linspace(p_range[0], p_range[1], res)
        q_values = np.linspace(q_range[0], q_range[1], res)
        codes, margins, _flags = classify_field(params, p_values, q_values)
    if "csv" in fmts:
        files["csv"] = args.out + ".csv"
        emit_csv(codes, margins, spec, files["csv"])
    if "svg" in fmts:
        files["svg"] = args.out + ".svg"
        emit_svg(codes, spec, files["svg"])
    if "json" in fmts:
        record = {
            **_record_head("plot", params),
            "p_range": list(p_range), "q_range": list(q_range),
            "resolution": res,
            "markers": {k: list(v) for k, v in
                        sorted(region_markers(params, p_range,
                                              q_range).items())},
            "files": files,
        }
        _emit_record(record, args)
    return EXIT_OK


_COMMANDS = ("classify", "iterate", "verify", "plot")


def _config_argv(path: str) -> tuple:
    """Read a JSON config; returns (its command or None, its option tokens)."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DomainValidationError(
            f"config {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(config, dict):
        raise DomainValidationError(
            f"config {path} must hold a JSON object, not "
            f"{type(config).__name__}")
    tokens = []
    for key, value in config.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, (str, int, float)):
            tokens.append(f"{flag}={value}")
        else:
            raise DomainValidationError(
                f"config value of {key!r} must be a string, number or "
                f"boolean")
    return config.get("command"), tokens


def _parse(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """Parse argv once, the --config options ahead of the explicit flags."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is not None:
        command, tokens = _config_argv(known.config)
        if rest and rest[0] in _COMMANDS:
            command, rest = rest[0], rest[1:]
        if command not in _COMMANDS:
            raise DomainValidationError(
                f"config must name a command from {_COMMANDS}")
        rest = [command] + tokens + rest
    return parser.parse_args(rest)


def _fail(code: int, prefix: str, exc: BaseException) -> int:
    print(f"{prefix}: " + " ".join(str(exc).split()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(parser, argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        handler = {"classify": cmd_classify, "iterate": cmd_iterate,
                   "verify": cmd_verify, "plot": cmd_plot}[args.command]
        return handler(args)
    except WitnessMismatchError as exc:
        return _fail(EXIT_INCONSISTENT, "internal inconsistency", exc)
    except (DomainValidationError, OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_VALIDATION, "error", exc)
    except Exception as exc:
        return _fail(EXIT_INCONSISTENT,
                     f"internal error ({type(exc).__name__})", exc)


if __name__ == "__main__":
    sys.exit(main())
