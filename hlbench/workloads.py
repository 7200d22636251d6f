"""The three workloads: inputs from the seed, one operation, output checks.

Each workload yields rounds of operations.  A run's block is its first
BLOCK_ROUNDS rounds; the block is executed pass after pass, so every run
attempts whole rounds of the same mix of operations, and each operation
is timed by the median of its executions (see "Timing on a shared host"
in README.md).  The program is
called through module attributes at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import filecmp
import json
import os
from xml.etree import ElementTree
from itertools import count

import jsonschema
import numpy as np

import oracle
from hardylane import _kernels as K
from hardylane import cli, constructions, regions
from hardylane.exponents import DomainValidationError, HardyParams, Powers

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _remove(prefix):
    for ext in (".csv", ".svg", ".json"):
        os.remove(prefix + ext)


class PlotGrid:
    """One `hardylane plot` at 200x200 per operation, four windows a round."""

    name = "plot-grid"
    WINDOWS = ((5, -2.0, -2.0),     # regime B
               (5, -2.0, 0.0),      # regime A
               (5, 0.0, -2.0),      # mirrored regime A
               (5, -2.25, 0.0))     # threshold edge mu1 = mu0
    RANGE = (0.1, 8.0)
    RES = 200
    FORMATS = "csv,svg,json"
    BLOCK_ROUNDS = 1

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.first = {}         # window -> prefix of its first plot
        self.plots = 0

    def _argv(self, window, res, prefix):
        N, mu1, mu2 = window
        span = f"{self.RANGE[0]}..{self.RANGE[1]}"
        return ["plot", "--N", str(N), "--mu1", str(mu1), "--mu2", str(mu2),
                "--p-range", span, "--q-range", span, "--res", str(res),
                "--format", self.FORMATS, "--out", prefix]

    def warm_up(self):
        prefix = os.path.join(self.out_dir, "warm")
        if cli.main(self._argv(self.WINDOWS[0], 8, prefix)) != 0:
            raise RuntimeError("warm-up plot failed")
        _remove(prefix)

    def rounds(self, seed):
        # the windows are fixed; the seed only rotates their order
        order = [self.WINDOWS[(seed + k) % 4] for k in range(4)]
        while True:
            yield order

    def run(self, window):
        self.plots += 1
        prefix = os.path.join(self.out_dir, f"plot{self.plots}")
        rc = cli.main(self._argv(window, self.RES, prefix))
        if rc != 0:
            raise RuntimeError(f"plot exited {rc}")
        return prefix

    def check(self, window, prefix):
        """Check the record; a repeated window must give identical files."""
        fails = self._check_record(window, prefix)
        first = self.first.setdefault(window, prefix)
        if first != prefix:
            for ext in (".csv", ".svg"):
                if not filecmp.cmp(first + ext, prefix + ext, shallow=False):
                    fails.append(f"{prefix}{ext} differs from the first plot "
                                 f"of window {window}")
            _remove(prefix)
        return fails

    def finish(self):
        """Check the CSV and SVG of each window's first plot."""
        fails, notes = [], []
        for window, prefix in self.first.items():
            f, excluded = self._check_files(window, prefix)
            fails += f
            notes.append(f"window N,mu1,mu2={window}: {excluded} cells "
                         f"within {oracle.BOUNDARY_BAND:g} of a boundary "
                         f"excluded")
            _remove(prefix)
        return fails, notes

    def _check_record(self, window, prefix):
        N, mu1, mu2 = window
        with open(prefix + ".json", encoding="utf-8") as fh:
            record = json.load(fh)
        schema_path = os.path.join(SRC, "hardylane", "schemas",
                                   "plot.schema.json")
        with open(schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
        try:
            jsonschema.validate(record, schema)
        except jsonschema.ValidationError as exc:
            return [f"{prefix}.json: {exc.message}"]
        want = {"n": N, "mu1": mu1, "mu2": mu2, "resolution": self.RES,
                "p_range": list(self.RANGE), "q_range": list(self.RANGE),
                "files": {"csv": prefix + ".csv", "svg": prefix + ".svg"}}
        fails = [f"{prefix}.json: {k} = {record.get(k)!r}, expected {v!r}"
                 for k, v in want.items() if record.get(k) != v]
        markers = {k: tuple(v) for k, v in record["markers"].items()}
        fails += [f"{prefix}.json: {m}" for m in oracle.check_markers(
            markers, N, mu1, mu2, self.RANGE, self.RANGE)]
        return fails

    def _check_files(self, window, prefix):
        res = self.RES
        grid = np.linspace(self.RANGE[0], self.RANGE[1], res)
        with open(prefix + ".csv", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines[0] != "p,q,verdict,citation,margin" or lines[-1] != "" \
                or len(lines) != res * res + 2:
            return [f"{prefix}.csv: header or row count wrong "
                    f"({len(lines) - 2} rows)"], 0
        cells = np.array(",".join(lines[1:-1]).split(","))
        if cells.size != 5 * res * res:
            return [f"{prefix}.csv: rows do not have five fields"], 0
        cells = cells.reshape(res, res, 5)
        p, q = cells[..., 0].astype(float), cells[..., 1].astype(float)
        verdicts, citations = cells[..., 2], cells[..., 3]
        fails = []
        if not (np.allclose(p, grid[None, :], rtol=1e-11, atol=0)
                and np.allclose(q, grid[:, None], rtol=1e-11, atol=0)):
            fails.append(f"{prefix}.csv: p, q columns are not the "
                         f"{res}x{res} grid in row-major q, p order")
        f, excluded = oracle.check_region_grid(*window, grid, grid, verdicts,
                                               citations)
        fails += [f"{prefix}.csv: {m}" for m in f]
        fails += [f"{prefix}.svg: {m}" for m in
                  check_svg_cells(prefix + ".svg", res, citations)]
        return fails, excluded


def check_svg_cells(path, res, citations):
    """Read the SVG's cells through its legend and compare with the CSV.

    The frame (the first rect with fill="none") bounds the plot area.
    Rects are painted in document order onto a res x res cell raster, so
    one rect per cell and merged runs read the same.  The legend pairs
    each swatch with the text "verdict: citation" that follows it.
    """
    try:
        root = ElementTree.parse(path).getroot()
    except ElementTree.ParseError as exc:
        return [f"not well-formed XML: {exc}"]
    boxes, fills, legend, swatch = [], [], {}, None
    for el in root.iter():
        tag = el.tag.rpartition("}")[2]
        if tag == "rect":
            boxes.append([el.get(k) for k in ("x", "y", "width", "height")])
            swatch = el.get("fill", "")
            fills.append(swatch)
        elif tag == "text":
            verdict, _, cite = "".join(el.itertext()).partition(": ")
            if swatch and verdict in oracle.VERDICTS and cite:
                if legend.setdefault(swatch, cite) != cite:
                    return [f"legend colour {swatch} names two citations"]
            swatch = None
    if "none" not in fills:
        return ["no plot frame (rect with fill='none')"]
    box = np.array(boxes, dtype=float)
    x0, y0, width, height = box[fills.index("none")]
    names = sorted(set(legend.values()))
    ids = np.array([-3 if f == "none" else names.index(legend[f])
                    if f in legend else -1 for f in fills] + [-2])
    cols = np.clip(np.rint((box[:, [0, 0]] + [0, 1] * box[:, [2, 2]] - x0)
                           / (width / res)), 0, res).astype(int)
    rows = np.clip(np.rint((box[:, [1, 1]] + [0, 1] * box[:, [3, 3]] - y0)
                           / (height / res)), 0, res).astype(int)
    # each cell takes the last rect, in document order, that covers it;
    # index len(fills) (id -2) marks a cell no rect covers
    painted = (ids[:-1] != -3) & (cols[:, 0] < cols[:, 1]) \
        & (rows[:, 0] < rows[:, 1])
    last = np.full((res, res), -1, dtype=np.int64)
    single = painted & (cols[:, 1] - cols[:, 0] == 1) \
        & (rows[:, 1] - rows[:, 0] == 1)
    k = np.flatnonzero(single)
    np.maximum.at(last, (rows[k, 0], cols[k, 0]), k)
    for k in np.flatnonzero(painted & ~single):
        (i0, i1), (j0, j1) = rows[k], cols[k]
        np.maximum(last[i0:i1, j0:j1], k, out=last[i0:i1, j0:j1])
    raster = ids[last]
    if (raster < 0).any():
        return [f"{int((raster < 0).sum())} cells not painted with a "
                f"legend colour"]
    # raster rows run top to bottom (q descending); CSV rows q ascending
    got = np.array(names, dtype=object)[raster[::-1]]
    bad = got != np.asarray(citations, dtype=object)
    if bad.any():
        return [f"{int(bad.sum())} cells read through the legend differ "
                f"from the CSV citation"]
    return []


def _program_codes():
    """Region code -> (verdict, citation), read off the program once."""
    table = {}
    for name in dir(K):
        if name.startswith("CODE_"):
            c = getattr(K, name)
            try:
                rc = regions._wrap(c, 0.0, 0)
                table[c] = (rc.verdict.value, rc.citation)
            except DomainValidationError:
                table[c] = ("invalid", "")
    return table


class SweepCertify:
    """Classify a random batch, then certify every nonexistence verdict."""

    name = "sweep-certify"
    BATCH = 1024
    BLOCK_ROUNDS = 100
    MU0_SHARE = 32          # points per batch with mu1 = mu0, and with mu2 = mu0

    def __init__(self, out_dir):
        self.codes = _program_codes()
        self.ne_codes = np.array(sorted(c for c, (v, _) in self.codes.items()
                                        if v == "nonexistence"))
        self.excluded = 0

    def batch(self, rng, n):
        N = rng.integers(3, 11, n)
        mu0 = oracle.mu_zero(N)
        mu1 = mu0 + rng.random(n) * (3.0 - mu0)
        mu2 = mu0 + rng.random(n) * (3.0 - mu0)
        k = min(self.MU0_SHARE, n // 4)
        mu1[:k] = mu0[:k]
        mu2[k:2 * k] = mu0[k:2 * k]
        p = 20.0 * (1.0 - rng.random(n))
        q = 20.0 * (1.0 - rng.random(n))
        return N.astype(np.int64), mu1, mu2, p, q

    def warm_up(self):
        self.run(self.batch(np.random.default_rng(0), 64))

    def rounds(self, seed):
        for r in count():
            yield [self.batch(np.random.default_rng([seed, r]), self.BATCH)]

    def run(self, batch):
        N, mu1, mu2, p, q = batch
        codes, margins, flags = K.classify_codes(N, mu1, mu2, p, q)
        idx = np.flatnonzero(np.isin(codes, self.ne_codes))
        witnesses = []
        for i in idx:
            region = regions._wrap(int(codes[i]), float(margins[i]),
                                   int(flags[i]))
            witnesses.append(regions.nonexistence_witness(
                HardyParams(int(N[i]), float(mu1[i]), float(mu2[i])),
                Powers(float(p[i]), float(q[i])), region))
        return codes, idx, witnesses

    def check(self, batch, out):
        N, mu1, mu2, p, q = batch
        codes, idx, witnesses = out
        fails = []
        known = np.isin(codes, list(self.codes))
        pairs = [self.codes[int(c)] if ok else ("invalid", "")
                 for c, ok in zip(codes, known)]
        verdicts = np.array([v for v, _ in pairs])
        cites = [c for _, c in pairs]
        if (verdicts == "invalid").any():
            fails.append(f"{int((verdicts == 'invalid').sum())} points "
                         f"classified invalid")
        ne, ex, near = oracle.region_masks(N, mu1, mu2, p, q)
        self.excluded += int(near.sum())
        got_ne = verdicts == "nonexistence"
        if ((got_ne != ne) & ~near).any():
            fails.append("nonexistence verdicts differ from the literal "
                         "predicates")
        if ((verdicts == "exists_supersolution") & ~ex & ~near).any():
            fails.append("existence verdict outside every construction "
                         "region")
        if len(witnesses) != int(got_ne.sum()):
            fails.append("a nonexistence verdict has no witness")
        for i, w in zip(idx, witnesses):
            if w.mechanism == "integrability":
                d = {"mechanism": w.mechanism, "exponent": w.exponent,
                     "weight_mu": w.weight_mu}
            else:
                cert = w.trace.outcome
                d = {"mechanism": w.mechanism,
                     "variant": w.trace.variant.value, "kind": cert.kind.value,
                     "step": cert.step, "value": cert.value}
            f = oracle.check_witness(int(N[i]), float(mu1[i]), float(mu2[i]),
                                     float(p[i]), float(q[i]), cites[i], d)
            if f:
                fails.append(f"point {i} (N={N[i]}, mu1={mu1[i]!r}, "
                             f"mu2={mu2[i]!r}, p={p[i]!r}, q={q[i]!r}): "
                             f"{f[0]}")
                break
        return fails

    def finish(self):
        return [], [f"{self.excluded} points within "
                    f"{oracle.BOUNDARY_BAND:g} of a boundary excluded"]


# --- construct-verify samplers (closed forms from oracle only) ---------------

def _interior(rng, N):
    """A coefficient in the interior of [mu0, 0), away from both ends."""
    m0 = float(oracle.mu_zero(N))
    return m0 + (0.05 + 0.9 * rng.random()) * (-m0)


def _accepting_point(case, rng):
    """A point satisfying case `case`'s hypotheses, clear of degeneracies."""
    for _ in range(10_000):
        N = int(rng.integers(3, 7))
        mu1 = _interior(rng, N)
        if case in ("C1", "C2", "C3"):
            mu2 = float(rng.uniform(0.05, 2.0))
        elif case == "C3log":
            mu2 = 0.0
        else:
            mu2 = _interior(rng, N)
        t1, t2 = oracle.tau_plus(N, mu1), oracle.tau_plus(N, mu2)
        q_up, p_up = (N + t2) / -t1, (N + t1) / -t2 if t2 < 0 else None
        q_lo = 2.0 / -t1 if case in ("C1", "C2", "C3", "C3log") \
            else (2.0 - t2) / -t1
        p_lo = (2.0 - t1) / -t2 if t2 < 0 else None
        if case in ("C1", "C4"):
            lo = max(q_lo, 1.0) * 1.02
            if lo >= 0.98 * q_up:
                continue
            q = rng.uniform(lo, lo + 0.7 * (0.98 * q_up - lo))
            p_max = (2.0 - t1) / -(t1 * q + 2.0)      # e1 > 0 below it
            if 0.95 * p_max <= 1.1:
                continue
            p = rng.uniform(1.05, min(0.95 * p_max, 8.0))
        elif case == "C2":
            if q_lo <= 1.1:
                continue
            q = rng.uniform(1.05, 0.97 * q_lo)
            if abs(q - (2.0 - t2) / -t1) < 0.02:     # the C2 degenerate line
                continue
            p = rng.uniform(1.05, 6.0)
        elif case in ("C3", "C3log"):
            if q_lo <= 1.1:
                continue
            q, p = q_lo, rng.uniform(1.05, 6.0)
        elif case == "C5":
            if min(q_lo, p_lo) <= 1.1:
                continue
            q = rng.uniform(1.05, 0.97 * q_lo)
            p = rng.uniform(1.05, 0.97 * p_lo)
        elif case == "C6":
            if min(q_lo, p_lo) <= 1.1:
                continue
            q, p = q_lo, rng.uniform(1.05, 0.97 * p_lo)
        elif case == "C7":
            if min(q_lo, p_lo) <= 1.1:
                continue
            p, q = p_lo, rng.uniform(1.05, 0.97 * q_lo)
        else:  # C8
            lo = max(p_lo, 1.0) * 1.02
            if lo >= 0.98 * p_up:
                continue
            p = rng.uniform(lo, lo + 0.7 * (0.98 * p_up - lo))
            q_max = (2.0 - t2) / -(t2 * p + 2.0)      # e2 > 0 below it
            if 0.95 * q_max <= 1.1:
                continue
            q = rng.uniform(1.05, min(0.95 * q_max, 8.0))
        return case[:2], (N, mu1, mu2, float(p), float(q))
    raise RuntimeError(f"no {case} point found")


def _rejecting_point(kind, rng):
    """A wrong-side candidate in a nonexistence region next to its case."""
    for _ in range(10_000):
        N = int(rng.integers(3, 7))
        mu1 = _interior(rng, N)
        mu2 = float(rng.uniform(0.0, 2.0)) if kind in ("T1.i", "T1.ii") \
            else _interior(rng, N)
        t1, t2 = oracle.tau_plus(N, mu1), oracle.tau_plus(N, mu2)
        q_up = (N + t2) / -t1
        if kind == "T1.i":
            case = "C1"
            q = rng.uniform(1.02 * q_up, 1.02 * q_up + 3.0)
            p = rng.uniform(1.05, 6.0)
        elif kind in ("T1.ii", "T2.ii"):
            case = "C1" if kind == "T1.ii" else "C4"
            lo = max(2.0 / -t1 if kind == "T1.ii" else (2.0 - t2) / -t1, 1.0)
            if 1.02 * lo >= 0.98 * q_up:
                continue
            q = rng.uniform(1.02 * lo, 0.98 * q_up)
            p_min = max(1.05, 1.05 * (2.0 - t1) / -(t1 * q + 2.0))  # e1 < 0
            p = rng.uniform(p_min, p_min + 3.0)
        else:  # T2.iii
            case = "C8"
            p_up = (N + t1) / -t2
            lo = max((2.0 - t1) / -t2, 1.0)
            if 1.02 * lo >= 0.98 * p_up:
                continue
            p = rng.uniform(1.02 * lo, 0.98 * p_up)
            q_min = max(1.05, 1.05 * (2.0 - t2) / -(t2 * p + 2.0))  # e2 < 0
            q = rng.uniform(q_min, q_min + 3.0)
        ne, _, near = oracle.region_masks(N, mu1, mu2, p, q)
        if ne and not near:
            return case, (N, mu1, mu2, float(p), float(q))
    raise RuntimeError(f"no {kind} point found")


class ConstructVerify:
    """build_candidate + find_scale on one point per operation."""

    name = "construct-verify"
    WORKED = ("C1", (5, -2.0, 0.0, 2.0, 3.0))
    ACCEPT = ("C1", "C2", "C3", "C3log", "C4", "C5", "C6", "C7", "C8")
    # more rejecting than accepting operations per round, so the median
    # latency follows the rejecting scan and the 90th percentile the
    # accepting verification
    REJECT = ("T1.ii",) * 4 + ("T1.i",) * 4 + ("T2.ii",) * 4 + ("T2.iii",) * 3
    BLOCK_ROUNDS = 40

    def __init__(self, out_dir):
        pass

    def warm_up(self):
        self.run((True,) + self.WORKED)

    def rounds(self, seed):
        for r in count():
            rng = np.random.default_rng([seed, r])
            ops = [(True,) + self.WORKED]
            ops += [(True,) + _accepting_point(c, rng) for c in self.ACCEPT]
            ops += [(False,) + _rejecting_point(k, rng) for k in self.REJECT]
            yield ops

    def run(self, op):
        accept, case, (N, mu1, mu2, p, q) = op
        cand = constructions.build_candidate(case, HardyParams(N, mu1, mu2),
                                             Powers(p, q), strict=accept)
        return cand, constructions.find_scale(cand)

    def check(self, op, out):
        accept, case, (N, mu1, mu2, p, q) = op
        cand, found = out
        where = f"{case} at N={N} mu1={mu1!r} mu2={mu2!r} p={p!r} q={q!r}"
        if not accept:
            return [] if found is None else [f"wrong-side {where} accepted"]
        if found is None or not found[0] > 0:
            return [f"{where}: no scale found"]
        t, report = found
        g = report.grid
        radii = np.geomspace(g.r_min, g.r_max, g.count)
        u = [(s.tau, s.log_power, s.coeff) for s in cand.u.terms]
        v = [(s.tau, s.log_power, s.coeff) for s in cand.v.terms]
        fails = [f"{where}: {m}" for m in oracle.check_supersolution(
            N, mu1, mu2, p, q, u, v, t, radii)]
        if (case, (N, mu1, mu2, p, q)) == self.WORKED:
            lu, _ = oracle.hardy_image(N, mu1, u, radii)
            slack = t * lu - (t * oracle.radial_value(v, radii)) ** p
            if t != 1.0 or np.max(np.abs(slack * radii ** 2 - (2 * t - t * t))) > 1e-9:
                fails.append(f"worked instance: t={t}, slack is not "
                             f"(2t - t^2) r^-2")
        return fails

    def finish(self):
        return [], []


WORKLOADS = {w.name: w for w in (PlotGrid, SweepCertify, ConstructVerify)}
