import contextlib
import hashlib
import io
import json
import tempfile
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylane import cli
from hardylane.constructions import CASE_IDS, build_candidate
from hardylane.exponents import DomainValidationError, HardyParams, Powers
from hardylane.radial import default_grid
from hardylane.regions import _OUTCOMES, classify_field
from hardylane.schemas import SCHEMA_VERSION, load_schema
from oracles import FD_DEV_LIMIT, fd_deviation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


CODE_BY_CITATION = {cite: code for code, (_, cite, _) in _OUTCOMES.items()}


def svg_raster(svg, res):
    """Paint the SVG's grid rects, in document order, onto a code raster.

    The legend maps each swatch colour to the citation named next to it;
    the frame (the rect with fill="none") bounds the plot area.  Returns
    (codes, cell rect count) with codes[i, j] for q row i ascending, p
    column j ascending, and -99 where no rect paints a cell.
    """
    items = [(el.tag.rpartition("}")[2], el)
             for el in ElementTree.fromstring(svg).iter()]
    legend = {}
    for (tag, el), (next_tag, nxt) in zip(items, items[1:]):
        if tag == "rect" and el.get("stroke") and next_tag == "text":
            _, sep, citation = "".join(nxt.itertext()).partition(": ")
            if sep:
                legend[el.get("fill")] = CODE_BY_CITATION[citation]
    rects = [el for tag, el in items if tag == "rect"]
    frame = next(el for el in rects if el.get("fill") == "none")
    x0, y0, width, height = (float(frame.get(k))
                             for k in ("x", "y", "width", "height"))
    raster = np.full((res, res), -99)
    cells = 0
    for el in rects:
        if el.get("stroke") or el.get("fill") not in legend:
            continue
        x, y, w, h = (float(el.get(k)) for k in ("x", "y", "width", "height"))
        j0, j1 = (round((v - x0) / (width / res)) for v in (x, x + w))
        i0, i1 = (round((v - y0) / (height / res)) for v in (y, y + h))
        raster[i0:i1, j0:j1] = legend[el.get("fill")]
        cells += 1
    return raster[::-1], cells


class TestClassifyCommand:
    def test_worked_example(self, capsys):
        rec = run_json(capsys, "classify", "--N", "5", "--mu1", "-2",
                       "--mu2", "0", "--p", "2", "--q", "4")
        assert rec["verdict"] == "nonexistence"
        assert rec["citation"] == "T1.ii"
        assert rec["margin"] == pytest.approx(-1.0)
        jsonschema.validate(rec, load_schema("classify"))

    def test_witness_attached(self, capsys):
        rec = run_json(capsys, "classify", "--N", "5", "--mu1", "-2",
                       "--mu2", "0", "--p", "2", "--q", "4", "--witness")
        assert rec["witness"]["mechanism"] == "iteration"
        assert rec["witness"]["certificate"]["kind"] == "crossed_tau1"
        jsonschema.validate(rec, load_schema("classify"))

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "point"
        code, _, _ = run_cli(capsys, "classify", "--N", "5", "--mu1", "-2",
                             "--mu2", "0", "--p", "3", "--q", "3",
                             "--out", str(out))
        assert code == 0
        rec = json.loads((tmp_path / "point.json").read_text())
        assert rec["citation"] == "CriticalCurve.AQ"

    def test_missing_argument(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--N", "5",
                               "--mu1", "-2", "--mu2", "0", "--p", "2")
        assert code == 1
        assert "--q" in err

    def test_invalid_mu(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--N", "5", "--mu1", "-9",
                               "--mu2", "0", "--p", "2", "--q", "2")
        assert code == 1

    @pytest.mark.parametrize("text", ["-1e-06", "-2.25E+0", "-.5", "-1."])
    def test_negative_value_as_separate_token(self, capsys, text):
        rec = run_json(capsys, "classify", "--N", "5", "--mu1", text,
                       "--mu2", "0", "--p", "2", "--q", "3")
        assert rec["mu1"] == float(text)
        assert rec == run_json(capsys, "classify", "--N", "5",
                               f"--mu1={text}", "--mu2", "0", "--p", "2",
                               "--q", "3")

    def test_negative_exponent_value_outside_domain(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--N", "5",
                               "--mu1", "-2.5E+3", "--mu2", "0",
                               "--p", "2", "--q", "3")
        assert code == 1
        assert "below the Hardy threshold" in err

    def test_unknown_option(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p", "2", "--q", "3",
                               "--bogus")
        assert code == 1
        assert "--bogus" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("N", [str(2 ** 53 + 1), str(10 ** 200)])
    def test_dimension_past_two_to_the_53_is_refused(self, capsys, N):
        code, out, err = run_cli(capsys, "classify", "--N", N, "--mu1",
                                 "-2e31", "--mu2", "0", "--p", "2", "--q",
                                 "4", "--witness")
        assert code == 1 and out == ""
        assert err == f"error: dimension N must be <= 2**53, got {N}\n"

    def test_dimension_two_to_the_53_classifies(self, capsys):
        rec = run_json(capsys, "classify", "--N", str(2 ** 53), "--mu1",
                       "-2e31", "--mu2", "0", "--p", "2", "--q", "4",
                       "--witness")
        assert rec["n"] == 2 ** 53 and rec["citation"] == "T1.i"
        assert rec["witness"]["mechanism"] == "integrability"
        jsonschema.validate(rec, load_schema("classify"))

    def test_witness_mismatch_exit_code(self, capsys, monkeypatch):
        from hardylane.regions import WitnessMismatchError

        def boom(*a, **k):
            raise WitnessMismatchError("induced for the exit-code contract")

        monkeypatch.setattr(cli, "nonexistence_witness", boom)
        code, _, err = run_cli(capsys, "classify", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p", "2", "--q", "4",
                               "--witness")
        assert code == 2
        assert "inconsistency" in err

    def test_edge_witness_is_not_integrable(self, capsys):
        # q = 5 - 5e-13 lies on the closed edge q = q_upper = 5 within the
        # classifier's tolerance: the T1.i witness keeps its sigma of
        # rounding noise above 0, and its source is not integrable
        rec = run_json(capsys, "classify", "--N", "5", "--mu1", "-2",
                       "--mu2", "0", "--p", "2", "--q", "4.9999999999995",
                       "--witness")
        assert (rec["verdict"], rec["citation"]) == ("nonexistence", "T1.i")
        witness = rec["witness"]
        assert witness["mechanism"] == "integrability"
        assert witness["integrable"] is False
        assert 0.0 < witness["critical_exponent_gap"] <= 1e-11
        jsonschema.validate(rec, load_schema("classify"))


#: classify --N 5 --mu1=-0.0 --mu2=-2 --p 2 --q 3: tau_+(-0.0) is +0.0.
_NEGATIVE_ZERO_RECORD = """{
  "citation": "T3.i.case3",
  "command": "classify",
  "domain": "unit_ball",
  "margin": 0.0,
  "mu0_edge": false,
  "mu1": -0.0,
  "mu2": -2.0,
  "n": 5,
  "p": 2.0,
  "q": 3.0,
  "regime": "A",
  "schema_version": "2",
  "swapped": true,
  "verdict": "exists_supersolution"
}
"""


class TestExactExponents:
    """tau_+ = -(N-2)/2 + sqrt(mu + (N-2)^2/4) computed without
    cancellation: a small |mu| keeps its sign and its digits."""

    def test_no_false_certificate_near_mu_zero(self, capsys):
        # the cancelling sum gave q_upper = 1,499,999,975.8 (exact:
        # 1,499,999,998.3) and a T1.i witness whose exact exponent is
        # integrable; with e1 = 0.5 > 0 and p < 1 the point is open
        rec = run_json(capsys, "classify", "--N", "5", "--mu1=-1e-8",
                       "--mu2", "0", "--p", "0.5", "--q",
                       "1499999990.8333333", "--witness")
        assert (rec["verdict"], rec["citation"]) == (
            "open_critical", "CriticalCurve.DottedBoundary")
        assert "witness" not in rec

    @pytest.mark.parametrize("N,mu1", [("5", "-1e-17"), ("200000000", "-1")])
    def test_small_negative_mu_is_in_scope(self, capsys, N, mu1):
        rec = run_json(capsys, "classify", "--N", N, f"--mu1={mu1}",
                       "--mu2", "0", "--p", "2", "--q", "3")
        assert (rec["regime"], rec["citation"]) == ("A", "T3.i.case2")

    def test_verify_at_two_to_the_53(self, capsys):
        rec = run_json(capsys, "verify", "--N", str(2 ** 53), "--mu1=-1",
                       "--mu2", "0", "--p", "2", "--q", "3", "--case", "C2")
        assert rec["ok"]

    def test_negative_zero_record(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--N", "5",
                                 "--mu1=-0.0", "--mu2=-2", "--p", "2",
                                 "--q", "3")
        assert (code, out, err) == (0, _NEGATIVE_ZERO_RECORD, "")


def _magnitudes():
    """Floats over [1e-320, 1], subnormals included, of either sign."""
    mag = st.one_of(st.floats(min_value=1e-320, max_value=1.0),
                    st.floats(min_value=1e-320, max_value=1e-300),
                    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]))
    return st.one_of(mag, mag.map(lambda x: -x), st.just(0.0))


_POWERS = st.one_of(st.floats(min_value=1e-3, max_value=1e300),
                    st.floats(min_value=5e-324, max_value=1e-300))


class TestExitCodes:
    """Any admissible or inadmissible number ends in exit 0 or 1: an exit
    2 is an internal error."""

    @given(st.one_of(st.integers(3, 12), st.integers(3, 2 ** 53)),
           _magnitudes(), _magnitudes(), _POWERS, _POWERS,
           st.sampled_from(CASE_IDS))
    @settings(max_examples=200, deadline=None)
    def test_classify_plot_verify_never_exit_2(self, N, mu1, mu2, p, q,
                                               case):
        point = ["--N", str(N), f"--mu1={mu1!r}", f"--mu2={mu2!r}"]
        powers = ["--p", repr(p), "--q", repr(q)]
        with tempfile.TemporaryDirectory() as tmp:
            runs = [["classify", *point, *powers, "--witness"],
                    ["verify", *point, *powers, "--case", case,
                     "--grid-points", "64"],
                    ["plot", *point, "--p-range", f"{p!r}..{2 * p!r}",
                     "--q-range", f"{q / 2!r}..{q!r}", "--res", "4",
                     "--format", "json", "--out", f"{tmp}/x"]]
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                assert code in (0, 1), (argv, err.getvalue())


class TestIterateCommand:
    def test_clamped_trace(self, capsys):
        rec = run_json(capsys, "iterate", "--N", "5", "--mu1", "-2",
                       "--mu2", "-2", "--p", "2.5", "--q", "3.5",
                       "--variant", "clamped")
        assert rec["certificate"]["kind"] == "crossed_tau2"
        assert rec["certificate"]["step"] == 2
        assert rec["certificate"]["value"] == -4.125
        jsonschema.validate(rec, load_schema("iterate"))

    def test_csv_trace(self, capsys, tmp_path):
        out = tmp_path / "trace"
        code, _, _ = run_cli(capsys, "iterate", "--N", "5", "--mu1", "-2",
                             "--mu2", "0", "--p", "2", "--q", "4",
                             "--out", str(out), "--format", "csv,json")
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "j,tau1,tau2,s_j"
        assert lines[1].startswith("0,-1,0,")
        assert lines[2].split(",") == ["1", "-2", "-2", "-1"]

    @pytest.mark.parametrize("cap, message", [
        ("0", "cap must be >= 1, got 0"), ("1", None), ("100000", None),
        ("100001", "--cap must lie in [1, 100000], got 100001")],
        ids=["below", "lowest", "highest", "above"])
    def test_cap_bounds(self, capsys, cap, message):
        # the trace crosses at step 1, so the largest cap runs no further
        code, out, err = run_cli(capsys, "iterate", "--N", "5", "--mu1", "-2",
                                 "--mu2", "0", "--p", "2", "--q", "4",
                                 "--cap", cap)
        if message is None:
            assert code == 0, err
            assert json.loads(out)["cap"] == int(cap)
        else:
            assert code == 1 and out == ""
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt, message", [
        ("svg", "iterate cannot write format(s) ['svg']; "
                "choose from ['csv', 'json']"),
        ("json,svg,pdf", "iterate cannot write format(s) ['pdf', 'svg']; "
                         "choose from ['csv', 'json']"),
        (",", "--format names no format"),
        ("", "--format names no format")],
        ids=["svg", "two-unknown", "comma", "empty"])
    def test_formats_it_cannot_write(self, capsys, tmp_path, fmt, message):
        code, out, err = run_cli(capsys, "iterate", "--N", "5", "--mu1", "-2",
                                 "--mu2", "-2", "--p", "2.5", "--q", "3.5",
                                 "--format", fmt, "--out", str(tmp_path / "x"))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_csv_without_out_prints_nothing(self, capsys):
        # --out is checked before the JSON record would be printed
        code, out, err = run_cli(capsys, "iterate", "--N", "5", "--mu1", "-2",
                                 "--mu2", "-2", "--p", "2.5", "--q", "3.5",
                                 "--format", "json,csv")
        assert (code, out) == (1, "")
        assert err == "error: --out is required for csv output\n"


class TestVerifyCommand:
    def test_verified_construction(self, capsys):
        rec = run_json(capsys, "verify", "--N", "5", "--mu1", "-2",
                       "--mu2", "0", "--p", "2", "--q", "3", "--case", "C1")
        assert rec["ok"] is True
        assert rec["t"] == 1.0
        assert rec["min_slack_u"] >= 0.0
        cand = build_candidate("C1", HardyParams(5, -2.0, 0.0), Powers(2, 3))
        assert fd_deviation(cand, default_grid()) <= FD_DEV_LIMIT
        jsonschema.validate(rec, load_schema("verify"))

    def test_rejects_wrong_hypothesis(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p", "2", "--q", "6",
                               "--case", "C1")
        assert code == 1
        assert "hypothesis" in err

    @pytest.mark.parametrize("flag, message", [
        ("--grid-points=0", "count must be >= 2"),
        ("--r-min=0", "need 0 < r_min < r_max")])
    def test_zero_grid_option_is_rejected(self, capsys, flag, message):
        # 0 is a value to check, not a request for the default
        code, out, err = run_cli(capsys, "verify", "--N", "5", "--mu1", "-2",
                                 "--mu2", "0", "--p", "2", "--q", "3",
                                 "--case", "C1", flag)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("points, message", [
        ("1", "count must be >= 2, got 1"),
        ("1048577", "--grid-points must lie in [2, 1048576], got 1048577")],
        ids=["below", "above"])
    def test_grid_points_outside_bounds(self, capsys, points, message):
        code, out, err = run_cli(capsys, "verify", "--N", "5", "--mu1", "-2",
                                 "--mu2", "0", "--p", "2", "--q", "3",
                                 "--case", "C1", "--grid-points", points)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_grid_points_at_bounds(self, capsys, monkeypatch):
        rec = run_json(capsys, "verify", "--N", "5", "--mu1", "-2", "--mu2",
                       "0", "--p", "2", "--q", "3", "--case", "C1",
                       "--grid-points", "2")
        assert rec["grid"]["count"] == 2

        # 2**20 radii pass the check; the scan on them is not run here
        def stop(cand, grid):
            raise DomainValidationError(f"scan on {grid.count} radii")

        monkeypatch.setattr(cli, "find_scale", stop)
        code, _, err = run_cli(capsys, "verify", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p", "2", "--q", "3",
                               "--case", "C1", "--grid-points", "1048576")
        assert code == 1 and err == "error: scan on 1048576 radii\n"

    @pytest.mark.parametrize("command", [("classify",),
                                         ("verify", "--case", "C1")],
                             ids=["classify", "verify"])
    def test_format_is_not_an_option(self, capsys, command):
        # only iterate and plot read --format; without it both commands run
        point = ("--N", "5", "--mu1", "-2", "--mu2", "0", "--p", "2",
                 "--q", "3")
        assert run_cli(capsys, *command, *point)[0] == 0
        code, out, err = run_cli(capsys, *command, *point, "--format", "svg")
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: --format svg\n"

    def test_overflowing_grid_fails_with_diagnostic(self, capsys):
        # u = r^-1 - 1 overflows at r = 1e-320: the record says so, quietly
        code, out, err = run_cli(capsys, "verify", "--N", "5", "--mu1", "-2",
                                 "--mu2", "0", "--p", "2", "--q", "3",
                                 "--case", "C1", "--r-min", "1e-320")
        assert code == 0 and err == ""
        rec = json.loads(out)
        jsonschema.validate(rec, load_schema("verify"))
        assert rec["ok"] is False and rec["t"] is None
        assert rec["positivity_ok"] is False
        assert rec["diagnostic"] == "u is not finite near r=1.000e-320"

    def test_overflowing_image_fails_with_diagnostic(self, capsys):
        # u and v are finite at r = 1e-300 but Lu overflows: the record
        # names it, and no RuntimeWarning reaches stderr
        code, out, err = run_cli(capsys, "verify", "--N", "5", "--mu1", "-2",
                                 "--mu2", "0", "--p", "2", "--q", "3",
                                 "--case", "C1", "--r-min", "1e-300")
        assert code == 0 and err == ""
        rec = json.loads(out)
        jsonschema.validate(rec, load_schema("verify"))
        assert rec["ok"] is False and rec["t"] is None
        assert rec["positivity_ok"] is True
        assert rec["min_slack_u"] is None
        assert rec["diagnostic"] == "Lu is not finite near r=1.000e-300"

    @pytest.mark.parametrize("case, p, q", [("C6", "2", "3"),
                                            ("C7", "3", "2")])
    def test_log_pair_scale_does_not_shrink_with_r_min(self, capsys, case,
                                                       p, q):
        # C6 and C7 are supersolutions as r -> 0: grids reaching closer to
        # the origin accept the same scale
        scales = set()
        for r_min in ("1e-6", "1e-30", "1e-100"):
            rec = run_json(capsys, "verify", "--N", "5", "--mu1", "-2",
                           "--mu2", "-2", "--p", p, "--q", q, "--case", case,
                           "--r-min", r_min)
            assert rec["ok"] is True
            scales.add(rec["t"])
        assert scales == {0.25}


class TestPlotCommand:
    def test_outputs_and_round_trip(self, capsys, tmp_path):
        out = tmp_path / "regionA"
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p-range", "0.5..6",
                               "--q-range", "0.5..6", "--res", "24",
                               "--out", str(out), "--format", "csv,svg,json")
        assert code == 0, err
        rec = json.loads((tmp_path / "regionA.json").read_text())
        jsonschema.validate(rec, load_schema("plot"))
        csv_path = tmp_path / "regionA.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "p,q,verdict,citation,margin"
        assert len(lines) == 24 * 24 + 1

        # re-classify every row; verdicts and citations must reproduce
        from hardylane.exponents import HardyParams, Powers
        from hardylane.regions import classify
        params = HardyParams(5, -2.0, 0.0)
        for line in lines[1:]:
            p, q, verdict, citation, margin = line.split(",")
            r = classify(params, Powers(float(p), float(q)))
            assert r.verdict.value == verdict
            assert r.citation == citation
            # coordinates are 12-significant-digit rounded, so margins
            # recomputed from them wobble at the 1e-10 level
            assert r.margin == pytest.approx(float(margin), rel=1e-8,
                                             abs=1e-8)

    def test_large_dimension_agrees_with_classify(self, capsys, tmp_path):
        # at N = 1e10 the int64 square (N - 2)^2 would wrap: every cell of
        # the grid must read as classify reads its point
        big = ("--N", "10000000000", "--mu1", "-2", "--mu2", "0")
        code, _, err = run_cli(capsys, "plot", *big, "--p-range", "1..3",
                               "--q-range", "2..4", "--res", "2", "--out",
                               str(tmp_path / "big"), "--format", "csv")
        assert code == 0, err
        lines = (tmp_path / "big.csv").read_text().splitlines()[1:]
        assert len(lines) == 4
        for line in lines:
            p, q, verdict, citation, margin = line.split(",")
            rec = run_json(capsys, "classify", *big, "--p", p, "--q", q)
            assert (rec["verdict"], rec["citation"], rec["margin"]) == \
                (verdict, citation, float(margin))

    def test_json_only_classifies_nothing(self, capsys, tmp_path,
                                          monkeypatch):
        # the record holds ranges, markers and file names, no cell: a
        # JSON-only plot at res 4096 runs no classify_field, and writes
        # the bytes it wrote when it classified the 16.8M cells
        calls = []

        def counted(*args):
            calls.append(args)
            return classify_field(*args)

        monkeypatch.setattr(cli, "classify_field", counted)
        args = ("plot", "--N", "5", "--mu1", "-2", "--mu2", "0",
                "--p-range", "0.1..8", "--q-range", "0.1..8")
        code, _, err = run_cli(capsys, *args, "--res", "8", "--format",
                               "csv,json", "--out", str(tmp_path / "c"))
        assert (code, len(calls)) == (0, 1), err
        code, _, err = run_cli(capsys, *args, "--res", "4096", "--format",
                               "json", "--out", str(tmp_path / "j"))
        assert (code, len(calls)) == (0, 1), err
        assert hashlib.sha256((tmp_path / "j.json").read_bytes()).hexdigest() \
            == "c578af4a4a7874eee879278727da9bf2afff7123450f3ba82fe6a1221ad80bb0"

    def test_svg_deterministic(self, capsys, tmp_path):
        args = ("plot", "--N", "5", "--mu1", "-2", "--mu2", "-2",
                "--p-range", "0.5..6", "--q-range", "0.5..6", "--res", "16",
                "--format", "svg")
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a.svg").read_bytes() == \
            (tmp_path / "b.svg").read_bytes()

    def _plot_raster(self, capsys, tmp_path, mu1, mu2, span, res):
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1", mu1,
                               "--mu2", mu2, "--p-range", span,
                               "--q-range", span, "--res", str(res),
                               "--out", str(tmp_path / "r"), "--format", "svg")
        assert code == 0, err
        svg = (tmp_path / "r.svg").read_text()
        lo, hi = (float(v) for v in span.split(".."))
        grid = np.linspace(lo, hi, res)
        codes, _, _ = classify_field(HardyParams(5, float(mu1), float(mu2)),
                                     grid, grid)
        raster, cells = svg_raster(svg, res)
        assert np.array_equal(raster, codes)
        return svg, cells

    def test_two_by_two_structure(self, capsys, tmp_path):
        svg, cells = self._plot_raster(capsys, tmp_path, "1", "1", "1..2", 2)
        assert cells == 4           # one rect per grid cell
        assert "legend" in svg
        assert "out_of_scope: Scope" in svg

    def test_regime_b_raster_round_trip(self, capsys, tmp_path):
        self._plot_raster(capsys, tmp_path, "-2", "-2", "0.1..8", 64)

    def test_markers_regime_b(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1", "-2",
                               "--mu2", "-2", "--p-range", "0.1..6",
                               "--q-range", "0.1..6", "--res", "8",
                               "--out", str(tmp_path / "m"),
                               "--format", "json")
        assert code == 0, err
        rec = json.loads((tmp_path / "m.json").read_text())
        markers = rec["markers"]
        assert markers["B"] == [3.0, 3.0]
        assert markers["E"] == [0.0, 4.0]
        assert markers["D"] == [4.0, 0.0]

    def test_exponent_rounding_to_zero_has_no_markers(self, capsys, tmp_path):
        # tau_+(-1e-20) = -1e-20/3 does not round to 0: the point is in
        # regime A, whose half-plane and strip edges lie far above the
        # window; only the curve's exit Q, off the window, is left out
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1=-1e-20",
                               "--mu2", "0", "--p-range", "0.5..4",
                               "--q-range", "0.5..6", "--res", "20",
                               "--out", str(out), "--format", "json")
        assert code == 0, err
        markers = json.loads((tmp_path / "x.json").read_text())["markers"]
        assert sorted(markers) == ["A", "E", "M"]
        assert markers["E"] == [0.0, 1.5e21]
        assert markers["M"] == [0.0, 6e20]

    def test_res_outside_bounds(self, capsys, tmp_path):
        for res in ("1", "5000"):
            code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1", "-2",
                                   "--mu2", "0", "--p-range", "1..2",
                                   "--q-range", "1..2", "--res", res,
                                   "--out", str(tmp_path / "r"))
            assert code == 1
            assert "--res must lie in [2, 4096]" in err

    def test_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p-range", "1..2",
                               "--q-range", "1..2", "--res", "4")
        assert code == 1

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p-range", "2..1",
                               "--q-range", "1..2", "--res", "4",
                               "--out", "/tmp/x")
        assert code == 1

    @pytest.mark.parametrize("span", ["0.1..inf", "inf..inf", "0.1..nan"])
    def test_non_finite_range(self, capsys, tmp_path, span):
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1", "-2",
                               "--mu2", "-2", "--p-range", span,
                               "--q-range", "0.1..8", "--res", "4",
                               "--out", str(tmp_path / "x"))
        assert code == 1
        assert err == f"error: range bounds must be finite, got {span}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt, message", [
        (",", "--format names no format"),
        (" , ", "--format names no format"),
        ("svg,png", "plot cannot write format(s) ['png']; "
                    "choose from ['csv', 'json', 'svg']")],
        ids=["comma", "blank", "png"])
    def test_formats_it_cannot_write(self, capsys, tmp_path, fmt, message):
        code, out, err = run_cli(capsys, "plot", "--N", "5", "--mu1", "-2",
                                 "--mu2", "-2", "--p-range", "0.1..8",
                                 "--q-range", "0.1..8", "--res", "4",
                                 "--format", fmt, "--out", str(tmp_path / "x"))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


_POINT = ("--N", "5", "--mu1", "-2", "--mu2", "0")

#: One command line per form of record the four commands emit: classify at
#: an existence point and with each witness mechanism, iterate in both
#: variants, verify accepting, with notes and with no scale, and plot's
#: JSON record with and without files.
_RECORD_FORMS = (
    ("classify", *_POINT, "--p", "2", "--q", "3", "--witness"),
    ("classify", *_POINT, "--p", "2", "--q", "4.9999999999995", "--witness"),
    ("classify", *_POINT, "--p", "2", "--q", "4", "--witness"),
    ("iterate", "--N", "5", "--mu1", "-2", "--mu2", "-2", "--p", "2.5",
     "--q", "3.5"),
    ("iterate", "--N", "5", "--mu1", "-2", "--mu2", "-2", "--p", "2.5",
     "--q", "3.5", "--variant", "clamped"),
    ("verify", *_POINT, "--p", "2", "--q", "3", "--case", "C1"),
    ("verify", "--N", "5", "--mu1", "-2", "--mu2", "4", "--p", "2",
     "--q", "1.5", "--case", "C2"),
    ("verify", *_POINT, "--p", "2", "--q", "3", "--case", "C1",
     "--r-min=1e-320"),
    ("plot", *_POINT, "--p-range", "0.1..8", "--q-range", "0.1..8",
     "--res", "4", "--format", "json"),
    ("plot", *_POINT, "--p-range", "0.1..8", "--q-range", "0.1..8",
     "--res", "4", "--format", "csv,svg,json"))


def schema_mismatches(record, schema, path="record"):
    """Each key of record, at any depth, that its schema's properties do
    not declare, and each key its required list names that is missing."""
    found = []
    if isinstance(record, dict) and "properties" in schema:
        declared = schema["properties"]
        found += [f"{path}.{key} undeclared" for key in record
                  if key not in declared]
        found += [f"{path}.{key} missing" for key in schema.get("required", ())
                  if key not in record]
        for key, value in record.items():
            if key in declared:
                found += schema_mismatches(value, declared[key],
                                           f"{path}.{key}")
    elif isinstance(record, list) and "items" in schema:
        for i, value in enumerate(record):
            found += schema_mismatches(value, schema["items"], f"{path}[{i}]")
    return found


@pytest.mark.parametrize("argv", _RECORD_FORMS,
                         ids=[f"{a[0]}-{k}" for k, a in
                              enumerate(_RECORD_FORMS)])
def test_records_and_schemas_agree(argv, capsys, tmp_path):
    # jsonschema passes a key no schema declares (none sets
    # additionalProperties): every key emitted is declared, every required
    # one emitted, and every shipped schema is of SCHEMA_VERSION
    command = argv[0]
    if command == "plot":
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 0, err
        record = json.loads((tmp_path / "x.json").read_text())
    else:
        record = run_json(capsys, *argv)
    schema = load_schema(command)
    assert schema_mismatches(record, schema) == []
    jsonschema.validate(record, schema)
    for kind in ("classify", "iterate", "verify", "plot"):
        assert load_schema(kind)["properties"]["schema_version"] == \
            {"const": SCHEMA_VERSION}, kind


class TestParserReuse:
    """main builds its parser once per process; reusing it changes nothing."""

    def _session(self, capsys, work, fresh_parser):
        """Run a mixed series of commands in work; one result per call."""
        work.mkdir()
        cfg = work / "run.json"
        cfg.write_text(json.dumps({
            "command": "plot", "N": 5, "mu1": -2.0, "mu2": 0.0,
            "p-range": "0.5..6", "q-range": "0.5..6", "res": 4,
            "out": str(work / "cfg"), "format": "csv,json"}))
        calls = [
            ("classify", "--N", "5", "--mu1", "-2", "--mu2", "0", "--p", "2",
             "--q", "4", "--witness"),
            ("plot", "--N", "5", "--mu1", "-2", "--mu2", "-2", "--p-range",
             "0.1..8", "--q-range", "0.1..8", "--res", "5", "--format",
             "svg,json", "--out", str(work / "plot")),
            ("--config", str(cfg)),
            ("iterate", "--N", "5", "--mu1", "-2", "--mu2", "-2", "--p",
             "2.5", "--q", "3.5", "--variant", "clamped"),
            ("--config", str(cfg), "plot", "--res", "3"),
            ("verify", "--N", "5", "--mu1", "-2", "--mu2", "0", "--p", "2",
             "--q", "3", "--case", "C1"),
            ("plot", "--N", "5", "--mu1", "-2", "--mu2", "-2", "--bogus"),
            (),
            ("classify", "--N", "5", "--mu1", "-2", "--mu2", "0", "--p", "2",
             "--q", "3"),
        ]
        cli._parser.cache_clear()
        results = []
        for argv in calls:
            if fresh_parser:
                cli._parser.cache_clear()
            code, out, err = run_cli(capsys, *argv)
            files = {p.name: p.read_text().replace(str(work), "WORK")
                     for p in sorted(work.iterdir())}
            results.append((code, out.replace(str(work), "WORK"), err, files))
        return results

    def test_same_results_as_a_fresh_parser_per_call(self, capsys, tmp_path):
        reused = self._session(capsys, tmp_path / "a", fresh_parser=False)
        assert cli._parser.cache_info().misses == 1
        fresh = self._session(capsys, tmp_path / "b", fresh_parser=True)
        assert [r[0] for r in reused] == [0, 0, 0, 0, 0, 0, 1, 1, 0]
        assert reused == fresh

    def test_bad_flag_after_a_good_call(self, capsys):
        assert run_json(capsys, "classify", "--N", "5", "--mu1", "-2",
                        "--mu2", "0", "--p", "2", "--q", "4")["citation"] \
            == "T1.ii"
        code, out, err = run_cli(capsys, "classify", "--N", "5", "--mu1", "-2",
                                 "--mu2", "0", "--p", "2", "--q", "4",
                                 "--res", "3")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--res" in err
        assert run_json(capsys, "classify", "--N", "5", "--mu1", "-2",
                        "--mu2", "0", "--p", "2", "--q", "6")["citation"] \
            == "T1.i"


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "classify", "N": 5, "mu1": -2.0, "mu2": 0.0,
            "p": 2.0, "q": 6.0}))
        rec = run_json(capsys, "--config", str(cfg))
        assert rec["citation"] == "T1.i"

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "classify", "N": 5, "mu1": -2.0, "mu2": 0.0,
            "p": 2.0, "q": 6.0}))
        rec = run_json(capsys, "--config", str(cfg), "classify", "--q", "4")
        assert rec["citation"] == "T1.ii"

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/nonexistent.json",
                               "classify")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_config_values_are_typed(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "plot", "N": 5, "mu1": -2.0, "mu2": 0.0,
            "p-range": "0.5..6", "q_range": "0.5..6", "res": "4",
            "out": str(tmp_path / "cfg"), "format": "csv"}))
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 0, err
        assert len((tmp_path / "cfg.csv").read_text().splitlines()) == 17

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "plot", "N": 5, "mu1": -2.0, "mu2": 0.0,
            "p-range": "0.5..6", "q-range": "0.5..6", "res": "four",
            "out": str(tmp_path / "cfg")}))
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 1
        assert err.count("\n") == 1 and "--res" in err

    @pytest.mark.parametrize("key", ["r", "grid", "unknown"])
    def test_config_key_must_name_an_option(self, capsys, tmp_path, key):
        # "r" and "grid" are prefixes of --r-min and --grid-points
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "verify", "N": 5, "mu1": -2.0, "mu2": 0.0,
            "p": 2.0, "q": 3.0, "case": "C1", key: 1}))
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 1
        assert err.count("\n") == 1 and f"--{key}=1" in err

    @pytest.mark.parametrize("command, extra", [("classify", {}),
                                                ("verify", {"case": "C1"})],
                             ids=["classify", "verify"])
    def test_config_format_only_for_iterate_and_plot(self, capsys, tmp_path,
                                                     command, extra):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": command, "N": 5, "mu1": -2.0, "mu2": 0.0,
            "p": 2.0, "q": 3.0, "format": "json", **extra}))
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: --format=json\n"

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 1
        assert err.count("\n") == 1 and "JSON object" in err

    def test_non_utf8_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'\xff\xfe{"N": 5}')
        code, _, err = run_cli(capsys, "--config", str(cfg), "classify")
        assert code == 1
        assert err.count("\n") == 1 and "not UTF-8" in err

    def test_unexpected_exception_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ZeroDivisionError("induced for the exit-code contract")

        monkeypatch.setattr(cli, "classify", boom)
        code, _, err = run_cli(capsys, "classify", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p", "2", "--q", "4")
        assert code == 2
        assert err.count("\n") == 1 and "ZeroDivisionError" in err
