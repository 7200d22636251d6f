import json
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest

from hardylane import cli
from hardylane.exponents import HardyParams
from hardylane.regions import _CODE_BY_CITATION, classify_field
from hardylane.schemas import load_schema


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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
                legend[el.get("fill")] = _CODE_BY_CITATION[citation]
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


class TestVerifyCommand:
    def test_verified_construction(self, capsys):
        rec = run_json(capsys, "verify", "--N", "5", "--mu1", "-2",
                       "--mu2", "0", "--p", "2", "--q", "3", "--case", "C1")
        assert rec["ok"] is True
        assert rec["t"] == 1.0
        assert rec["min_slack_u"] >= 0.0
        assert rec["oracle_max_dev"] <= 1e-4
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
        # tau_+(-1e-20) rounds to 0: the point is out of scope, as at mu = 0
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "plot", "--N", "5", "--mu1=-1e-20",
                               "--mu2", "0", "--p-range", "0.5..4",
                               "--q-range", "0.5..6", "--res", "20",
                               "--out", str(out), "--format", "json")
        assert code == 0, err
        assert '"markers": {}' in (tmp_path / "x.json").read_text()

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

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 1
        assert err.count("\n") == 1 and "JSON object" in err

    def test_unexpected_exception_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ZeroDivisionError("induced for the exit-code contract")

        monkeypatch.setattr(cli, "classify", boom)
        code, _, err = run_cli(capsys, "classify", "--N", "5", "--mu1", "-2",
                               "--mu2", "0", "--p", "2", "--q", "4")
        assert code == 2
        assert err.count("\n") == 1 and "ZeroDivisionError" in err
