"""CLI behaviour: exit codes, reports, dumps, reproducibility."""

import subprocess
import sys

import pytest

from aapsm.cli import main
from aapsm.generator import generate_layout
from aapsm.layout import parse_layout, serialize_layout

from conftest import cli_env


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def clean_layout_file(tmp_path):
    path = tmp_path / "clean.lay"
    layout = generate_layout(11, features=6, motif_density=0.0)
    path.write_text(serialize_layout(layout))
    return path


@pytest.fixture
def conflict_layout_file(tmp_path):
    path = tmp_path / "comb.lay"
    layout = generate_layout(12, features=8, motif_density=1.0)
    path.write_text(serialize_layout(layout))
    return path


class TestDetect:
    def test_clean_layout_zero_conflicts(self, clean_layout_file, capsys):
        code, out = run_cli(["detect", str(clean_layout_file)], capsys)
        assert code == 0
        assert "conflicts_pcg=0" in out

    def test_conflicts_detected(self, conflict_layout_file, capsys):
        code, out = run_cli(["detect", str(conflict_layout_file)], capsys)
        assert code == 0
        report = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert int(report["conflicts_pcg"]) > 0
        assert int(report["conflicts_pcg"]) >= int(report["conflicts_np"])

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lay"
        bad.write_text("rect poly zero 0 1 1\n")
        code, out = run_cli(["detect", str(bad)], capsys)
        assert code == 2
        assert "error=" in out

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(["detect", "/nonexistent/x.lay"], capsys)
        assert code == 2

    def test_dumps_written(self, conflict_layout_file, tmp_path, capsys):
        gdump = tmp_path / "g.txt"
        edump = tmp_path / "e.txt"
        cdump = tmp_path / "c.txt"
        code, _ = run_cli(
            [
                "detect",
                str(conflict_layout_file),
                "--dump-graph",
                str(gdump),
                "--dump-embedding",
                str(edump),
                "--dump-conflicts",
                str(cdump),
            ],
            capsys,
        )
        assert code == 0
        assert gdump.read_text().startswith("node 0 edge_shifter")
        assert "face" in edump.read_text()
        assert cdump.read_text().startswith("conflict ")

    def test_baseline_and_timing_flags(self, conflict_layout_file, capsys):
        code, out = run_cli(
            ["detect", str(conflict_layout_file), "--baseline-gb"],
            capsys,
        )
        assert code == 0
        assert "conflicts_gb=" in out

    def test_multiple_files_reports_in_order(
        self, clean_layout_file, conflict_layout_file, capsys
    ):
        code, out = run_cli(
            ["detect", str(clean_layout_file), str(conflict_layout_file)], capsys
        )
        assert code == 0
        assert out.index("design=clean") < out.index("design=comb")

    def test_rules_override(self, clean_layout_file, capsys):
        # absurdly large spacing turns the clean chain layout into a tangle
        code, out = run_cli(
            ["detect", str(clean_layout_file), "--rules", "150,200,50,200"], capsys
        )
        assert code == 0

    def test_separation_weights(self, conflict_layout_file, capsys):
        code, out = run_cli(
            ["detect", str(conflict_layout_file), "--weights", "separation"], capsys
        )
        assert code == 0
        report = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert report["weight_mode"] == "separation"
        # per-conflict weights exceed 1, so total weight >= count
        assert int(report["weight_pcg"]) >= int(report["conflicts_pcg"])


class TestCorrect:
    def test_conflicting_layout_corrected(self, conflict_layout_file, tmp_path, capsys):
        out_file = tmp_path / "fixed.lay"
        plan_file = tmp_path / "plan.txt"
        code, out = run_cli(
            [
                "correct",
                str(conflict_layout_file),
                "--out",
                str(out_file),
                "--dump-plan",
                str(plan_file),
            ],
            capsys,
        )
        assert code == 0
        report = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert report["residual_conflicts"] == "0"
        assert float(report["pct_area_increase"]) > 0
        assert report["uncovered"] == "0"
        fixed = parse_layout(out_file.read_text())
        assert len(fixed.features) == len(parse_layout(conflict_layout_file.read_text()).features)
        assert plan_file.read_text().startswith("cut ")

    def test_clean_layout_identity(self, clean_layout_file, tmp_path, capsys):
        out_file = tmp_path / "fixed.lay"
        code, out = run_cli(
            ["correct", str(clean_layout_file), "--out", str(out_file)], capsys
        )
        assert code == 0
        assert "pct_area_increase=0.0000" in out
        assert out_file.read_text() == clean_layout_file.read_text()

    def test_uncoverable_exit_3(self, tmp_path, capsys):
        # odd ring built from touching shifter pairs: zero gap on both axes
        # is impossible here, so force a feature-edge-only conflict instead:
        # two features whose shifters intersect in both axes
        path = tmp_path / "stuck.lay"
        path.write_text(
            "rules 150 200 0 500\n"
            "bbox -2000 -2000 4000 4000\n"
            # three verticals packed so tightly their shifters intersect
            "rect poly 0 0 100 800\n"
            "rect poly 250 0 350 800\n"
            "rect poly 500 0 600 800\n"
        )
        code, out = run_cli(["correct", str(path)], capsys)
        assert code == 3
        assert "error=" in out

    @pytest.mark.parametrize(
        "outside", ["rect poly 2000 100 3000 300", "rect metal 900 500 1100 600"]
    )
    def test_rect_outside_bbox_exit_2(self, outside, tmp_path, capsys):
        # no cut is planned here; the declared outline itself is invalid
        path = tmp_path / "outside.lay"
        path.write_text(
            "rules 150 200 50 200\n"
            "bbox 0 0 1000 1000\n"
            "rect poly 300 100 400 900\n"
            f"{outside}\n"
        )
        code, out = run_cli(["correct", str(path), "--out", str(tmp_path / "f.lay")], capsys)
        assert code == 2
        assert "error=rect 1 on layer" in out and "outside the bbox" in out
        assert not (tmp_path / "f.lay").exists()

    def test_jobs_parallel_matches_serial(
        self, clean_layout_file, conflict_layout_file, tmp_path, capsys
    ):
        args = [
            "detect",
            str(clean_layout_file),
            str(conflict_layout_file),
        ]
        _, serial = run_cli(args, capsys)
        _, parallel = run_cli(args + ["--jobs", "2"], capsys)
        assert serial == parallel


class TestOptionValidation:
    """Out-of-range numeric options exit 2 with an error= line, before any
    layout is read or written."""

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    @pytest.mark.parametrize("command", ["detect", "correct"])
    def test_jobs_below_one_rejected(
        self, command, jobs, clean_layout_file, conflict_layout_file, tmp_path, capsys
    ):
        args = [command, str(clean_layout_file), str(conflict_layout_file), "--jobs", jobs]
        if command == "correct":
            args += ["--out-dir", str(tmp_path / "fixed")]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error=--jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "fixed").exists()

    def test_negative_exact_cover_limit_rejected(self, conflict_layout_file, tmp_path, capsys):
        out_file = tmp_path / "fixed.lay"
        code = main(
            ["correct", str(conflict_layout_file), "--exact-cover-limit", "-5",
             "--out", str(out_file)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error=--exact-cover-limit must be non-negative, got -5\n"
        assert not out_file.exists()

    def test_boundary_values_accepted(self, conflict_layout_file, tmp_path, capsys):
        code, out = run_cli(
            ["correct", str(conflict_layout_file), "--jobs", "1",
             "--exact-cover-limit", "0", "--out", str(tmp_path / "fixed.lay")],
            capsys,
        )
        assert code == 0
        assert "cuts_exact=na" in out


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        code, out = run_cli(["generate", "--seed", "5", "--features", "6"], capsys)
        assert code == 0
        assert out.startswith("rules ")

    def test_generate_deterministic(self, capsys):
        _, a = run_cli(["generate", "--seed", "5", "--features", "6"], capsys)
        _, b = run_cli(["generate", "--seed", "5", "--features", "6"], capsys)
        assert a == b

    def test_generate_bad_params_exit_2(self, capsys):
        code, _ = run_cli(
            ["generate", "--seed", "1", "--features", "0"], capsys
        )
        assert code == 2


class TestSubprocessReproducibility:
    def test_detect_bytes_stable_across_processes(self, tmp_path):
        layout_path = tmp_path / "d.lay"
        layout = generate_layout(42, features=10, motif_density=0.7)
        layout_path.write_text(serialize_layout(layout))
        cmd = [
            sys.executable,
            "-m",
            "aapsm.cli",
            "detect",
            str(layout_path),
            "--baseline-gb",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
